// Flight-recorder timelines (metrics/recorder.h): binning semantics of
// every tap, capacity grafting from the delivery trace, link-recorder
// grafting of the queue/drop columns, JSON round-trips, the byte-stability
// contract for pre-timeline result files, and ROADMAP 5(b)'s streaming
// delay percentiles on the retained-record topologies.
#include "metrics/recorder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/flow_metrics.h"
#include "metrics/histogram.h"
#include "runner/scenario.h"
#include "runner/shard.h"
#include "trace/trace.h"
#include "util/table.h"

namespace sprout {
namespace {

TimePoint at(double s) { return TimePoint{} + from_seconds(s); }

TEST(Recorder, CtorRejectsBadGeometry) {
  EXPECT_THROW(FlowTimelineRecorder(Duration::zero(), at(0.0), at(1.0)),
               std::invalid_argument);
  EXPECT_THROW(FlowTimelineRecorder(msec(-5), at(0.0), at(1.0)),
               std::invalid_argument);
  EXPECT_THROW(FlowTimelineRecorder(msec(500), at(1.0), at(1.0)),
               std::invalid_argument);
  EXPECT_THROW(FlowTimelineRecorder(msec(500), at(2.0), at(1.0)),
               std::invalid_argument);
}

TEST(Recorder, InactiveRecorderIsANoOp) {
  FlowTimelineRecorder rec;
  EXPECT_FALSE(rec.active());
  // Every tap must tolerate the inactive state (the engine null-checks the
  // pointer, but a defensively-wired caller may not).
  rec.record_forecast(at(0.5), 1000.0);
  rec.record_delivery(at(0.1), at(0.5), 1500);
  rec.record_queue_sample(at(0.5), 3, 4500);
  rec.record_drop(at(0.5));
  const FlowTimeline t = rec.finalize(nullptr, &rec);
  EXPECT_FALSE(t.configured());
  EXPECT_TRUE(t.points.empty());
}

// One recorder, bins of 1 s over [0, 2.5): three bins, the last partial.
// Every column's per-bin semantics in one place.
TEST(Recorder, BinsEveryTapWithPartialTrailingBin) {
  FlowTimelineRecorder rec(sec(1), at(0.0), at(2.5));
  ASSERT_TRUE(rec.active());

  // Forecast: per-bin mean across ticks.
  rec.record_forecast(at(0.2), 1000.0);
  rec.record_forecast(at(0.7), 3000.0);
  // Deliveries: throughput over the bin width, delay mean/max of the
  // packets RECEIVED in the bin.
  rec.record_delivery(at(0.1), at(0.5), 1250);   // 400 ms
  rec.record_delivery(at(0.3), at(0.9), 1250);   // 600 ms
  rec.record_delivery(TimePoint{} + msec(2050), TimePoint{} + msec(2250),
                      1250);                     // partial bin, 200 ms
  // Queue: peaks, packets and bytes tracked independently.
  rec.record_queue_sample(at(0.3), 5, 7500);
  rec.record_queue_sample(at(0.8), 3, 9000);
  // Drops count per bin.
  rec.record_drop(at(1.5));
  rec.record_drop(at(1.6));
  // Outside [from, to): all ignored.
  rec.record_forecast(at(2.5), 9999.0);
  rec.record_delivery(at(2.9), at(3.0), 9999);
  rec.record_queue_sample(at(2.7), 99, 99999);
  rec.record_drop(at(2.6));

  const FlowTimeline t = rec.finalize(nullptr, &rec);
  ASSERT_TRUE(t.configured());
  EXPECT_DOUBLE_EQ(t.bin_s, 1.0);
  EXPECT_DOUBLE_EQ(t.from_s, 0.0);
  ASSERT_EQ(t.points.size(), 3u);

  const TimelinePoint& b0 = t.points[0];
  EXPECT_DOUBLE_EQ(b0.time_s, 0.0);
  EXPECT_DOUBLE_EQ(b0.forecast_kbps, 2000.0);
  EXPECT_DOUBLE_EQ(b0.throughput_kbps, kbps(2500, sec(1)));
  EXPECT_DOUBLE_EQ(b0.capacity_kbps, 0.0);  // no trace supplied
  EXPECT_DOUBLE_EQ(b0.mean_delay_ms, 500.0);
  EXPECT_DOUBLE_EQ(b0.max_delay_ms, 600.0);
  EXPECT_EQ(b0.queue_max_packets, 5);
  EXPECT_EQ(b0.queue_max_bytes, 9000);
  EXPECT_EQ(b0.drops, 0);

  const TimelinePoint& b1 = t.points[1];
  EXPECT_DOUBLE_EQ(b1.time_s, 1.0);
  EXPECT_DOUBLE_EQ(b1.forecast_kbps, 0.0);  // no ticks in the bin
  EXPECT_DOUBLE_EQ(b1.throughput_kbps, 0.0);
  EXPECT_DOUBLE_EQ(b1.mean_delay_ms, 0.0);
  EXPECT_EQ(b1.drops, 2);

  // Partial bin: rates averaged over the TRUE 0.5 s width.
  const TimelinePoint& b2 = t.points[2];
  EXPECT_DOUBLE_EQ(b2.time_s, 2.0);
  EXPECT_DOUBLE_EQ(b2.throughput_kbps, kbps(1250, msec(500)));
  EXPECT_DOUBLE_EQ(b2.mean_delay_ms, 200.0);
  EXPECT_DOUBLE_EQ(b2.max_delay_ms, 200.0);
}

TEST(Recorder, CapacityColumnComesFromTheDeliveryTrace) {
  const Trace trace({at(0.1), at(0.5), at(1.2)}, from_seconds(2.5));
  FlowTimelineRecorder rec(sec(1), at(0.0), at(2.5));
  const FlowTimeline t = rec.finalize(&trace, &rec);
  ASSERT_EQ(t.points.size(), 3u);
  EXPECT_DOUBLE_EQ(t.points[0].capacity_kbps, kbps(3000, sec(1)));
  EXPECT_DOUBLE_EQ(t.points[1].capacity_kbps, kbps(1500, sec(1)));
  EXPECT_DOUBLE_EQ(t.points[2].capacity_kbps, 0.0);
}

// Shared-queue shape: the flow recorder holds per-flow columns, a SEPARATE
// link recorder holds the queue/drop columns, and finalize grafts them.
TEST(Recorder, LinkRecorderSuppliesQueueAndDropColumns) {
  FlowTimelineRecorder flow(sec(1), at(0.0), at(2.0));
  FlowTimelineRecorder link(sec(1), at(0.0), at(2.0));
  flow.record_delivery(at(0.1), at(0.4), 1500);
  // Queue samples recorded into the FLOW recorder must not leak into the
  // grafted columns — only the link recorder's state counts.
  flow.record_queue_sample(at(0.2), 77, 777);
  link.record_queue_sample(at(0.3), 4, 6000);
  link.record_drop(at(1.1));

  const FlowTimeline t = flow.finalize(nullptr, &link);
  ASSERT_EQ(t.points.size(), 2u);
  EXPECT_EQ(t.points[0].queue_max_packets, 4);
  EXPECT_EQ(t.points[0].queue_max_bytes, 6000);
  EXPECT_EQ(t.points[0].drops, 0);
  EXPECT_EQ(t.points[1].drops, 1);
  EXPECT_DOUBLE_EQ(t.points[0].throughput_kbps, kbps(1500, sec(1)));
}

ScenarioSpec small_spec() {
  ScenarioSpec s;
  s.scheme = SchemeId::kSprout;
  s.link = LinkSpec::preset("Verizon LTE", LinkDirection::kDownlink);
  s.run_time = sec(12);
  s.warmup = sec(3);
  s.seed = 42;
  return s;
}

// `r` as a one-cell sweep file, whose "result" object is the per-cell JSON
// every sweep file and journal record carries.
std::string result_json(const ScenarioResult& r) {
  SweepResult sweep;
  sweep.cell_fingerprints = {0};
  sweep.cells = {r};
  std::ostringstream os;
  write_sweep_json(os, sweep);
  return os.str();
}

TEST(Recorder, TimelineSurvivesJsonRoundTripByteForByte) {
  ScenarioSpec spec = small_spec();
  spec.record_timeline = true;
  spec.timeline_bin = msec(500);
  const ScenarioResult r = run_scenario(spec);
  ASSERT_FALSE(r.flows.empty());
  ASSERT_TRUE(r.flows[0].timeline.configured());
  ASSERT_FALSE(r.flows[0].timeline.points.empty());

  const std::string a = result_json(r);
  EXPECT_NE(a.find("\"timeline\""), std::string::npos);
  const ScenarioResult back = read_sweep_json(a).cells.at(0);
  ASSERT_EQ(back.flows.size(), r.flows.size());
  const FlowTimeline& t0 = r.flows[0].timeline;
  const FlowTimeline& t1 = back.flows[0].timeline;
  ASSERT_EQ(t1.points.size(), t0.points.size());
  EXPECT_DOUBLE_EQ(t1.bin_s, t0.bin_s);
  for (std::size_t i = 0; i < t0.points.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_DOUBLE_EQ(t1.points[i].forecast_kbps, t0.points[i].forecast_kbps);
    EXPECT_DOUBLE_EQ(t1.points[i].capacity_kbps, t0.points[i].capacity_kbps);
    EXPECT_EQ(t1.points[i].queue_max_bytes, t0.points[i].queue_max_bytes);
    EXPECT_EQ(t1.points[i].drops, t0.points[i].drops);
    EXPECT_DOUBLE_EQ(t1.points[i].max_delay_ms, t0.points[i].max_delay_ms);
  }
  // Deterministic writer: re-serializing the reader's output is identical.
  EXPECT_EQ(result_json(back), a);
}

TEST(Recorder, TimelineOffOmitsFieldAndDoesNotPerturbResults) {
  const ScenarioSpec off_spec = small_spec();
  ScenarioSpec on_spec = small_spec();
  on_spec.record_timeline = true;
  on_spec.timeline_bin = msec(500);

  const ScenarioResult off = run_scenario(off_spec);
  const ScenarioResult on = run_scenario(on_spec);

  EXPECT_EQ(result_json(off).find("\"timeline\""), std::string::npos);

  // PR 9's invariant extended: recording never perturbs the simulation.
  ASSERT_EQ(off.flows.size(), on.flows.size());
  for (std::size_t f = 0; f < off.flows.size(); ++f) {
    SCOPED_TRACE(f);
    EXPECT_DOUBLE_EQ(off.flows[f].throughput_kbps, on.flows[f].throughput_kbps);
    EXPECT_DOUBLE_EQ(off.flows[f].delay95_ms, on.flows[f].delay95_ms);
    EXPECT_DOUBLE_EQ(off.flows[f].mean_delay_ms, on.flows[f].mean_delay_ms);
    EXPECT_EQ(off.flows[f].delivered_bytes, on.flows[f].delivered_bytes);
  }
  EXPECT_EQ(off.packets_delivered, on.packets_delivered);
  EXPECT_EQ(off.link_drops, on.link_drops);
  EXPECT_DOUBLE_EQ(off.capacity_kbps, on.capacity_kbps);
}

TEST(Recorder, RunScenarioRejectsNonPositiveTimelineBin) {
  ScenarioSpec spec = small_spec();
  spec.record_timeline = true;
  spec.timeline_bin = Duration::zero();
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

// Satellite: a pre-timeline result file (generated before this PR, checked
// in as a golden) must round-trip byte-identically through read -> write.
// This is the compatibility half of the byte-stability contract; the
// timeline_roundtrip ctest covers the `sweep_report strip timeline` half.
TEST(Recorder, PrePr10SweepFileRoundTripsByteIdentically) {
  const std::string path =
      std::string(SPROUT_SOURCE_DIR) + "/tests/golden/pre_pr10_sweep.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string original = buf.str();
  ASSERT_FALSE(original.empty());

  const SweepResult sweep = read_sweep_json(original);
  std::ostringstream out;
  write_sweep_json(out, sweep);
  EXPECT_EQ(out.str(), original);
}

// ROADMAP 5(b): the histogram maintained alongside retained records pins
// every percentile within one bin width ABOVE the exact per-packet answer
// (upper-edge quantiles: never below, less than one bin above).
TEST(DelayPercentiles, HistogramWithinOneBinOfRetainedRecords) {
  FlowMetrics m;
  const TimePoint from = at(0.0);
  const TimePoint to = at(100.0);
  m.enable_histogram(msec(5), sec(20), from, to);
  // 400 packets with delays 1..400 ms: exact percentiles are easy to pin
  // and span many 5 ms bins.
  for (int i = 1; i <= 400; ++i) {
    const TimePoint sent = at(0.1 * i);
    m.record(DeliveryRecord{sent, sent + msec(i), 1500});
  }
  const DelayHistogram& h = m.histogram();
  ASSERT_TRUE(h.configured());
  ASSERT_EQ(h.samples(), 400);
  // Retained records stay available alongside the histogram.
  ASSERT_EQ(m.records().size(), 400u);
  for (const double pct : {50.0, 95.0, 99.0, 99.9}) {
    SCOPED_TRACE(pct);
    // The retained-record estimator interpolates between sorted samples;
    // the histogram reports the upper edge of the bin holding the
    // nearest-rank sample.  So: never below the exact answer, and at most
    // one bin width above the nearest-rank sample (here: delay i ms for
    // rank i, so nearest-rank = ceil(pct% of 400)).
    const double exact = m.packet_delay_percentile_ms(pct, from, to);
    const double nearest_rank = std::ceil(pct / 100.0 * 400.0);
    const double binned = h.percentile_ms(pct);
    EXPECT_GE(binned, exact);
    EXPECT_LE(binned, nearest_rank + h.bin_width_ms());
  }
  EXPECT_DOUBLE_EQ(h.mean_ms(), 200.5);
}

// Every non-streaming topology's FlowResult now carries a populated
// histogram, so delay_hist.stats() works on single-flow and shared-queue
// runs exactly as it always has on towers.
TEST(DelayPercentiles, EveryTopologyReportsStreamingPercentiles) {
  ScenarioSpec single = small_spec();
  ScenarioSpec shared = small_spec();
  shared.topology = TopologySpec::shared_queue(2);

  for (const ScenarioSpec& spec : {single, shared}) {
    const ScenarioResult r = run_scenario(spec);
    ASSERT_FALSE(r.flows.empty());
    for (std::size_t f = 0; f < r.flows.size(); ++f) {
      SCOPED_TRACE(f);
      ASSERT_TRUE(r.flows[f].delay_hist.configured());
      const DelayStats st = r.flows[f].delay_hist.stats();
      ASSERT_GT(st.samples, 0);
      EXPECT_GT(st.p50_ms, 0.0);
      EXPECT_LE(st.p50_ms, st.p95_ms);
      EXPECT_LE(st.p95_ms, st.p99_ms);
      EXPECT_LE(st.p99_ms, st.p999_ms);
      // The histogram's p95 brackets the signal-weighted delay95 loosely
      // (different estimators), but both must sit in the same regime: the
      // binned per-packet p95 within one bin above the exact one.
      const double p95 = r.flows[f].delay_hist.percentile_ms(95.0);
      EXPECT_GT(p95, 0.0);
    }
  }
}

}  // namespace
}  // namespace sprout
