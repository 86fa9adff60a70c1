// The simulation flight recorder: streaming fixed-bin per-flow timelines.
//
// The paper's whole evaluation is time-domain (Figures 1-8 plot the
// forecast's cautious estimate against realized link capacity, queue
// occupancy and per-packet delay over time), but results so far only
// carried window aggregates.  A FlowTimelineRecorder taps three layers of
// a running scenario —
//
//   * the forecaster: the cautious-estimate delivery rate each tick
//     (SproutEndpoint feeds it after the receiver's tick),
//   * the link: queue depth in packets and bytes sampled at every enqueue
//     and every delivery opportunity, plus drops (random + AQM),
//   * the receiver: per-packet one-way delay and delivered bytes
//     (FlowMetrics feeds it on every delivery record),
//
// — and folds each event into O(bins) state, never a packet log.  The
// result, a FlowTimeline, is plain data: one point per fixed bin with the
// forecast / capacity / throughput rates, the bin's peak queue depth, its
// drop count and its mean/max delay.  Realized capacity is not an event
// stream — finalize() computes it per bin from the flow's delivery trace.
// These are the series the paper's Figure 1 plots (bench/fig01_timeseries
// reads them from here).
//
// Determinism contract (PR 9's invariant, extended): recording never
// perturbs results.  Taps are raw pointers checked for null on the hot
// paths; a scenario with ScenarioSpec::record_timeline == false wires no
// recorder anywhere, and every tap site costs one branch.  All recording
// happens inside the single-threaded simulation loop, so timelines are as
// deterministic as the simulation itself: serial == thread-pool ==
// process-sharded-and-merged holds bitwise for timeline bytes too
// (enforced by the timeline_roundtrip ctest).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.h"
#include "util/units.h"

namespace sprout {

// One fixed bin of a flow's timeline.  Rates are averages over the bin;
// queue depths are the bin's peak; delays summarize the packets RECEIVED
// inside the bin.
struct TimelinePoint {
  double time_s = 0.0;            // bin start
  double forecast_kbps = 0.0;     // mean cautious-estimate delivery rate
  double capacity_kbps = 0.0;     // realized deliverable capacity
  double throughput_kbps = 0.0;   // bytes actually delivered to the flow
  std::int64_t queue_max_packets = 0;
  std::int64_t queue_max_bytes = 0;
  std::int64_t drops = 0;         // random + AQM drops at the ingress
  double mean_delay_ms = 0.0;
  double max_delay_ms = 0.0;
};

// A finalized timeline: plain data, serialized into shard/journal records
// as an optional field and preserved verbatim by merge.
struct FlowTimeline {
  double bin_s = 0.0;   // 0 == absent (the field is omitted from JSON)
  double from_s = 0.0;  // timeline origin (bin 0 starts here)
  std::vector<TimelinePoint> points;

  [[nodiscard]] bool configured() const { return bin_s > 0.0; }
};

// The streaming builder.  One recorder serves one flow; in topologies
// where several flows share one queue (shared-queue, tunnel) a separate
// link-level recorder collects the queue/drop columns and finalize()
// grafts them onto each flow's timeline.
class FlowTimelineRecorder {
 public:
  // Inactive recorder: every tap is a no-op, finalize() returns an
  // unconfigured timeline.
  FlowTimelineRecorder() = default;
  // Records events inside [from, to) into bins of `bin` width.  Throws
  // std::invalid_argument for a non-positive bin or an empty window.
  FlowTimelineRecorder(Duration bin, TimePoint from, TimePoint to);

  [[nodiscard]] bool active() const { return !bins_.empty(); }

  // Forecaster tap: the cautious-estimate delivery rate computed at `now`
  // (horizon-average, kbit/s).  Averaged per bin across ticks.
  void record_forecast(TimePoint now, double forecast_kbps);

  // Receiver tap: one delivered packet.
  void record_delivery(TimePoint sent_at, TimePoint received_at,
                       ByteCount bytes);

  // Link taps: queue depth after an enqueue or a delivery opportunity, and
  // a dropped arrival (random loss or AQM rejection).
  void record_queue_sample(TimePoint now, std::size_t packets,
                           ByteCount bytes);
  void record_drop(TimePoint now);

  // Builds the timeline.  `capacity_trace` (may be null) fills the per-bin
  // realized-capacity column from the flow's delivery opportunities;
  // `link` (may be null, often a DIFFERENT recorder when flows share a
  // queue) supplies the queue/drop columns.  Pass `this` as `link` when
  // the flow owns its queue.
  [[nodiscard]] FlowTimeline finalize(const Trace* capacity_trace,
                                      const FlowTimelineRecorder* link) const;

 private:
  struct BinState {
    double forecast_kbps_sum = 0.0;
    std::int64_t forecast_ticks = 0;
    ByteCount delivered_bytes = 0;
    double delay_ms_sum = 0.0;
    double delay_ms_max = 0.0;
    std::int64_t delivered_packets = 0;
    std::int64_t queue_max_packets = 0;
    std::int64_t queue_max_bytes = 0;
    std::int64_t drops = 0;
  };

  // Bin index for an in-window instant; bins_.size() when outside.
  [[nodiscard]] std::size_t bin_index(TimePoint t) const;

  Duration bin_{};
  TimePoint from_{};
  TimePoint to_{};
  std::vector<BinState> bins_;
};

}  // namespace sprout
