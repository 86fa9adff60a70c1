// Evaluation metrics exactly as defined in §5.1 of the paper.
//
// * Throughput: bits received / duration, skipping the first minute.
// * Instantaneous delay at time t: time since the most recently-SENT packet
//   that has ARRIVED by t was sent (footnote 7: the signal is a sawtooth
//   rising at 1 s/s between arrivals).  Its 95th percentile over the
//   measurement window is the "95% end-to-end delay".
// * Self-inflicted delay: the protocol's 95% end-to-end delay minus the
//   95% end-to-end delay of an omniscient protocol whose packets ride every
//   delivery opportunity with zero queueing.
#pragma once

#include <vector>

#include "metrics/histogram.h"
#include "metrics/recorder.h"
#include "sim/packet.h"
#include "trace/trace.h"
#include "util/stats.h"
#include "util/units.h"

namespace sprout {

struct DeliveryRecord {
  TimePoint sent_at;
  TimePoint received_at;
  ByteCount size;
};

class FlowMetrics {
 public:
  void record(const Packet& p, TimePoint received_at);
  void record(DeliveryRecord r);

  // Streaming mode — population-scale aggregation without retention.
  //
  // Once enabled, record() folds each delivery into counters instead of
  // appending to records_: total bytes, plus — inside [from, to) — windowed
  // bytes and a fixed-bin histogram of per-packet one-way delay, which
  // stores only its occupied bins.  The retained-record analyses
  // (delay_percentile_ms and friends) are unavailable in this mode (they
  // would see an empty record list); use histogram()/window_* instead.  A
  // tower's thousand flows each cost the few bins their delays occupy, not
  // a packet log.
  void enable_streaming(Duration hist_bin, Duration hist_max, TimePoint from,
                        TimePoint to);
  [[nodiscard]] bool streaming() const { return streaming_; }

  // Streaming delay histogram ALONGSIDE the retained record list: unlike
  // enable_streaming, record() keeps appending to records_ (the §5.1
  // sawtooth analyses stay available) and ALSO folds each in-window
  // delivery into the histogram.  This is how the non-streaming topologies
  // (single-flow, shared-queue, tunnel) report p50/p95/p99/p999 through
  // the same DelayHistogram the tower streams — ROADMAP 5(b).
  void enable_histogram(Duration hist_bin, Duration hist_max, TimePoint from,
                        TimePoint to);

  // Flight-recorder tap (metrics/recorder.h); null detaches.  Every
  // delivery record is forwarded to the recorder, which bins it.  The
  // recorder must outlive this object.
  void set_timeline_recorder(FlowTimelineRecorder* recorder) {
    timeline_ = recorder;
  }
  // The delay histogram (unconfigured unless enable_streaming or
  // enable_histogram ran).
  [[nodiscard]] const DelayHistogram& histogram() const { return hist_; }
  // Bytes received inside the streaming window [from, to).
  [[nodiscard]] ByteCount window_bytes() const { return window_bytes_; }
  [[nodiscard]] double window_throughput_kbps() const;

  [[nodiscard]] const std::vector<DeliveryRecord>& records() const {
    return records_;
  }
  [[nodiscard]] ByteCount total_bytes() const;

  // Average rate of bytes received inside [from, to), in kbit/s.
  [[nodiscard]] double throughput_kbps(TimePoint from, TimePoint to) const;

  // Percentile (e.g. 95) of the instantaneous-delay signal over [from, to),
  // in milliseconds.  Exact (closed-form over the sawtooth), not sampled.
  [[nodiscard]] double delay_percentile_ms(double percentile, TimePoint from,
                                           TimePoint to) const;

  // Time-average of the instantaneous-delay signal, in milliseconds.
  [[nodiscard]] double mean_delay_ms(TimePoint from, TimePoint to) const;

  // Plain per-packet one-way delay percentile (diagnostics; not the paper's
  // headline metric).
  [[nodiscard]] double packet_delay_percentile_ms(double percentile,
                                                  TimePoint from,
                                                  TimePoint to) const;

 private:
  [[nodiscard]] RampFunctionPercentile delay_signal(TimePoint from,
                                                    TimePoint to) const;

  std::vector<DeliveryRecord> records_;
  ByteCount total_bytes_ = 0;
  bool streaming_ = false;
  TimePoint window_from_{};
  TimePoint window_to_{};
  ByteCount window_bytes_ = 0;
  DelayHistogram hist_;  // unconfigured unless streaming/enable_histogram
  FlowTimelineRecorder* timeline_ = nullptr;
};

// A transparent sink that records deliveries, then forwards.
class MeasuredSink : public PacketSink {
 public:
  MeasuredSink(class Simulator& sim, PacketSink& next);
  // Terminal variant: record and swallow.
  explicit MeasuredSink(class Simulator& sim);

  void receive(Packet&& p) override;

  [[nodiscard]] FlowMetrics& metrics() { return metrics_; }
  [[nodiscard]] const FlowMetrics& metrics() const { return metrics_; }

 private:
  class Simulator& sim_;
  PacketSink* next_;
  FlowMetrics metrics_;
};

// 95% end-to-end delay of the omniscient protocol on this trace: arrivals at
// every delivery opportunity, each having waited only the propagation delay.
[[nodiscard]] double omniscient_delay_percentile_ms(const Trace& trace,
                                                    double percentile,
                                                    TimePoint from, TimePoint to,
                                                    Duration propagation_delay);

// Link capacity over a window: bytes the trace could deliver, as kbit/s.
[[nodiscard]] double link_capacity_kbps(const Trace& trace, TimePoint from,
                                        TimePoint to);

}  // namespace sprout
