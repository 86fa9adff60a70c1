#include "trace/saturator.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "sim/relay.h"
#include "util/stats.h"

namespace sprout {

GroundTruthLink::GroundTruthLink(Simulator& sim,
                                 const CellProcessParams& params,
                                 std::uint64_t seed, PacketSink& out,
                                 DeliveryRecorder on_delivery)
    : sim_(sim),
      process_(params, seed),
      rng_(seed ^ 0xd1b54a32d192ed03ULL),
      out_(out),
      on_delivery_(std::move(on_delivery)) {
  start_step();
}

void GroundTruthLink::receive(Packet&& p) {
  queue_.push_back(std::move(p));
}

void GroundTruthLink::start_step() {
  const Duration step = process_.params().step;
  const double rate = process_.advance();
  const double dt = to_seconds(step);
  const std::int64_t count = rng_.poisson(rate * dt);
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    offsets.push_back(rng_.uniform(0.0, dt));
  }
  std::sort(offsets.begin(), offsets.end());
  for (double off : offsets) {
    sim_.after(from_seconds(off), [this] { deliver_one(); });
  }
  sim_.after(step, [this] { start_step(); });
}

void GroundTruthLink::deliver_one() {
  // An opportunity with an empty queue is wasted — exactly the situation
  // the Saturator's backlog exists to prevent.
  if (queue_.empty()) return;
  Packet p = std::move(queue_.front());
  queue_.pop_front();
  if (on_delivery_) on_delivery_(sim_.now());
  out_.receive(std::move(p));
}

namespace {

// The Saturator endpoint: keeps `window_` packets in flight, adapting it so
// the observed RTT stays inside the configured band.
class SaturatorEndpoint : public PacketSink {
 public:
  SaturatorEndpoint(Simulator& sim, const SaturatorConfig& config)
      : sim_(sim), config_(config), window_(config.initial_window) {}

  void attach(PacketSink& link) { link_ = &link; }

  void start() { fill_window(); }

  // Acks arrive here after the feedback delay; `echo` carries send time.
  void receive(Packet&& ack) override {
    --inflight_;
    const Duration rtt = sim_.now() - ack.echo;
    rtt_stats_.add(to_millis(rtt));
    if (rtt < config_.rtt_floor) {
      // Link is not starved for offered load yet: push harder.
      window_ += 2;
    } else if (rtt > config_.rtt_ceiling) {
      // Risk of carrier throttling: back off multiplicatively.
      window_ = std::max<std::int64_t>(2, static_cast<std::int64_t>(
                                              static_cast<double>(window_) * 0.95));
    } else {
      in_band_acks_ += 1;
    }
    total_acks_ += 1;
    fill_window();
  }

  [[nodiscard]] std::int64_t window() const { return window_; }
  [[nodiscard]] double mean_rtt_ms() const { return rtt_stats_.mean(); }
  [[nodiscard]] double fraction_in_band() const {
    return total_acks_ > 0
               ? static_cast<double>(in_band_acks_) / static_cast<double>(total_acks_)
               : 0.0;
  }

 private:
  void fill_window() {
    assert(link_ != nullptr);
    while (inflight_ < window_) {
      Packet p;
      p.size = kMtuBytes;
      p.sent_at = sim_.now();
      p.echo = sim_.now();
      link_->receive(std::move(p));
      ++inflight_;
    }
  }

  Simulator& sim_;
  SaturatorConfig config_;
  PacketSink* link_ = nullptr;
  std::int64_t window_;
  std::int64_t inflight_ = 0;
  std::int64_t in_band_acks_ = 0;
  std::int64_t total_acks_ = 0;
  RunningStats rtt_stats_;
};

// Far end: bounces every delivered packet back to the Saturator after the
// feedback-path delay (the second phone).
class FeedbackBouncer : public PacketSink {
 public:
  FeedbackBouncer(Simulator& sim, Duration delay, PacketSink& back)
      : path_(sim, delay, /*loss_rate=*/0.0, /*seed=*/0) {
    path_.set_target(back);
  }

  void receive(Packet&& p) override {
    // Keep only what the ack needs; acks are small and ride a clean path.
    Packet ack;
    ack.size = 40;
    ack.echo = p.echo;
    path_.receive(std::move(ack));
  }

 private:
  DelayLink path_;
};

}  // namespace

SaturatorResult run_saturator(const CellProcessParams& params,
                              const SaturatorConfig& config,
                              std::uint64_t seed) {
  Simulator sim;
  std::vector<TimePoint> deliveries;
  SaturatorEndpoint saturator(sim, config);
  FeedbackBouncer bouncer(sim, config.feedback_delay, saturator);
  GroundTruthLink link(
      sim, params, seed, bouncer,
      [&deliveries](TimePoint t) { deliveries.push_back(t); });
  saturator.attach(link);
  saturator.start();
  sim.run_until(TimePoint{} + config.run_time);

  SaturatorResult result{Trace{}, 0.0, saturator.mean_rtt_ms(),
                         saturator.window(), saturator.fraction_in_band()};
  if (!deliveries.empty()) {
    result.trace = Trace{std::move(deliveries), config.run_time};
    result.observed_rate_kbps = result.trace.average_rate_kbps();
  }
  return result;
}

}  // namespace sprout
