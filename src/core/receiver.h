// The Sprout receiver (§3.2-3.4): observes packet arrivals, runs the
// forecast strategy every 20 ms tick, and maintains the received-or-lost
// byte count the sender uses to estimate queue occupancy.
//
// Observation rules:
//  * A tick's arrivals are counted in MTU units (remainders carry over).
//  * If the most recent packet declared a nonzero time-to-next that has not
//    expired, ticks with less than one MTU of arrivals are skipped — an
//    empty sender queue must not read as an outage (§3.2).
//  * Otherwise every tick is observed, including zero-arrival ticks, which
//    is precisely how genuine outages are detected.
#pragma once

#include <memory>

#include "core/strategy.h"
#include "core/wire.h"
#include "util/units.h"

namespace sprout {

class SproutReceiver {
 public:
  SproutReceiver(const SproutParams& params,
                 std::unique_ptr<ForecastStrategy> strategy);

  // Incorporates an arrived packet (already parsed); `wire_bytes` is the
  // packet's full size on the wire.
  void on_packet(const SproutWireMessage& msg, ByteCount wire_bytes,
                 TimePoint now);

  // Runs one tick ending at `now`: evolve, maybe observe, refresh forecast.
  void tick(TimePoint now);

  [[nodiscard]] const DeliveryForecast& latest_forecast() const {
    return forecast_;
  }
  [[nodiscard]] ByteCount received_or_lost_bytes() const {
    return received_or_lost_;
  }
  // Application-payload bytes that actually arrived (excludes wire headers,
  // heartbeats and anything written off as lost).  The §7 transient bench
  // polls this to find when a talkspurt's bytes finished draining.
  [[nodiscard]] ByteCount payload_bytes_received() const {
    return payload_received_;
  }
  [[nodiscard]] double estimated_rate_pps() const {
    return strategy_->estimated_rate_pps();
  }
  [[nodiscard]] std::int64_t ticks_observed() const { return ticks_observed_; }
  [[nodiscard]] std::int64_t ticks_skipped() const { return ticks_skipped_; }

 private:
  SproutParams params_;
  std::unique_ptr<ForecastStrategy> strategy_;
  DeliveryForecast forecast_;

  ByteCount received_or_lost_ = 0;
  ByteCount payload_received_ = 0;
  ByteCount tick_bytes_ = 0;      // arrivals since the last tick
  ByteCount carry_bytes_ = 0;     // sub-MTU remainder carried forward
  TimePoint blackout_until_{};    // sender-declared idle horizon
  bool tick_saw_backlogged_packet_ = false;
  std::int64_t ticks_observed_ = 0;
  std::int64_t ticks_skipped_ = 0;
};

}  // namespace sprout
