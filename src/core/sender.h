// The Sprout sender (§3.4-3.5): turns the receiver's forecast into an
// evolving window that bounds the risk of queueing delay beyond the
// tolerance (100 ms => 5 ticks of lookahead), while accounting for the
// estimated bytes already in the network queue.
#pragma once

#include <deque>
#include <functional>

#include "core/params.h"
#include "core/wire.h"
#include "util/units.h"

namespace sprout {

// Fixed per-packet allowance for the Sprout header plus a piggybacked
// 8-tick forecast block.  The window/byte accounting uses this constant so
// the budget math stays independent of whether a given packet happens to
// carry a forecast; one frame carries at most mtu - kWireOverhead payload
// bytes.
inline constexpr ByteCount kWireOverhead = 96;

class SproutSender {
 public:
  // `emit` hands a finished outgoing message (with wire size) to the owner,
  // which serializes and injects it into the network.
  using EmitFn = std::function<void(SproutWireMessage&&, ByteCount wire_size)>;

  SproutSender(const SproutParams& params, EmitFn emit);

  // New forecast from the receiver's feedback.
  void on_forecast(const ForecastBlock& block, TimePoint now);

  // Called each 20 ms tick: advances the forecast position, decays the
  // queue-occupancy estimate, sends whatever the window and `available`
  // callback allow, and emits a heartbeat if nothing was sent.
  // `pull` returns up to N bytes of application data.
  void tick(TimePoint now, const std::function<ByteCount(ByteCount)>& pull);

  // Current safe-to-send budget (diagnostics; tick() applies it).
  [[nodiscard]] ByteCount window_bytes(TimePoint now) const;

  // Bytes deliverable over the remaining life of the current forecast —
  // the tunnel's total-buffering bound (§4.3).
  [[nodiscard]] ByteCount forecast_life_bytes(TimePoint now) const;

  [[nodiscard]] ByteCount bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] ByteCount queue_estimate() const { return queue_estimate_; }
  [[nodiscard]] bool has_forecast() const { return have_forecast_; }

 private:
  void send_message(ByteCount wire_size, bool heartbeat,
                    std::uint32_t time_to_next_us, TimePoint now);
  [[nodiscard]] std::int64_t forecast_position(TimePoint now) const;
  [[nodiscard]] ByteCount forecast_at(std::int64_t tick_index) const;
  [[nodiscard]] std::int64_t compute_throwaway(TimePoint now) const;
  [[nodiscard]] ByteCount bytes_sent_before(TimePoint t) const;

  SproutParams params_;
  EmitFn emit_;

  ByteCount bytes_sent_ = 0;
  ByteCount queue_estimate_ = 0;

  bool have_forecast_ = false;
  ForecastBlock forecast_;
  TimePoint forecast_origin_{};
  std::int64_t drained_ticks_ = 0;  // forecast ticks already credited

  // (send time, cumulative bytes before packet) for the throwaway number.
  struct SendMark {
    TimePoint at;
    std::int64_t seqno;
  };
  std::deque<SendMark> recent_sends_;
  int idle_ticks_ = 0;              // consecutive ticks with a shut window
  bool limited_this_tick_ = false;  // no confirmed backlog this tick
  ByteCount confirmed_backlog_ = 0; // queue bytes confirmed at last forecast
};

}  // namespace sprout
