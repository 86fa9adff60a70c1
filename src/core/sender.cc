#include "core/sender.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace sprout {

namespace {
// Before the first forecast arrives the sender paces itself to a modest
// fixed allowance per tick (the paper does not specify a startup phase).
constexpr ByteCount kStartupPacketsPerTick = 20;
// Ticks of closed window (with data waiting) before a probe burst goes out,
// and the burst size.
constexpr int kProbeAfterIdleTicks = 5;
constexpr std::int64_t kProbePackets = 5;
// Bytes sent within this window are assumed still in flight (2 x the 20 ms
// propagation delay); anything older and unaccounted is sitting in a queue.
constexpr Duration kInflightWindow = msec(40);
}  // namespace

SproutSender::SproutSender(const SproutParams& params, EmitFn emit)
    : params_(params), emit_(std::move(emit)) {
  assert(emit_ && "sender needs an emit callback");
}

void SproutSender::on_forecast(const ForecastBlock& block,
                               TimePoint /*now*/) {
  const TimePoint origin = TimePoint{} + usec(block.origin_us);
  if (have_forecast_ && origin <= forecast_origin_) return;  // stale
  forecast_ = block;
  forecast_origin_ = origin;
  have_forecast_ = true;
  // Estimated backlog: everything sent that the receiver has not yet
  // received or written off.  Bytes still in flight count as queued, which
  // errs on the cautious side.
  queue_estimate_ = std::max<ByteCount>(0, bytes_sent_ - block.received_or_lost_bytes);
  // received_or_lost was measured AT THE ORIGIN of this forecast, so the
  // drain credits must start from tick 0 of the forecast: the link kept
  // delivering while the feedback was in flight, and those deliveries are
  // in neither the received count nor (yet) the decrements.  Crediting from
  // the current position instead would undercount drain by ~2 ticks every
  // cycle and ratchet the window toward zero.
  drained_ticks_ = 0;
  // Confirmed backlog AT THE ORIGIN: bytes sent early enough to have
  // reached the queue by then (one propagation delay before the origin)
  // that the receiver still had not seen.  This is the sender-limited /
  // link-limited classifier for the receiver's censored observations.
  const ByteCount should_have_arrived =
      bytes_sent_before(origin - params_.assumed_propagation);
  confirmed_backlog_ = std::max<ByteCount>(
      0, should_have_arrived - block.received_or_lost_bytes);
}

std::int64_t SproutSender::forecast_position(TimePoint now) const {
  if (!have_forecast_) return 0;
  return std::max<std::int64_t>(0, (now - forecast_origin_) / params_.tick);
}

ByteCount SproutSender::forecast_at(std::int64_t tick_index) const {
  if (!have_forecast_ || tick_index <= 0) return 0;
  const auto& cum = forecast_.cumulative_bytes;
  if (cum.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      std::min<std::int64_t>(tick_index, static_cast<std::int64_t>(cum.size())));
  return static_cast<ByteCount>(cum[idx - 1]);
}

ByteCount SproutSender::window_bytes(TimePoint now) const {
  if (!have_forecast_) {
    return kStartupPacketsPerTick * params_.mtu;
  }
  const std::int64_t pos = forecast_position(now);
  const std::int64_t look = pos + params_.sender_lookahead_ticks;
  // "Anything left over is safe to send": expected drain across the
  // lookahead minus what is already sitting in the queue (§3.5, Fig. 4).
  return forecast_at(look) - forecast_at(pos) - queue_estimate_;
}

ByteCount SproutSender::forecast_life_bytes(TimePoint now) const {
  if (!have_forecast_) return 0;
  const std::int64_t pos = forecast_position(now);
  const auto horizon =
      static_cast<std::int64_t>(forecast_.cumulative_bytes.size());
  return forecast_at(horizon) - forecast_at(pos);
}

std::int64_t SproutSender::compute_throwaway(TimePoint now) const {
  const TimePoint cutoff = now - params_.throwaway_window;
  std::int64_t result = 0;
  for (const SendMark& mark : recent_sends_) {
    if (mark.at <= cutoff) {
      result = mark.seqno;
    } else {
      break;
    }
  }
  return result;
}

ByteCount SproutSender::bytes_sent_before(TimePoint t) const {
  // seqno of a mark == cumulative bytes before that packet; the newest mark
  // at or before t gives (almost) everything sent by t.
  ByteCount before = 0;
  for (const SendMark& mark : recent_sends_) {
    if (mark.at <= t) {
      before = mark.seqno;
    } else {
      break;
    }
  }
  return before;
}

void SproutSender::send_message(ByteCount wire_size, bool heartbeat,
                                std::uint32_t time_to_next_us, TimePoint now) {
  SproutWireMessage msg;
  msg.header.seqno = bytes_sent_;
  msg.header.payload_bytes = static_cast<std::int32_t>(
      std::max<ByteCount>(0, wire_size - kWireOverhead));
  msg.header.throwaway = compute_throwaway(now);
  msg.header.time_to_next_us = time_to_next_us;
  if (heartbeat) msg.header.flags |= SproutHeader::kFlagHeartbeat;
  if (limited_this_tick_) msg.header.flags |= SproutHeader::kFlagSenderLimited;

  recent_sends_.push_back(SendMark{now, bytes_sent_});
  // Prune marks no longer needed by the throwaway boundary or the
  // sent-before-origin lookup (forecast staleness is bounded by a few
  // ticks; 200 ms is a comfortable horizon): keep the newest mark at or
  // before the cutoff and everything after it.
  const TimePoint cutoff = now - msec(200);
  while (recent_sends_.size() > 1 && recent_sends_[1].at <= cutoff) {
    recent_sends_.pop_front();
  }

  bytes_sent_ += wire_size;
  queue_estimate_ += wire_size;
  emit_(std::move(msg), wire_size);
}

void SproutSender::tick(TimePoint now,
                        const std::function<ByteCount(ByteCount)>& pull) {
  // Credit the queue drain the forecast promised for the ticks that have
  // elapsed since the forecast arrived ("every time it advances into a new
  // tick of the 8-tick forecast, it decrements the estimate", §3.5).
  if (have_forecast_) {
    const std::int64_t pos = forecast_position(now);
    while (drained_ticks_ < pos) {
      const ByteCount drain =
          forecast_at(drained_ticks_ + 1) - forecast_at(drained_ticks_);
      queue_estimate_ = std::max<ByteCount>(0, queue_estimate_ - drain);
      ++drained_ticks_;
    }
  }

  ByteCount window = window_bytes(now);
  const std::uint32_t tick_us =
      static_cast<std::uint32_t>(params_.tick.count());
  const ByteCount payload_capacity = params_.mtu - kWireOverhead;
  // Decide once per tick whether this tick's transmissions are
  // sender-limited: the last confirmed look at the queue found less than a
  // couple of packets waiting (a single stale packet or heartbeat must not
  // flip the classification to "link-limited").
  limited_this_tick_ = confirmed_backlog_ < 2 * params_.mtu;
  // Pull the whole flight first so the LAST packet actually sent can carry
  // a time-to-next declaration when one is warranted.
  std::vector<ByteCount> flight;
  while (window >= params_.mtu) {
    const ByteCount payload = pull ? pull(payload_capacity) : 0;
    if (payload <= 0) break;
    const ByteCount wire = payload + kWireOverhead;
    flight.push_back(wire);
    window -= wire;
  }
  // "For a flight of several packets, the time-to-next will be zero for all
  // but the last packet" (§3.2): the last packet of the tick's flight
  // promises that the next transmission is one tick away.
  for (std::size_t i = 0; i < flight.size(); ++i) {
    const bool last = i + 1 == flight.size();
    send_message(flight[i], /*heartbeat=*/false, last ? tick_us : 0, now);
  }
  if (flight.empty()) {
    ++idle_ticks_;
    // Zero-window probe (the analog of TCP's persist timer): if the window
    // has been shut for a while, the pipe has drained, and the application
    // still has data, send a startup-sized burst.  A starved filter whose
    // forecast has collapsed can only recover from fresh link evidence, and
    // a burst of several packets moves the posterior where a lone packet
    // cannot; without this, a closed window and a frozen belief deadlock.
    if (idle_ticks_ >= kProbeAfterIdleTicks && pull &&
        queue_estimate_ < params_.mtu) {
      std::int64_t sent = 0;
      for (; sent < kProbePackets; ++sent) {
        const ByteCount payload = pull(payload_capacity);
        if (payload <= 0) break;
        const bool last = sent + 1 == kProbePackets;
        send_message(payload + kWireOverhead, /*heartbeat=*/false,
                     last ? tick_us : 0, now);
      }
      if (sent > 0) idle_ticks_ = 0;
    }
    if (idle_ticks_ > 0) {
      // Idle: heartbeat so the receiver can distinguish an empty queue
      // from an outage.
      send_message(params_.heartbeat_bytes, /*heartbeat=*/true, tick_us, now);
    }
  } else {
    idle_ticks_ = 0;
  }
}

}  // namespace sprout
