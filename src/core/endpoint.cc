#include "core/endpoint.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/adaptive.h"
#include "core/alt_models.h"

namespace sprout {

std::unique_ptr<ForecastStrategy> SproutEndpoint::make_strategy(
    const SproutParams& params, SproutVariant variant) {
  switch (variant) {
    case SproutVariant::kEwma:
      return make_ewma_strategy(params);
    case SproutVariant::kAdaptive:
      return make_adaptive_strategy(params);
    case SproutVariant::kMmpp:
      return make_mmpp_strategy(params);
    case SproutVariant::kEmpirical:
      return make_empirical_strategy(params);
    case SproutVariant::kBayesian:
      break;
  }
  return make_bayesian_strategy(params);
}

SproutEndpoint::SproutEndpoint(Simulator& sim, const SproutParams& params,
                               SproutVariant variant, std::int64_t flow_id,
                               DataSource* source, SproutPeer peer)
    : sim_(sim),
      params_(params),
      sender_(params,
              [this](SproutWireMessage&& msg, ByteCount wire) {
                emit(std::move(msg), wire);
              }),
      source_(source),
      flow_id_(flow_id) {
  if (peer == SproutPeer::kSendsData) {
    receiver_.emplace(params, make_strategy(params, variant));
  }
}

void SproutEndpoint::start(Duration phase) {
  assert(network_ != nullptr && "attach_network before start");
  assert(!started_);
  started_ = true;
  sim_.after(params_.tick + phase, [this] { tick(); });
}

void SproutEndpoint::tick() {
  // Receiver first so the forecast piggybacked on this tick's packets is
  // computed from everything that has arrived so far.
  if (receiver_.has_value()) {
    receiver_->tick(sim_.now());
    if (forecast_tap_ != nullptr) {
      const DeliveryForecast& f = receiver_->latest_forecast();
      if (f.ticks() > 0) {
        forecast_tap_->record_forecast(
            sim_.now(), kbps(f.cumulative_bytes.back(), f.tick * f.ticks()));
      }
    }
  }
  sender_.tick(sim_.now(), [this](ByteCount max) {
    return source_ != nullptr ? source_->pull(max) : 0;
  });
  sim_.after(params_.tick, [this] { tick(); });
}

void SproutEndpoint::emit(SproutWireMessage&& msg, ByteCount wire_size) {
  // Piggyback the local receiver's forecast (§3.4) once one exists.
  if (receiver_.has_value() && receiver_->latest_forecast().ticks() > 0) {
    const DeliveryForecast& f = receiver_->latest_forecast();
    ForecastBlock block;
    block.received_or_lost_bytes = receiver_->received_or_lost_bytes();
    block.origin_us = f.origin.time_since_epoch().count();
    block.tick_us = static_cast<std::uint32_t>(f.tick.count());
    block.cumulative_bytes.reserve(f.cumulative_bytes.size());
    for (ByteCount b : f.cumulative_bytes) {
      block.cumulative_bytes.push_back(
          static_cast<std::uint32_t>(std::min<ByteCount>(b, 0xffffffff)));
    }
    msg.forecast = std::move(block);
  }
  Packet p;
  p.flow_id = flow_id_;
  p.size = wire_size;
  p.sent_at = sim_.now();
  // Pooled extras: reuse a recycled box and its payload capacity instead
  // of fresh heap allocations per packet (sim/packet_pool.h).
  p.extras = sim_.pool().acquire();
  serialize_into(msg, p.extras->payload);
  if (msg.header.payload_bytes > 0 && source_ != nullptr) {
    source_->fill(p, msg.header.payload_bytes);
  }
  network_->receive(std::move(p));
}

void SproutEndpoint::receive(Packet&& p) {
  const std::optional<SproutWireMessage> msg =
      p.extras != nullptr ? parse(p.extras->payload) : std::nullopt;
  if (!msg.has_value()) {
    ++malformed_;
    return;
  }
  if (receiver_.has_value()) receiver_->on_packet(*msg, p.size, sim_.now());
  if (msg->forecast.has_value()) {
    sender_.on_forecast(*msg->forecast, sim_.now());
  }
  if (tunnel_delivery_) {
    for (Packet& client : p.extras->tunneled) {
      tunnel_delivery_(std::move(client));
    }
  }
  // The extras die here; hand the box and its capacity back to the pool
  // for the next emit().
  sim_.pool().recycle(std::move(p.extras));
}

}  // namespace sprout
