#include "tunnel/tunnel.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace sprout {

void TunnelDataSource::offer(Packet&& p) {
  assert(p.size > 0);
  queues_[p.flow_id].push_back(std::move(p));
  const Packet& stored = queues_[p.flow_id].back();
  queue_bytes_[stored.flow_id] += stored.size;
  total_bytes_ += stored.size;
  enforce_bound();
}

void TunnelDataSource::enforce_bound() {
  const ByteCount bound =
      std::max(config_.min_buffer_bytes,
               bound_provider_ ? bound_provider_() : ByteCount{0});
  while (total_bytes_ > bound) {
    // Head-drop from the longest queue (§4.3).
    std::int64_t victim = -1;
    ByteCount longest = -1;
    for (const auto& [flow, bytes] : queue_bytes_) {
      if (bytes > longest) {
        longest = bytes;
        victim = flow;
      }
    }
    if (victim < 0) break;
    std::deque<Packet>& q = queues_[victim];
    if (q.empty()) break;
    queue_bytes_[victim] -= q.front().size;
    total_bytes_ -= q.front().size;
    q.pop_front();
    ++dropped_;
  }
}

bool TunnelDataSource::has_data() const { return total_bytes_ > 0; }

ByteCount TunnelDataSource::pull(ByteCount max) {
  // Round-robin across flows with pending data, whole packets only.
  std::vector<Packet> group;
  ByteCount taken = 0;
  if (queues_.empty()) return 0;
  // Collect candidate flow ids in a stable order.
  std::vector<std::int64_t> flows;
  flows.reserve(queues_.size());
  for (const auto& [flow, q] : queues_) {
    if (!q.empty()) flows.push_back(flow);
  }
  if (flows.empty()) return 0;
  // Start after the last-served flow.
  std::size_t start = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i] > rr_cursor_) {
      start = i;
      break;
    }
  }
  std::size_t attempts = 0;
  std::size_t i = start;
  while (attempts < flows.size() * 2) {
    std::deque<Packet>& q = queues_[flows[i]];
    if (!q.empty() && q.front().size <= max - taken) {
      taken += q.front().size;
      queue_bytes_[flows[i]] -= q.front().size;
      total_bytes_ -= q.front().size;
      group.push_back(std::move(q.front()));
      q.pop_front();
      rr_cursor_ = flows[i];
    } else {
      ++attempts;
    }
    i = (i + 1) % flows.size();
    if (taken >= max) break;
  }
  if (taken > 0) pending_fills_.push_back(std::move(group));
  return taken;
}

void TunnelDataSource::fill(Packet& wire_packet, ByteCount payload_bytes) {
  (void)payload_bytes;
  if (pending_fills_.empty()) return;
  if (wire_packet.extras == nullptr) {
    wire_packet.extras = std::make_unique<Packet::Extras>();
  }
  wire_packet.extras->tunneled = std::move(pending_fills_.front());
  pending_fills_.pop_front();
}

TunnelEndpoint::TunnelEndpoint(Simulator& sim, const SproutParams& params,
                               SproutVariant variant,
                               std::int64_t tunnel_flow_id, TunnelConfig config)
    : sim_(sim),
      params_(params),
      source_(config),
      sprout_(sim, params, variant, tunnel_flow_id, &source_,
              SproutPeer::kSendsData),
      ingress_sink_(*this) {
  sprout_.set_tunnel_delivery([this](Packet&& p) { deliver(std::move(p)); });
}

void TunnelEndpoint::attach_network(PacketSink& link_ingress) {
  sprout_.attach_network(link_ingress);
}

void TunnelEndpoint::set_egress(std::int64_t client_flow_id, PacketSink& sink) {
  egress_[client_flow_id] = &sink;
}

void TunnelEndpoint::start() {
  // The buffering bound is "what the link can deliver over the remaining
  // life of the most recent forecast", read off our Sprout sender.
  source_.set_bound_provider([this]() -> ByteCount {
    return std::max<ByteCount>(0, sprout_.sender().forecast_life_bytes(sim_.now()));
  });
  sprout_.start();
}

ByteCount TunnelEndpoint::client_mtu() const {
  return params_.mtu - kWireOverhead;
}

void TunnelEndpoint::deliver(Packet&& client) {
  const auto it = egress_.find(client.flow_id);
  if (it == egress_.end()) {
    ++undeliverable_;
    return;
  }
  it->second->receive(std::move(client));
}

}  // namespace sprout
