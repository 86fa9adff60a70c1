// A full Sprout session endpoint.
//
// The paper keeps one model per direction (Fig. 3: "a Sprout session
// maintains this model separately in each direction"), because each
// direction's forecast paces that direction's sender.  So an endpoint runs
// a sender, pacing data out of the attached source under the window
// computed from the peer's forecast, and — for a direction that carries
// data — a receiver inferring the incoming link's rate and forecasting
// deliveries.  Every outgoing packet piggybacks the local receiver's latest
// forecast; when the sender is idle the heartbeat doubles as the feedback
// packet.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/params.h"
#include "core/receiver.h"
#include "core/sender.h"
#include "core/source.h"
#include "core/strategy.h"
#include "metrics/recorder.h"
#include "sim/packet.h"
#include "sim/simulator.h"

namespace sprout {

enum class SproutVariant {
  kBayesian,   // the paper's filter + cautious forecast
  kEwma,       // §5.3 ablation: smoothed rate, no caution
  kAdaptive,   // §3.1 extension: online model averaging over (σ, λz)
  kMmpp,       // §7 extension: regime-switching (MMPP) link model
  kEmpirical,  // §7 extension: windowed empirical-quantile forecasts
};

// What the peer endpoint sends: data, or only feedback heartbeats.
enum class SproutPeer {
  kFeedbackOnly,  // no data source: one heartbeat per tick, whatever its
                  // window
  kSendsData,
};

class SproutEndpoint : public PacketSink {
 public:
  // `source` may be null (pure receiver/feedback endpoint).  `peer` says
  // whether the other end has a data source.  A kFeedbackOnly peer's
  // heartbeats are the same whatever forecast reaches it, so this endpoint
  // builds no forecast strategy, runs no receiver tick and attaches no
  // forecast block to its packets; it still hands the peer's forecast
  // blocks to its own sender.
  SproutEndpoint(Simulator& sim, const SproutParams& params,
                 SproutVariant variant, std::int64_t flow_id,
                 DataSource* source, SproutPeer peer);

  SproutEndpoint(const SproutEndpoint&) = delete;
  SproutEndpoint& operator=(const SproutEndpoint&) = delete;

  // Where outgoing packets go (the link ingress).  Must be set before
  // start().
  void attach_network(PacketSink& out) { network_ = &out; }

  // Optional flight-recorder tap (metrics/recorder.h; scenario-owned, must
  // outlive the endpoint).  After every receiver tick the cautious
  // estimate's horizon-average delivery rate is recorded, so timelines can
  // plot "what the forecast believed" against what the channel delivered.
  // Pure observation: the forecast is read, never altered.  Needs a
  // receiver (a kSendsData peer).
  void set_forecast_tap(FlowTimelineRecorder* recorder) {
    assert(receiver_.has_value() && "a forecast tap needs a receiver");
    forecast_tap_ = recorder;
  }

  // Begins the 20 ms tick loop.  `phase` offsets this endpoint's tick
  // boundaries; real peers' clocks are never phase-locked, and a simulated
  // metronome alignment creates knife-edge observation artifacts.
  void start(Duration phase = Duration::zero());

  // Packets arriving from the network.
  void receive(Packet&& p) override;

  // Delivery hook for encapsulated client packets (SproutTunnel egress).
  void set_tunnel_delivery(std::function<void(Packet&&)> fn) {
    tunnel_delivery_ = std::move(fn);
  }

  // Throws std::bad_optional_access when the peer is kFeedbackOnly.
  [[nodiscard]] const SproutReceiver& receiver() const {
    return receiver_.value();
  }
  [[nodiscard]] const SproutSender& sender() const { return sender_; }
  [[nodiscard]] std::int64_t malformed_packets() const { return malformed_; }

 private:
  void tick();
  void emit(SproutWireMessage&& msg, ByteCount wire_size);
  [[nodiscard]] static std::unique_ptr<ForecastStrategy> make_strategy(
      const SproutParams& params, SproutVariant variant);

  Simulator& sim_;
  SproutParams params_;
  std::optional<SproutReceiver> receiver_;  // absent for a kFeedbackOnly peer
  SproutSender sender_;
  DataSource* source_;
  PacketSink* network_ = nullptr;
  FlowTimelineRecorder* forecast_tap_ = nullptr;
  std::function<void(Packet&&)> tunnel_delivery_;
  std::int64_t flow_id_;
  std::int64_t malformed_ = 0;
  bool started_ = false;
};

}  // namespace sprout
