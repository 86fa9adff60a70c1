#include "runner/registry.h"

#include <stdexcept>
#include <utility>

#include "app/omniscient.h"
#include "app/video_app.h"
#include "cc/compound.h"
#include "cc/cubic.h"
#include "cc/fast.h"
#include "cc/gcc_endpoint.h"
#include "cc/ledbat.h"
#include "cc/reno.h"
#include "cc/tcp_endpoint.h"
#include "cc/vegas.h"
#include "core/endpoint.h"
#include "core/source.h"

namespace sprout {

SchemeRegistry& SchemeRegistry::instance() {
  static SchemeRegistry registry;
  return registry;
}

void SchemeRegistry::register_scheme(SchemeInfo info) {
  if (!info.make_flow) {
    throw std::invalid_argument("scheme registration without a factory: " +
                                info.name);
  }
  if (find(info.id) != nullptr) {
    throw std::invalid_argument("duplicate scheme registration: " + info.name);
  }
  schemes_.push_back(std::move(info));
}

const SchemeInfo* SchemeRegistry::find(SchemeId id) const {
  for (const SchemeInfo& s : schemes_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

const SchemeInfo& SchemeRegistry::info(SchemeId id) const {
  const SchemeInfo* s = find(id);
  if (s == nullptr) {
    throw std::invalid_argument("scheme not registered: " + to_string(id));
  }
  return *s;
}

std::vector<SchemeId> SchemeRegistry::registered() const {
  std::vector<SchemeId> ids;
  ids.reserve(schemes_.size());
  for (const SchemeInfo& s : schemes_) ids.push_back(s.id);
  return ids;
}

std::unique_ptr<MeasuredSink> make_measured(const FlowContext& ctx,
                                            PacketSink* next) {
  auto sink = next != nullptr ? std::make_unique<MeasuredSink>(ctx.sim, *next)
                              : std::make_unique<MeasuredSink>(ctx.sim);
  if (ctx.streaming_metrics != nullptr) {
    const StreamingMetricsConfig& cfg = *ctx.streaming_metrics;
    sink->metrics().enable_streaming(kDelayHistBin, kDelayHistMax, cfg.from,
                                     cfg.to);
  } else if (ctx.delay_histogram != nullptr) {
    const StreamingMetricsConfig& cfg = *ctx.delay_histogram;
    sink->metrics().enable_histogram(kDelayHistBin, kDelayHistMax, cfg.from,
                                     cfg.to);
  }
  sink->metrics().set_timeline_recorder(ctx.timeline);
  return sink;
}

namespace {

// --- Sprout family -----------------------------------------------------

class SproutFlow : public SchemeFlow {
 public:
  SproutFlow(const FlowContext& ctx, SproutVariant variant)
      : params_(ctx.sprout_params),
        flow_index_(ctx.flow_index),
        bulk_(std::make_unique<BulkDataSource>()),
        tx_(std::make_unique<SproutEndpoint>(ctx.sim, params_, variant,
                                             ctx.flow_id, bulk_.get(),
                                             SproutPeer::kFeedbackOnly)),
        rx_(std::make_unique<SproutEndpoint>(ctx.sim, params_, variant,
                                             ctx.flow_id, nullptr,
                                             SproutPeer::kSendsData)),
        measured_(make_measured(ctx, rx_.get())) {
    tx_->attach_network(ctx.forward_link);
    rx_->attach_network(ctx.reverse_link);
    // The rx_ endpoint receives the flow's data, so ITS receiver infers
    // the forward link — that forecast is the one a timeline plots
    // against the forward link's realized capacity.  tx_'s peer sends only
    // heartbeats, so tx_ runs no receiver.
    if (ctx.timeline != nullptr) {
      rx_->set_forecast_tap(ctx.timeline);
    }
  }

  PacketSink& data_egress() override { return *measured_; }
  PacketSink* feedback_egress() override { return tx_.get(); }

  void start() override {
    // Real peers are never phase-locked: stagger every clock in the fleet
    // (13 and 7 are coprime with 20, spreading phases evenly).  Flow 0
    // reproduces the single-flow phases (tx at 0, rx at 7/20 tick).
    const int f = flow_index_;
    tx_->start(params_.tick * ((f * 13) % 20) / 20);
    rx_->start(params_.tick * ((f * 13 + 7) % 20) / 20);
  }

  const FlowMetrics& metrics() const override { return measured_->metrics(); }

 private:
  SproutParams params_;
  int flow_index_;
  std::unique_ptr<BulkDataSource> bulk_;
  std::unique_ptr<SproutEndpoint> tx_;
  std::unique_ptr<SproutEndpoint> rx_;
  std::unique_ptr<MeasuredSink> measured_;
};

// --- TCP family --------------------------------------------------------

class TcpFlow : public SchemeFlow {
 public:
  TcpFlow(const FlowContext& ctx, std::unique_ptr<CongestionControl> cc)
      : tx_(std::make_unique<TcpSender>(ctx.sim, std::move(cc), ctx.flow_id,
                                        ctx.mtu)),
        rx_(std::make_unique<TcpReceiver>(ctx.sim, ctx.flow_id)),
        measured_(make_measured(ctx, rx_.get())) {
    tx_->attach_network(ctx.forward_link);
    rx_->attach_ack_path(ctx.reverse_link);
  }

  PacketSink& data_egress() override { return *measured_; }
  PacketSink* feedback_egress() override { return tx_.get(); }
  void start() override { tx_->start(); }
  const FlowMetrics& metrics() const override { return measured_->metrics(); }

 private:
  std::unique_ptr<TcpSender> tx_;
  std::unique_ptr<TcpReceiver> rx_;
  std::unique_ptr<MeasuredSink> measured_;
};

// --- Video apps --------------------------------------------------------

class VideoFlow : public SchemeFlow {
 public:
  VideoFlow(const FlowContext& ctx, const VideoProfile& profile)
      : tx_(std::make_unique<VideoSender>(ctx.sim, profile, ctx.flow_id)),
        rx_(std::make_unique<VideoReceiver>(ctx.sim, ctx.flow_id)),
        measured_(make_measured(ctx, rx_.get())) {
    tx_->attach_network(ctx.forward_link);
    rx_->attach_report_path(ctx.reverse_link);
  }

  PacketSink& data_egress() override { return *measured_; }
  PacketSink* feedback_egress() override { return tx_.get(); }

  void start() override {
    tx_->start();
    rx_->start();
  }

  const FlowMetrics& metrics() const override { return measured_->metrics(); }

 private:
  std::unique_ptr<VideoSender> tx_;
  std::unique_ptr<VideoReceiver> rx_;
  std::unique_ptr<MeasuredSink> measured_;
};

// --- GCC (WebRTC) ------------------------------------------------------

class GccFlow : public SchemeFlow {
 public:
  explicit GccFlow(const FlowContext& ctx)
      : tx_(std::make_unique<GccSender>(ctx.sim, GccProfile{}, ctx.flow_id)),
        rx_(std::make_unique<GccReceiver>(ctx.sim, GccProfile{}, ctx.flow_id)),
        measured_(make_measured(ctx, rx_.get())) {
    tx_->attach_network(ctx.forward_link);
    rx_->attach_feedback_path(ctx.reverse_link);
  }

  PacketSink& data_egress() override { return *measured_; }
  PacketSink* feedback_egress() override { return tx_.get(); }

  void start() override {
    tx_->start();
    rx_->start();
  }

  const FlowMetrics& metrics() const override { return measured_->metrics(); }

 private:
  std::unique_ptr<GccSender> tx_;
  std::unique_ptr<GccReceiver> rx_;
  std::unique_ptr<MeasuredSink> measured_;
};

// --- Omniscient baseline ------------------------------------------------

class OmniscientFlow : public SchemeFlow {
 public:
  explicit OmniscientFlow(const FlowContext& ctx)
      : run_time_(ctx.run_time),
        tx_(std::make_unique<OmniscientSender>(
            ctx.sim, ctx.forward_trace, ctx.propagation_delay, ctx.flow_id)),
        measured_(make_measured(ctx, nullptr)) {
    tx_->attach_network(ctx.forward_link);
  }

  PacketSink& data_egress() override { return *measured_; }
  PacketSink* feedback_egress() override { return nullptr; }

  void start() override {
    tx_->start(TimePoint{}, TimePoint{} + run_time_);
  }

  const FlowMetrics& metrics() const override { return measured_->metrics(); }

 private:
  Duration run_time_;
  std::unique_ptr<OmniscientSender> tx_;
  std::unique_ptr<MeasuredSink> measured_;
};

// --- registrations ------------------------------------------------------

SchemeInfo sprout_scheme(SchemeId id, SproutVariant variant) {
  SchemeInfo info;
  info.id = id;
  info.name = to_string(id);
  info.make_flow = [variant](const FlowContext& ctx) {
    return std::make_unique<SproutFlow>(ctx, variant);
  };
  return info;
}

template <typename Cc>
SchemeInfo tcp_scheme(SchemeId id, LinkAqm aqm = LinkAqm::kAuto) {
  SchemeInfo info;
  info.id = id;
  info.name = to_string(id);
  info.link_aqm = aqm;
  info.make_flow = [](const FlowContext& ctx) {
    return std::make_unique<TcpFlow>(ctx, std::make_unique<Cc>());
  };
  return info;
}

SchemeInfo video_scheme(SchemeId id, VideoProfile (*profile)()) {
  SchemeInfo info;
  info.id = id;
  info.name = to_string(id);
  info.make_flow = [profile](const FlowContext& ctx) {
    VideoProfile p = profile();
    p.max_packet_bytes = ctx.mtu;
    return std::make_unique<VideoFlow>(ctx, p);
  };
  return info;
}

// One static registrar per scheme; construction order is the registry's
// presentation order.  Adding a scheme is adding one Registrar here.
struct Registrar {
  explicit Registrar(SchemeInfo info) {
    SchemeRegistry::instance().register_scheme(std::move(info));
  }
};

const Registrar kSprout{sprout_scheme(SchemeId::kSprout,
                                      SproutVariant::kBayesian)};
const Registrar kSproutEwma{sprout_scheme(SchemeId::kSproutEwma,
                                          SproutVariant::kEwma)};
const Registrar kSproutAdaptive{sprout_scheme(SchemeId::kSproutAdaptive,
                                              SproutVariant::kAdaptive)};
const Registrar kSproutMmpp{sprout_scheme(SchemeId::kSproutMmpp,
                                          SproutVariant::kMmpp)};
const Registrar kSproutEmpirical{sprout_scheme(SchemeId::kSproutEmpirical,
                                               SproutVariant::kEmpirical)};

const Registrar kSkype{video_scheme(SchemeId::kSkype, skype_profile)};
const Registrar kFacetime{video_scheme(SchemeId::kFacetime, facetime_profile)};
const Registrar kHangout{video_scheme(SchemeId::kHangout, hangout_profile)};

const Registrar kCubic{tcp_scheme<CubicCC>(SchemeId::kCubic)};
const Registrar kReno{tcp_scheme<RenoCC>(SchemeId::kReno)};
const Registrar kVegas{tcp_scheme<VegasCC>(SchemeId::kVegas)};
const Registrar kCompound{tcp_scheme<CompoundCC>(SchemeId::kCompound)};
const Registrar kLedbat{tcp_scheme<LedbatCC>(SchemeId::kLedbat)};
const Registrar kFast{tcp_scheme<FastCC>(SchemeId::kFast)};
const Registrar kCubicCodel{
    tcp_scheme<CubicCC>(SchemeId::kCubicCodel, LinkAqm::kCoDel)};
const Registrar kCubicPie{
    tcp_scheme<CubicCC>(SchemeId::kCubicPie, LinkAqm::kPie)};

const Registrar kGcc{[] {
  SchemeInfo info;
  info.id = SchemeId::kGcc;
  info.name = to_string(SchemeId::kGcc);
  info.make_flow = [](const FlowContext& ctx) {
    return std::make_unique<GccFlow>(ctx);
  };
  return info;
}()};

const Registrar kOmniscient{[] {
  SchemeInfo info;
  info.id = SchemeId::kOmniscient;
  info.name = to_string(SchemeId::kOmniscient);
  // A clairvoyant sender per flow would let every flow claim every
  // delivery opportunity; the baseline is only defined for one flow.
  info.shared_queue_capable = false;
  info.make_flow = [](const FlowContext& ctx) {
    return std::make_unique<OmniscientFlow>(ctx);
  };
  return info;
}()};

}  // namespace
}  // namespace sprout
