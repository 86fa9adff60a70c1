// The self-registering scheme registry.
//
// Every transport the harness can evaluate registers a factory plus
// metadata here (registry.cc), keyed by SchemeId.  The scenario engine
// asks the registry to wire each flow, so adding a scheme means adding ONE
// registration block — the experiment core never changes.
//
// A flow factory receives a FlowContext describing where its packets go
// and returns a SchemeFlow: an owned bundle of endpoints that knows which
// sinks receive the flow's data and feedback at each end and how to start
// its clocks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/params.h"
#include "metrics/flow_metrics.h"
#include "runner/schemes.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/units.h"

namespace sprout {

// The one delay-histogram geometry.  Every streaming delay histogram a
// scenario keeps (each flow's, each tower user's, and the tower's
// population merge) has 5 ms bins up to 20 s, so a percentile read from
// bin edges is never under-reported and at most one bin high.
inline constexpr Duration kDelayHistBin = msec(5);
inline constexpr Duration kDelayHistMax = sec(20);

// When set on a FlowContext, the flow's MeasuredSink runs FlowMetrics in
// streaming mode: per-packet delays fold into a fixed-bin histogram over
// [from, to) instead of a retained delivery log.  Tower scenarios set this
// so a thousand flows cost a thousand histograms, not a thousand packet
// logs.
struct StreamingMetricsConfig {
  TimePoint from{};
  TimePoint to{};
};

// Everything a scheme needs to wire one flow into a running scenario.
struct FlowContext {
  Simulator& sim;
  SproutParams sprout_params;   // scenario confidence already applied
  std::int64_t flow_id = 1;     // demux key on both links
  int flow_index = 0;           // 0-based; staggers clock phases in fleets
  PacketSink& forward_link;     // ingress carrying this flow's data
  PacketSink& reverse_link;     // ingress carrying feedback/acks
  const Trace& forward_trace;   // ground truth (omniscient baseline scheme)
  Duration propagation_delay;
  Duration run_time;
  // Non-null => the flow's measured sink aggregates streaming metrics
  // instead of retaining delivery records (tower scenarios).
  const StreamingMetricsConfig* streaming_metrics = nullptr;
  // Non-null => the flow's measured sink ALSO maintains a streaming delay
  // histogram alongside its retained records (non-streaming topologies;
  // ignored when streaming_metrics is set, which already configures one).
  const StreamingMetricsConfig* delay_histogram = nullptr;
  // Non-null => the flow records a timeline (metrics/recorder.h): the
  // measured sink feeds deliveries and Sprout-family receivers feed their
  // forecasts.  Scenario-owned; must outlive the flow.
  FlowTimelineRecorder* timeline = nullptr;
  // Largest packet the ingresses above carry.  Derived, never set by a
  // spec: kMtuBytes, or the tunnel's client_mtu() when the flows ride
  // SproutTunnel, whose framing takes the difference.  TCP uses it as its
  // MSS and video apps as their largest packet.
  ByteCount mtu = kMtuBytes;
};

// Builds the flow's measured receiver sink, honouring
// FlowContext::streaming_metrics.  Every scheme's factory should construct
// its recorder through this helper so streaming mode applies uniformly.
[[nodiscard]] std::unique_ptr<MeasuredSink> make_measured(
    const FlowContext& ctx, PacketSink* next);

// An instantiated flow: owns its endpoints and metrics for one scenario.
class SchemeFlow {
 public:
  virtual ~SchemeFlow() = default;

  // Sink that must receive this flow's packets leaving the FORWARD link
  // (the measured receiver side).
  [[nodiscard]] virtual PacketSink& data_egress() = 0;

  // Sink that must receive this flow's packets leaving the REVERSE link
  // (feedback arriving back at the sender); null if the scheme sends none.
  [[nodiscard]] virtual PacketSink* feedback_egress() = 0;

  // Starts the flow's clocks.  Called after both links are routed.
  virtual void start() = 0;

  // §5.1 delivery records of this flow.
  [[nodiscard]] virtual const FlowMetrics& metrics() const = 0;
};

// Registry metadata + factory for one scheme.
struct SchemeInfo {
  SchemeId id = SchemeId::kSprout;
  std::string name;  // == to_string(id)
  // Whether the scheme is meaningful with N flows commingled in one queue.
  bool shared_queue_capable = true;
  // In-network queue policy the scheme requests on BOTH link directions
  // (Cubic-CoDel requests kCoDel, Cubic-PIE kPie); kAuto for schemes that
  // run over whatever the link provides.  The scenario engine reconciles
  // these requests with ScenarioSpec::link_aqm and builds the policies
  // itself (make_aqm_policy in scenario.cc).
  LinkAqm link_aqm = LinkAqm::kAuto;
  // Builds one flow.  Required.
  std::function<std::unique_ptr<SchemeFlow>(const FlowContext&)> make_flow;
};

class SchemeRegistry {
 public:
  // The process-wide registry, populated by static registrars in
  // registry.cc before main() runs.
  [[nodiscard]] static SchemeRegistry& instance();

  void register_scheme(SchemeInfo info);

  // Lookup; throws std::invalid_argument for an unregistered id.
  [[nodiscard]] const SchemeInfo& info(SchemeId id) const;
  // Lookup; nullptr for an unregistered id.
  [[nodiscard]] const SchemeInfo* find(SchemeId id) const;

  // All registered ids, in registration order.
  [[nodiscard]] std::vector<SchemeId> registered() const;

 private:
  SchemeRegistry() = default;
  std::vector<SchemeInfo> schemes_;  // registration order, small N
};

}  // namespace sprout
