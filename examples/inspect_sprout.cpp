// Diagnostic walkthrough of a Sprout session's internals.
//
// Runs Sprout over a constant-rate emulated link (no volatility, no
// outages) and prints, every 100 ms: the data receiver's posterior rate
// estimate, the 8-tick forecast total, and the sender's window and
// queue-occupancy estimate.  Useful both as a debugging aid and as a primer
// on how the pieces of §3 fit together.
//
//   $ ./inspect_sprout [rate_pps] [seconds] [ewma]
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/endpoint.h"
#include "core/source.h"
#include "link/cellsim.h"
#include "metrics/flow_metrics.h"
#include "sim/relay.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sprout;

  const double rate_pps = argc > 1 ? std::atof(argv[1]) : 500.0;
  const int seconds = argc > 2 ? std::atoi(argv[2]) : 10;
  const bool ewma = argc > 3 && std::strcmp(argv[3], "ewma") == 0;

  CellProcessParams link_model;
  link_model.mean_rate_pps = rate_pps;
  link_model.volatility_pps = 0.0;
  link_model.outage_hazard_per_s = 0.0;
  link_model.max_rate_pps = std::max(rate_pps, 1.0);

  Simulator sim;
  Trace fwd = generate_trace(link_model, sec(seconds + 1), 7);
  Trace rev = generate_trace(link_model, sec(seconds + 1), 8);

  RelaySink fwd_egress, rev_egress;
  CellsimLink fwd_link(sim, std::move(fwd), {}, fwd_egress);
  CellsimLink rev_link(sim, std::move(rev), {}, rev_egress);

  SproutParams params;
  BulkDataSource bulk;
  const SproutVariant variant =
      ewma ? SproutVariant::kEwma : SproutVariant::kBayesian;
  SproutEndpoint tx(sim, params, variant, 1, &bulk, SproutPeer::kFeedbackOnly);
  SproutEndpoint rx(sim, params, variant, 1, nullptr, SproutPeer::kSendsData);
  tx.attach_network(fwd_link);
  rx.attach_network(rev_link);
  MeasuredSink measured(sim, rx);
  fwd_egress.set_target(measured);
  rev_egress.set_target(tx);
  tx.start();
  rx.start(msec(7));

  std::cout << "link rate " << rate_pps << " pps ("
            << rate_pps * 12.0 << " kbps), variant "
            << (ewma ? "EWMA" : "Bayesian") << "\n\n";
  TableWriter table({"t(s)", "rx est (pps)", "F[8] (kB)", "window (kB)",
                     "queue est (kB)", "sent (kB)", "rcvd-or-lost (kB)",
                     "obs", "skip", "link queue"});
  for (int step = 1; step <= seconds * 10; ++step) {
    sim.run_until(TimePoint{} + msec(100) * step);
    if (step % 5 != 0 && step > 20) continue;
    const DeliveryForecast& f = rx.receiver().latest_forecast();
    table.row()
        .cell(static_cast<double>(step) * 0.1, 1)
        .cell(rx.receiver().estimated_rate_pps(), 0)
        .cell(f.ticks() > 0 ? static_cast<double>(f.cumulative_at(8)) / 1000.0
                            : 0.0,
              1)
        .cell(static_cast<double>(tx.sender().window_bytes(sim.now())) / 1000.0, 1)
        .cell(static_cast<double>(tx.sender().queue_estimate()) / 1000.0, 1)
        .cell(static_cast<double>(tx.sender().bytes_sent()) / 1000.0, 0)
        .cell(static_cast<double>(rx.receiver().received_or_lost_bytes()) / 1000.0, 0)
        .cell(rx.receiver().ticks_observed())
        .cell(rx.receiver().ticks_skipped())
        .cell(static_cast<std::int64_t>(fwd_link.queue_packets()));
  }
  table.print(std::cout);

  const TimePoint from = TimePoint{} + sec(1);
  const TimePoint to = TimePoint{} + sec(seconds);
  std::cout << "\nthroughput " << measured.metrics().throughput_kbps(from, to)
            << " kbps of " << rate_pps * 12.0 << " kbps; 95% delay "
            << measured.metrics().delay_percentile_ms(95.0, from, to)
            << " ms\n";
  return 0;
}
