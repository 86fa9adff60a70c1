#include "link/tower_cell.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "synth/models.h"
#include "util/rng.h"

namespace sprout {

namespace {

template <typename Process>
class ProcessChannel final : public TowerChannel {
 public:
  template <typename Params>
  ProcessChannel(const Params& params, std::uint64_t seed)
      : process_(params, seed), step_(params.step) {}

  double advance() override { return process_.advance(); }
  [[nodiscard]] Duration step() const override { return step_; }

 private:
  Process process_;
  Duration step_;
};

// The fading radio's depth (stationary SNR stddev), reversion rate and
// step, as make_fading_channel documents them.
constexpr double kFadingDepthDb = 6.0;
constexpr double kFadingReversionPerS = 0.4;
constexpr Duration kFadingStep = msec(1);

class FadingChannel final : public TowerChannel {
 public:
  FadingChannel(double mean_snr_db, std::uint64_t seed)
      : mean_snr_db_(mean_snr_db),
        rng_(seed),
        snr_db_(rng_.normal(mean_snr_db, kFadingDepthDb)) {}

  double advance() override {
    // dS = -a (S - mean) dt + sigma dW, with sigma chosen so the
    // stationary stddev is kFadingDepthDb.
    const double dt = to_seconds(kFadingStep);
    const double a = kFadingReversionPerS;
    snr_db_ += -a * (snr_db_ - mean_snr_db_) * dt +
               rng_.normal(0.0, kFadingDepthDb * std::sqrt(2.0 * a * dt));
    const double efficiency =
        std::min(std::log2(1.0 + std::pow(10.0, snr_db_ / 10.0)),
                 kMaxSpectralEfficiency);
    return kFadingBandwidthHz * efficiency /
           (8.0 * static_cast<double>(kMtuBytes));
  }
  [[nodiscard]] Duration step() const override { return kFadingStep; }

 private:
  double mean_snr_db_;
  Rng rng_;
  double snr_db_;
};

}  // namespace

std::unique_ptr<TowerChannel> make_tower_channel(const SynthSpec& channel,
                                                 std::uint64_t seed) {
  if (!channel.ops.empty()) {
    throw std::invalid_argument(
        "tower channels take no op chain (live models only)");
  }
  switch (channel.base) {
    case SynthSpec::Base::kBrownian:
      return std::make_unique<ProcessChannel<BrownianRateProcess>>(
          channel.brownian, seed);
    case SynthSpec::Base::kMarkov:
      return std::make_unique<ProcessChannel<MarkovRateProcess>>(
          channel.markov, seed);
    case SynthSpec::Base::kCox:
    case SynthSpec::Base::kPreset:
    case SynthSpec::Base::kTraceFile:
      break;
  }
  throw std::invalid_argument(
      "tower channels must be live models (brownian or markov)");
}

std::unique_ptr<TowerChannel> make_fading_channel(double mean_snr_db,
                                                  std::uint64_t seed) {
  return std::make_unique<FadingChannel>(mean_snr_db, seed);
}

TowerCell::TowerCell(TowerCellParams params) : params_(params) {
  if (params_.slot <= Duration::zero()) {
    throw std::invalid_argument("tower cell slot must be > 0");
  }
  if (params_.pf_window < params_.slot) {
    throw std::invalid_argument("tower cell pf_window must be >= slot");
  }
}

void TowerCell::add_user(std::int64_t user_id,
                         std::unique_ptr<TowerChannel> channel) {
  if (channel == nullptr) {
    throw std::invalid_argument("tower user needs a channel");
  }
  User user;
  user.channel = std::move(channel);
  user.next_advance = now_;  // first step() call draws the initial rate
  const auto [it, inserted] = users_.emplace(user_id, std::move(user));
  if (!inserted) {
    throw std::invalid_argument("duplicate tower user id: " +
                                std::to_string(user_id));
  }
}

std::vector<TimePoint> TowerCell::remove_user(std::int64_t user_id) {
  const auto it = users_.find(user_id);
  if (it == users_.end()) {
    throw std::invalid_argument("unknown tower user id: " +
                                std::to_string(user_id));
  }
  std::vector<TimePoint> opportunities = std::move(it->second.opportunities);
  users_.erase(it);
  return opportunities;
}

double TowerCell::avg_rate_pps(std::int64_t user_id) const {
  const auto it = users_.find(user_id);
  if (it == users_.end()) {
    throw std::invalid_argument("unknown tower user id: " +
                                std::to_string(user_id));
  }
  return it->second.avg_pps;
}

std::int64_t TowerCell::step() {
  if (users_.empty()) {
    now_ += params_.slot;
    return -1;
  }

  // Lazily advance each user's channel to cover this slot.  A user's rate
  // holds for one model step (typically 10x the slot), so most slots touch
  // no channel at all.
  for (auto& [id, user] : users_) {
    while (user.next_advance <= now_) {
      user.rate_pps = user.channel->advance();
      user.next_advance += user.channel->step();
    }
  }

  // Proportional-fair rule: serve argmax r_u / R_u; ties break toward the
  // smallest id (strict >, id-ordered iteration).
  std::int64_t winner = users_.begin()->first;
  double best = -1.0;
  for (const auto& [id, user] : users_) {
    const double metric = user.rate_pps / std::max(user.avg_pps, 1e-3);
    if (metric > best) {
      best = metric;
      winner = id;
    }
  }

  const double dt = to_seconds(params_.slot);
  User& served = users_.find(winner)->second;
  const ByteCount slot_bytes = static_cast<ByteCount>(
      served.rate_pps * static_cast<double>(kMtuBytes) * dt);

  // EWMA with the PF window's time constant; unserved users decay toward
  // zero so a freshly faded user regains priority within pf_window.
  const double beta = dt / to_seconds(params_.pf_window);
  for (auto& [id, user] : users_) {
    const double served_pps =
        id == winner ? static_cast<double>(slot_bytes) /
                           (static_cast<double>(kMtuBytes) * dt)
                     : 0.0;
    user.avg_pps = (1.0 - beta) * user.avg_pps + beta * served_pps;
    user.avg_pps = std::max(user.avg_pps, 1e-3);
  }

  // One delivery opportunity per completed MTU, stamped at this slot.
  served.byte_credit += slot_bytes;
  while (served.byte_credit >= kMtuBytes) {
    served.byte_credit -= kMtuBytes;
    served.opportunities.push_back(now_);
  }

  ++slots_served_;
  now_ += params_.slot;
  return winner;
}

}  // namespace sprout
