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
  // Ids rise with arrival time in practice, so this is an append.
  const auto at = std::lower_bound(ids_.begin(), ids_.end(), user_id);
  if (at != ids_.end() && *at == user_id) {
    throw std::invalid_argument("duplicate tower user id: " +
                                std::to_string(user_id));
  }
  const auto i = at - ids_.begin();
  ids_.insert(at, user_id);
  channels_.insert(channels_.begin() + i, std::move(channel));
  // The first step() call draws the initial rate.
  next_advance_.insert(next_advance_.begin() + i, now_);
  rate_pps_.insert(rate_pps_.begin() + i, 0.0);
  avg_pps_.insert(avg_pps_.begin() + i, 1.0);
  byte_credit_.insert(byte_credit_.begin() + i, 0);
  opportunities_.emplace(opportunities_.begin() + i);
}

std::size_t TowerCell::index_of(std::int64_t user_id) const {
  const auto at = std::lower_bound(ids_.begin(), ids_.end(), user_id);
  if (at == ids_.end() || *at != user_id) {
    throw std::invalid_argument("unknown tower user id: " +
                                std::to_string(user_id));
  }
  return static_cast<std::size_t>(at - ids_.begin());
}

std::vector<TimePoint> TowerCell::remove_user(std::int64_t user_id) {
  const std::size_t u = index_of(user_id);
  std::vector<TimePoint> opportunities = std::move(opportunities_[u]);
  const auto i = static_cast<std::ptrdiff_t>(u);
  ids_.erase(ids_.begin() + i);
  channels_.erase(channels_.begin() + i);
  next_advance_.erase(next_advance_.begin() + i);
  rate_pps_.erase(rate_pps_.begin() + i);
  avg_pps_.erase(avg_pps_.begin() + i);
  byte_credit_.erase(byte_credit_.begin() + i);
  opportunities_.erase(opportunities_.begin() + i);
  return opportunities;
}

double TowerCell::avg_rate_pps(std::int64_t user_id) const {
  return avg_pps_[index_of(user_id)];
}

std::int64_t TowerCell::step() {
  const std::size_t n = ids_.size();
  if (n == 0) {
    now_ += params_.slot;
    return -1;
  }

  // Lazily advance each user's channel to cover this slot.  A user's rate
  // holds for one model step (typically 10x the slot), so most slots touch
  // no channel at all.
  for (std::size_t u = 0; u < n; ++u) {
    while (next_advance_[u] <= now_) {
      rate_pps_[u] = channels_[u]->advance();
      next_advance_[u] += channels_[u]->step();
    }
  }

  // Proportional-fair rule: serve argmax r_u / R_u; ties break toward the
  // smallest id (strict >, id-ordered arrays).
  std::size_t winner = 0;
  double best = -1.0;
  for (std::size_t u = 0; u < n; ++u) {
    const double metric = rate_pps_[u] / std::max(avg_pps_[u], 1e-3);
    if (metric > best) {
      best = metric;
      winner = u;
    }
  }

  const double dt = to_seconds(params_.slot);
  const ByteCount slot_bytes = static_cast<ByteCount>(
      rate_pps_[winner] * static_cast<double>(kMtuBytes) * dt);

  // EWMA with the PF window's time constant; unserved users decay toward
  // zero so a freshly faded user regains priority within pf_window.
  const double beta = dt / to_seconds(params_.pf_window);
  const double winner_pps =
      static_cast<double>(slot_bytes) / (static_cast<double>(kMtuBytes) * dt);
  for (std::size_t u = 0; u < n; ++u) {
    const double served_pps = u == winner ? winner_pps : 0.0;
    const double avg = (1.0 - beta) * avg_pps_[u] + beta * served_pps;
    avg_pps_[u] = std::max(avg, 1e-3);
  }

  // One delivery opportunity per completed MTU, stamped at this slot.
  ByteCount& credit = byte_credit_[winner];
  credit += slot_bytes;
  while (credit >= kMtuBytes) {
    credit -= kMtuBytes;
    opportunities_[winner].push_back(now_);
  }

  ++slots_served_;
  now_ += params_.slot;
  return ids_[winner];
}

}  // namespace sprout
