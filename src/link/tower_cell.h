// A cell tower serving a churning population of users — the §2.1
// proportional-fair base station.
//
// "The base station schedules data transmissions taking both per-user
// (proportional) fairness and channel quality into consideration [3].
// Typically, each user's device is scheduled for a fixed time slice over
// which a variable number of payload bits may be sent, depending on the
// channel conditions, and users are scheduled in roughly round-robin
// fashion."  (§2.1, citing the 1xEV-DO scheduler.)
//
// Each slot TowerCell serves argmax(instantaneous rate / PF-average rate),
// credits the winner's bytes and emits one delivery opportunity per
// completed MTU.  Each user's instantaneous rate comes from its own
// TowerChannel: a synth/ rate process (Brownian or Markov, the live
// models), or a first-principles fading radio (make_fading_channel).
// Users arrive and depart mid-run.  Departed users cost nothing: their
// state is erased, and the scheduler's per-slot work is O(active users).
//
// Determinism: users are stored in id order and every tie in the PF metric
// breaks toward the smallest id, so a tower run is a pure function of its
// channel seeds and churn timeline, bit-identical on any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "synth/synth.h"
#include "trace/trace.h"
#include "util/units.h"

namespace sprout {

// One user's radio channel: a stepwise rate process the cell advances
// lazily (a user's rate holds for one model step, typically 20 ms, across
// many scheduler slots).
class TowerChannel {
 public:
  virtual ~TowerChannel() = default;

  // Advances one model step and returns the rate holding in it, in
  // MTU-sized packets per second.
  virtual double advance() = 0;

  // The model step the returned rate holds for.
  [[nodiscard]] virtual Duration step() const = 0;
};

// Builds a live channel from a synth spec with `seed` substituted for the
// spec's own.  Throws std::invalid_argument unless the spec is a pure live
// model (brownian or markov, no op chain) — the tower never materializes a
// trace to apply ops to.
[[nodiscard]] std::unique_ptr<TowerChannel> make_tower_channel(
    const SynthSpec& channel, std::uint64_t seed);

// The fading radio's shared channel bandwidth, and its 64-QAM cap on
// spectral efficiency: real modulation tops out well below Shannon at
// high SNR.
inline constexpr double kFadingBandwidthHz = 5e6;
inline constexpr double kMaxSpectralEfficiency = 6.0;  // bit/s/Hz

// A first-principles user channel.  Its SNR in dB walks as an
// Ornstein-Uhlenbeck process around `mean_snr_db`: fades 6 dB deep
// (stationary stddev) that revert at 0.4/s — slow, like a walking user —
// starting from a draw of the stationary distribution and advanced every
// 1 ms.  Each step's rate is the Shannon bound
// kFadingBandwidthHz * min(log2(1 + SNR), kMaxSpectralEfficiency) bits/s,
// returned in MTU-sized packets per second.  Traces a TowerCell schedules
// over these users do NOT come from the Cox process Sprout's filter
// assumes (bench/ablation_pfcell).
[[nodiscard]] std::unique_ptr<TowerChannel> make_fading_channel(
    double mean_snr_db, std::uint64_t seed);

struct TowerCellParams {
  Duration slot = msec(2);          // scheduler TTI: one user served per slot
  Duration pf_window = msec(1500);  // EWMA horizon of the PF average
};

class TowerCell {
 public:
  explicit TowerCell(TowerCellParams params);

  // Attaches a user; the channel's first step begins at the current slot.
  // Throws std::invalid_argument on a duplicate id.
  void add_user(std::int64_t user_id, std::unique_ptr<TowerChannel> channel);

  // Detaches a user, returning the delivery opportunities it accumulated.
  // Throws std::invalid_argument for an unknown id.
  std::vector<TimePoint> remove_user(std::int64_t user_id);

  // Advances one slot: lazily advances channels whose model step elapsed,
  // serves the PF winner, updates every active user's PF average.  Returns
  // the served user's id, or -1 when no user is attached.
  std::int64_t step();

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] int active_users() const {
    return static_cast<int>(ids_.size());
  }
  [[nodiscard]] std::int64_t slots_served() const { return slots_served_; }

  // Current PF-average rate of an attached user (tests).
  [[nodiscard]] double avg_rate_pps(std::int64_t user_id) const;

 private:
  // Index of an attached user in the arrays below; throws
  // std::invalid_argument for an unknown id.
  [[nodiscard]] std::size_t index_of(std::int64_t user_id) const;

  TowerCellParams params_;
  // One entry per attached user, in parallel arrays sorted by id, so the
  // per-slot passes run over contiguous memory and iteration (and PF
  // tie-breaking) is in id order.
  std::vector<std::int64_t> ids_;
  std::vector<std::unique_ptr<TowerChannel>> channels_;
  std::vector<TimePoint> next_advance_;  // when the held rate expires
  std::vector<double> rate_pps_;
  std::vector<double> avg_pps_;  // PF average, floored away from zero
  std::vector<ByteCount> byte_credit_;
  std::vector<std::vector<TimePoint>> opportunities_;
  TimePoint now_{};
  std::int64_t slots_served_ = 0;
};

}  // namespace sprout
