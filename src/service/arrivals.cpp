#include "service/arrivals.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace prema::service {

std::string_view arrival_model_name(ArrivalModel m) {
  switch (m) {
    case ArrivalModel::kPoisson:
      return "poisson";
    case ArrivalModel::kBursty:
      return "bursty";
    case ArrivalModel::kDiurnal:
      return "diurnal";
  }
  return "?";
}

bool parse_arrival_model(std::string_view name, ArrivalModel& out) {
  if (name == "poisson") {
    out = ArrivalModel::kPoisson;
  } else if (name == "bursty") {
    out = ArrivalModel::kBursty;
  } else if (name == "diurnal") {
    out = ArrivalModel::kDiurnal;
  } else {
    return false;
  }
  return true;
}

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

// -- bursty (MMPP) ----------------------------------------------------------
constexpr double kBurstFactor = 4.0;  ///< ON-phase rate multiplier
constexpr double kIdleFactor = 0.25;  ///< OFF-phase rate multiplier
constexpr double kMeanOnS = 0.2;      ///< mean ON dwell (exponential)
constexpr double kMeanOffS = 0.6;     ///< mean OFF dwell (exponential)
/// Duty-weighted mean of the MMPP rate multiplier; dividing both phase rates
/// by it makes rate_per_proc the long-run average, as documented.
constexpr double kMmppNorm =
    (kMeanOnS * kBurstFactor + kMeanOffS * kIdleFactor) / (kMeanOnS + kMeanOffS);
static_assert(kMmppNorm > 0.0, "MMPP rate multipliers must not both be zero");

// -- diurnal ----------------------------------------------------------------
constexpr double kDiurnalPeriodS = 2.0;   ///< one full load cycle
constexpr double kDiurnalAmplitude = 0.8;  ///< in [0, 1): swing around the mean rate
static_assert(kDiurnalAmplitude >= 0.0 && kDiurnalAmplitude < 1.0,
              "diurnal amplitude must be in [0, 1)");

// -- client population ------------------------------------------------------
/// Total simulated clients across the machine; ids are partitioned into
/// contiguous per-rank ranges. Virtual — no per-client state is kept.
constexpr std::uint64_t kNumClients = 2'000'000;
/// Hot spot: kHotClientWeight of requests come from the first
/// kHotClientFraction of the rank's client range.
constexpr double kHotClientFraction = 0.04;
constexpr double kHotClientWeight = 0.35;

/// Stream seed for a rank: decorrelate the shared seed with SplitMix64 so
/// adjacent ranks do not walk correlated xoshiro states.
std::uint64_t stream_seed(std::uint64_t seed, int rank) {
  util::SplitMix64 sm(seed ^ (0xA44F1A11ULL * static_cast<std::uint64_t>(rank + 1)));
  return sm.next();
}

}  // namespace

ArrivalGenerator::ArrivalGenerator(const ArrivalConfig& cfg, int rank, int nprocs)
    : cfg_(cfg), rank_(rank), nprocs_(nprocs), rng_(stream_seed(cfg.seed, rank)) {
  PREMA_CHECK(nprocs > 0 && rank >= 0 && rank < nprocs);
  PREMA_CHECK(cfg.rate_per_proc > 0.0);
  const std::uint64_t per = kNumClients / static_cast<std::uint64_t>(nprocs);
  client_first_ = per * static_cast<std::uint64_t>(rank);
  client_count_ = per > 0 ? per : 1;
  diurnal_phase_ = kTwoPi * static_cast<double>(rank) / static_cast<double>(nprocs);
}

double ArrivalGenerator::exp_gap(double rate) {
  // Inverse-CDF exponential; 1-u keeps the argument of log strictly positive.
  return -std::log(1.0 - rng_.uniform()) / rate;
}

double ArrivalGenerator::next_gap(double now) {
  switch (cfg_.model) {
    case ArrivalModel::kPoisson:
      return exp_gap(cfg_.rate_per_proc);

    case ArrivalModel::kBursty: {
      // Two-state MMPP: walk exponential phase dwells, accumulating gap time
      // at the phase-appropriate rate until an arrival lands inside a phase.
      double gap = 0.0;
      for (;;) {
        if (phase_left_s_ <= 0.0) {
          burst_on_ = !burst_on_;
          phase_left_s_ = exp_gap(1.0 / (burst_on_ ? kMeanOnS : kMeanOffS));
        }
        const double rate = cfg_.rate_per_proc / kMmppNorm *
                            (burst_on_ ? kBurstFactor : kIdleFactor);
        const double g = exp_gap(rate);
        if (g <= phase_left_s_) {
          phase_left_s_ -= g;
          return gap + g;
        }
        gap += phase_left_s_;
        phase_left_s_ = 0.0;
      }
    }

    case ArrivalModel::kDiurnal: {
      // Thinning (Lewis-Shedler): draw candidates at the peak rate and accept
      // with probability rate(t)/peak. The per-rank phase offset rotates the
      // load crest around the machine over one diurnal period.
      const double peak = cfg_.rate_per_proc * (1.0 + kDiurnalAmplitude);
      double t = now;
      for (;;) {
        t += exp_gap(peak);
        const double rate =
            cfg_.rate_per_proc *
            (1.0 + kDiurnalAmplitude *
                       std::sin(kTwoPi * t / kDiurnalPeriodS + diurnal_phase_));
        if (rng_.uniform() * peak <= rate) return t - now;
      }
    }
  }
  return exp_gap(cfg_.rate_per_proc);
}

Arrival ArrivalGenerator::next_arrival() {
  Arrival a;
  // Hot prefix: a fixed share of traffic concentrates on the first few
  // percent of this rank's client range.
  const auto hot = static_cast<std::uint64_t>(
      kHotClientFraction * static_cast<double>(client_count_));
  if (hot > 0 && rng_.chance(kHotClientWeight)) {
    a.client = client_first_ + rng_.below(hot);
  } else {
    a.client = client_first_ + rng_.below(client_count_);
  }
  // Bimodal cost: light exponential body plus a heavy tail of multiplied
  // requests — the irregular-granularity mix the balancer must absorb.
  const double light = -cfg_.cost_mean_mflop * std::log(1.0 - rng_.uniform());
  a.cost_mflop = rng_.chance(cfg_.heavy_fraction) ? light * cfg_.heavy_mult : light;
  return a;
}

}  // namespace prema::service
