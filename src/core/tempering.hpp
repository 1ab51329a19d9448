// Deterministic replica-exchange (parallel tempering) schedule.
//
// Independent annealing chains waste parallel hardware: every chain pays
// the full cool-down, and the cold ones get stuck in the first decent
// basin they find. Replica exchange runs N replicas on a temperature
// ladder and periodically swaps the *states* of adjacent rungs, so a plan
// discovered by a hot, exploratory replica can migrate down the ladder
// and be refined by the cold ones — strictly better use of the same
// iteration budget.
//
// The schedule here is built for bit-reproducibility at any worker count:
//
//   * Replicas advance in lock-step rounds of `exchange_stride`
//     iterations. Within a round no replica reads another's state, so the
//     pool may run them in any order on any number of workers.
//   * Each (replica, round) segment draws from a fresh Rng whose seed is
//     a pure function of (solve seed, replica, round) — a replica's
//     trajectory does not depend on how many iterations some worker
//     happened to run before picking it up.
//   * Exchanges happen on the calling thread at the round barrier, with
//     their own per-round seed, sweeping even pairs on even rounds and
//     odd pairs on odd rounds (the standard alternation, so information
//     can traverse the whole ladder).
//
// A round touches no shared mutable state: each replica scores its
// candidates on its own state and REG memo, and reads only immutable
// solve-wide data (the evaluator, the move units, the scale). Replica
// init runs on the calling thread before the first round, so start-plan
// evaluations through a shared EvalCache never race either.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace cast::core {

/// Round boundaries and per-segment seed derivation for one tempered
/// solve. Pure arithmetic; holds no replica state.
class TemperingSchedule {
public:
    TemperingSchedule(int iter_max, int exchange_stride, int replicas)
        : iter_max_(iter_max), stride_(exchange_stride), replicas_(replicas) {
        CAST_EXPECTS(iter_max_ >= 1);
        CAST_EXPECTS(stride_ >= 1);
        CAST_EXPECTS(replicas_ >= 1);
        rounds_ = (iter_max_ + stride_ - 1) / stride_;
    }

    [[nodiscard]] int rounds() const { return rounds_; }
    [[nodiscard]] int replicas() const { return replicas_; }

    /// Global iteration range [begin, end) of `round`; the last round is
    /// short when exchange_stride does not divide iter_max.
    [[nodiscard]] int round_begin(int round) const { return round * stride_; }
    [[nodiscard]] int round_end(int round) const {
        const int end = (round + 1) * stride_;
        return end < iter_max_ ? end : iter_max_;
    }

    /// First rung index of the adjacent-pair sweep after `round`: even
    /// rounds swap (0,1)(2,3)..., odd rounds (1,2)(3,4)... so states can
    /// walk the full ladder over consecutive rounds.
    [[nodiscard]] static int first_pair(int round) { return round % 2; }

    /// Seed of the Rng driving replica `replica` during `round`. Chained
    /// SplitMix64 so nearby (replica, round) pairs land far apart; a pure
    /// function of its inputs, which is the whole determinism argument.
    [[nodiscard]] static std::uint64_t segment_seed(std::uint64_t solve_seed,
                                                    std::uint64_t replica,
                                                    std::uint64_t round) {
        SplitMix64 sm(solve_seed ^ 0x7459aa63d82effc5ULL);
        const std::uint64_t a = sm.next();
        SplitMix64 sm2(a + 0x9e3779b97f4a7c15ULL * (replica + 1));
        const std::uint64_t b = sm2.next();
        SplitMix64 sm3(b + 0xd1b54a32d192ed03ULL * (round + 1));
        return sm3.next();
    }

    /// Seed of the Rng consuming the exchange-acceptance draws after
    /// `round`. Distinct stream from every segment seed by construction
    /// (different salt), so exchange draws never alias move draws.
    [[nodiscard]] static std::uint64_t exchange_seed(std::uint64_t solve_seed,
                                                     std::uint64_t round) {
        SplitMix64 sm(solve_seed ^ 0xb5297a4d3f84d5a3ULL);
        const std::uint64_t a = sm.next();
        SplitMix64 sm2(a + 0xd1b54a32d192ed03ULL * (round + 1));
        return sm2.next();
    }

private:
    int iter_max_;
    int stride_;
    int replicas_;
    int rounds_;
};

/// Standard replica-exchange Metropolis rule on dimensionless energies
/// (here E = -utility/u_scale, matching the annealing accept rule's
/// normalization): swap with probability min(1, exp(Δβ·ΔE)) where
/// Δβ = β_cold - β_hot and ΔE = E_cold - E_hot. `u` is the caller's
/// uniform draw — it is ALWAYS consumed (the caller draws before calling)
/// so the exchange stream stays aligned whatever the outcome.
[[nodiscard]] inline bool exchange_accept(double beta_cold, double beta_hot, double e_cold,
                                          double e_hot, double u) {
    const double log_ratio = (beta_cold - beta_hot) * (e_cold - e_hot);
    return log_ratio >= 0.0 || u < std::exp(log_ratio);
}

/// Per-solve replica-exchange statistics, exported through result structs
/// and the serve-layer MetricsRegistry ("solver.tempering.*").
struct TemperingStats {
    /// 0 when no annealing ran (greedy-only answers).
    int replicas = 0;
    /// Rounds actually executed (== schedule rounds unless the wall
    /// budget stopped the solve early).
    int rounds = 0;
    /// Per-rung exchange counters: entry r covers swaps attempted/accepted
    /// between rungs r and r+1 (replicas - 1 entries).
    std::vector<std::uint64_t> exchange_attempts;
    std::vector<std::uint64_t> exchange_accepts;
    /// Iterations each replica actually ran (budget exhaustion can stop
    /// replicas mid-ladder).
    std::vector<int> replica_iterations;

    [[nodiscard]] bool enabled() const { return replicas > 0; }
    [[nodiscard]] std::uint64_t total_attempts() const {
        std::uint64_t n = 0;
        for (std::uint64_t a : exchange_attempts) n += a;
        return n;
    }
    [[nodiscard]] std::uint64_t total_accepts() const {
        std::uint64_t n = 0;
        for (std::uint64_t a : exchange_accepts) n += a;
        return n;
    }
};

/// The replicas of one tempered solve after its last round, with the
/// ladder's statistics.
template <class Replica>
struct TemperingRun {
    std::vector<Replica> replicas;
    TemperingStats stats;
    /// True when the wall budget (or a cancellation) stopped some replica
    /// mid-round; the ladder stops at that round's barrier.
    bool budget_exhausted = false;

    /// Index of the first replica whose `best_score(replica)` is highest.
    template <class BestScore>
    [[nodiscard]] std::size_t best_replica(BestScore&& best_score) const {
        return static_cast<std::size_t>(
            std::ranges::max_element(replicas, {}, best_score) - replicas.begin());
    }
};

/// The one replica-exchange driver every annealer runs on; a single chain
/// is a one-rung ladder. `options` supplies chains (the rung count),
/// iter_max, exchange_stride, seed, initial_temperature and
/// tempering_ladder_ratio. The solver supplies the problem:
///
///   init(replica, r)               seed rung r's state (the driver then
///                                  sets its ladder temperature);
///   span(replica, rng, begin, end) run global iterations [begin, end)
///                                  and return how many ran (fewer only
///                                  when the wall budget stopped it);
///   energy(replica)                the current state's dimensionless
///                                  energy (lower is better);
///   swap(a, b)                     exchange the two replicas' current
///                                  states (bests and temperatures stay).
///
/// Replica must be default-constructible with a `double temperature`.
/// Rounds fan the replicas out over `pool` (any worker count gives the
/// same draws); exchanges run on the calling thread at each barrier.
template <class Replica, class Options, class Init, class Span, class Energy, class Swap>
[[nodiscard]] TemperingRun<Replica> run_tempering(const Options& options, ThreadPool* pool,
                                                  Init&& init, Span&& span, Energy&& energy,
                                                  Swap&& swap) {
    const auto replicas = static_cast<std::size_t>(options.chains);
    TemperingRun<Replica> run;
    run.replicas.resize(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
        init(run.replicas[r], r);
        run.replicas[r].temperature = options.initial_temperature *
                                      std::pow(options.tempering_ladder_ratio,
                                               static_cast<double>(r));
    }

    const TemperingSchedule sched(options.iter_max, options.exchange_stride, options.chains);
    TemperingStats& stats = run.stats;
    stats.replicas = options.chains;
    stats.exchange_attempts.assign(replicas - 1, 0);
    stats.exchange_accepts.assign(replicas - 1, 0);
    stats.replica_iterations.assign(replicas, 0);
    std::vector<char> stopped(replicas, 0);

    for (int round = 0; round < sched.rounds(); ++round) {
        // Within a round replicas are fully independent (per-segment Rng,
        // private state, no shared mutable structure), so the pool may
        // execute them in any order on any number of workers without
        // changing a single draw.
        const int begin = sched.round_begin(round);
        const int end = sched.round_end(round);
        auto run_one = [&](std::size_t r) {
            Rng rng(TemperingSchedule::segment_seed(options.seed, r,
                                                    static_cast<std::uint64_t>(round)));
            const int ran = span(run.replicas[r], rng, begin, end);
            stats.replica_iterations[r] += ran;
            stopped[r] = ran < end - begin ? 1 : 0;
        };
        if (pool != nullptr && replicas > 1) {
            pool->parallel_for(replicas, run_one, 1);
        } else {
            for (std::size_t r = 0; r < replicas; ++r) run_one(r);
        }
        ++stats.rounds;
        for (const char s : stopped) run.budget_exhausted = run.budget_exhausted || s != 0;
        if (run.budget_exhausted) break;
        if (round + 1 == sched.rounds()) break;
        // Exchanges: even pairs on even rounds, odd pairs on odd rounds.
        // The draw is consumed before deciding so the exchange stream
        // stays aligned whatever the outcomes.
        Rng ex(TemperingSchedule::exchange_seed(options.seed,
                                                static_cast<std::uint64_t>(round)));
        for (int p = TemperingSchedule::first_pair(round); p + 1 < options.chains; p += 2) {
            const double u = ex.uniform();
            ++stats.exchange_attempts[p];
            Replica& cold = run.replicas[p];
            Replica& hot = run.replicas[p + 1];
            if (exchange_accept(1.0 / cold.temperature, 1.0 / hot.temperature, energy(cold),
                                energy(hot), u)) {
                swap(cold, hot);
                ++stats.exchange_accepts[p];
            }
        }
    }
    return run;
}

}  // namespace cast::core
