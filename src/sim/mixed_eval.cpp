#include "sim/mixed_eval.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "attack/boundary_attack.h"
#include "defense/distance_filter.h"
#include "defense/pipeline.h"
#include "runtime/rng_stream.h"
#include "util/error.h"
#include "util/logging.h"

namespace pg::sim {

namespace {

/// One sanitize-and-retrain pipeline run; the unit of parallel work and
/// of memoization. `placement < 0` encodes the no-attack arm (no
/// placement knob exists there, and a negative value cannot collide with
/// a real placement in [0, 1]).
struct EvalCell {
  double placement = -1.0;
  double fraction = 0.0;
  std::size_t rep = 0;
};

std::uint64_t cell_key(std::uint64_t fingerprint, const EvalCell& cell) {
  return runtime::ContentKey()
      .mix(fingerprint)
      .mix(cell.placement)
      .mix(cell.fraction)
      .mix(static_cast<std::uint64_t>(cell.rep))
      .digest();
}

double run_cell(const ExperimentContext& ctx, const defense::Pipeline& pipeline,
                const runtime::RngStreamFactory& streams,
                std::uint64_t key, const EvalCell& cell) {
  // As in the sweep: no poison budget, no attack, no clean geometry.
  const attack::ClassRadiusMap* geometry =
      ctx.poison_budget > 0 ? &ctx.clean_geometry() : nullptr;
  defense::DistanceFilterConfig fcfg;
  fcfg.removal_fraction = cell.fraction;
  fcfg.centroid = ctx.config.centroid;
  const defense::DistanceFilter filter(fcfg, geometry);
  const defense::Filter* filter_ptr = (cell.fraction > 0.0) ? &filter : nullptr;

  // The cell's randomness is a pure function of its content key: same
  // cell -> same stream, whether it runs first, last, or from the cache.
  util::Rng rng = streams.stream(key);

  if (cell.placement < 0.0) {
    return pipeline
        .run(ctx.train(), ctx.test(), nullptr, 0, filter_ptr, rng)
        .test_accuracy;
  }

  attack::BoundaryAttackConfig acfg;
  acfg.placement_fraction = cell.placement;
  // Against a MIXED defense the optimal attack places exactly at a
  // support boundary (section 4.2): a deeper slide changes the set of
  // draws survived, which is precisely what the indifference condition
  // already prices. Depth search is the best response to a KNOWN pure
  // filter and belongs to the Fig.-1 sweep only.
  acfg.depth_offsets.clear();
  const attack::BoundaryAttack attack(acfg, geometry);
  return pipeline
      .run(ctx.train(), ctx.test(), &attack, ctx.poison_budget, filter_ptr,
           rng)
      .test_accuracy;
}

/// Domain tag of Algorithm 1 solution keys: no other key family mixes
/// this word first.
constexpr std::uint64_t kSolutionKeyTag = 0x414C4731'534F4C4EULL;  // "ALG1SOLN"

/// Everything compute_optimal_defense reads: the budget, the config and
/// both curves' knots. A ninth config field changes the struct's size,
/// so it cannot go unkeyed without this assert failing first.
std::uint64_t solution_digest(const core::PoisoningGame& game,
                              const core::Algorithm1Config& config) {
  static_assert(sizeof(core::Algorithm1Config) == 64,
                "Algorithm1Config changed: key its new field here");
  runtime::ContentKey key;
  key.mix(kSolutionKeyTag)
      .mix(static_cast<std::uint64_t>(game.poison_budget()))
      .mix(static_cast<std::uint64_t>(config.support_size))
      .mix(config.epsilon)
      .mix(static_cast<std::uint64_t>(config.max_iterations))
      .mix(config.learning_rate)
      .mix(config.fd_step)
      .mix(config.min_gap)
      .mix(config.support_floor)
      .mix(config.damage_floor);
  for (const util::PiecewiseLinear* curve :
       {&game.curves().damage_curve(), &game.curves().cost_curve()}) {
    key.mix(static_cast<std::uint64_t>(curve->size()));
    for (const double x : curve->xs()) key.mix(x);
    for (const double y : curve->ys()) key.mix(y);
  }
  return key.digest();
}

}  // namespace

core::DefenseSolution solve_defense(const core::PoisoningGame& game,
                                    const core::Algorithm1Config& config,
                                    const runtime::PayoffEvaluator& evaluator) {
  const std::size_t n = config.support_size;
  const std::uint64_t digest = solution_digest(game, config);
  const std::vector<double> values = evaluator.evaluate_cells(
      1, 2 * n + 3,
      [digest](std::size_t, std::span<std::uint64_t> keys) {
        for (std::uint64_t slot = 0; slot < keys.size(); ++slot) {
          keys[slot] = runtime::ContentKey().mix(digest).mix(slot).digest();
        }
      },
      [&](std::size_t, std::span<double> cell) {
        const core::DefenseSolution sol =
            core::compute_optimal_defense(game, config);
        PG_CHECK(sol.strategy.support_size() == n,
                 "Algorithm 1 returned a support of the wrong size");
        const auto& fractions = sol.strategy.removal_fractions();
        const auto& probabilities = sol.strategy.probabilities();
        std::copy(fractions.begin(), fractions.end(), cell.begin());
        std::copy(probabilities.begin(), probabilities.end(),
                  cell.subspan(n).begin());
        cell[2 * n] = sol.defender_loss;
        cell[2 * n + 1] = static_cast<double>(sol.iterations);
        cell[2 * n + 2] = sol.converged ? 1.0 : 0.0;
      });
  // Both paths rebuild the strategy from the cell's values. Its
  // constructor only validates, so that is the strategy the solve built.
  const double* fractions = values.data();
  const double* probabilities = fractions + n;
  return {defense::MixedDefenseStrategy(
              std::vector<double>(fractions, probabilities),
              std::vector<double>(probabilities, probabilities + n)),
          values[2 * n], {}, static_cast<std::size_t>(values[2 * n + 1]),
          values[2 * n + 2] != 0.0};
}

MixedEvalResult evaluate_mixed_defense(
    const ExperimentContext& ctx,
    const defense::MixedDefenseStrategy& strategy,
    const MixedEvalConfig& config,
    const runtime::PayoffEvaluator& evaluator) {
  PG_CHECK(config.draws >= 1, "draws must be >= 1");

  std::vector<double> placements = config.extra_placements;
  if (config.include_support_placements) {
    for (double p : strategy.removal_fractions()) placements.push_back(p);
  }
  PG_CHECK(!placements.empty(), "no attacker placements to evaluate");
  std::sort(placements.begin(), placements.end());
  placements.erase(std::unique(placements.begin(), placements.end()),
                   placements.end());

  const defense::Pipeline pipeline({ctx.config.svm});
  MixedEvalResult result;
  result.attacker_placements = placements;

  // Expected accuracy = average over the defender's mixture. Rather than
  // Monte-Carlo over the mixture we enumerate the support (it is small and
  // the probabilities are exact); `draws` controls replication per cell
  // to average out SGD noise.
  const auto& fractions = strategy.removal_fractions();
  const auto& probs = strategy.probabilities();

  // Flatten every pipeline run -- attacked arm cells ordered by
  // (placement, support point, replication), then the no-attack arm by
  // (support point, replication) -- and hand the whole batch to the
  // evaluator at once, so even a single placement saturates the pool.
  std::vector<EvalCell> cells;
  for (double placement : placements) {
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      if (probs[i] <= 0.0) continue;
      for (std::size_t rep = 0; rep < config.draws; ++rep) {
        cells.push_back({placement, fractions[i], rep});
      }
    }
  }
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    if (probs[i] <= 0.0) continue;
    for (std::size_t rep = 0; rep < config.draws; ++rep) {
      cells.push_back({-1.0, fractions[i], rep});
    }
  }

  const std::uint64_t fingerprint = context_fingerprint(ctx);
  const runtime::RngStreamFactory streams(ctx.config.seed);
  const std::vector<double> accuracies = evaluator.evaluate_cells(
      cells.size(), 1,
      [&](std::size_t c, std::span<std::uint64_t> keys) {
        keys[0] = cell_key(fingerprint, cells[c]);
      },
      [&](std::size_t c, std::span<double> value) {
        value[0] = run_cell(ctx, pipeline, streams,
                            cell_key(fingerprint, cells[c]), cells[c]);
      });

  // Deterministic reduction: walk the cells in the order they were laid
  // out, independent of how (or whether) they were computed.
  const auto draws = static_cast<double>(config.draws);
  std::size_t cursor = 0;
  for (double placement : placements) {
    double expected = 0.0;
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      if (probs[i] <= 0.0) continue;
      double acc = 0.0;
      for (std::size_t rep = 0; rep < config.draws; ++rep) {
        acc += accuracies[cursor++];
      }
      expected += probs[i] * acc / draws;
    }
    result.accuracy_by_placement.push_back(expected);
    util::log_info() << "mixed eval placement=" << placement
                     << " expected acc=" << expected;
  }

  result.adversarial_accuracy =
      *std::min_element(result.accuracy_by_placement.begin(),
                        result.accuracy_by_placement.end());

  // No-attack arm: expected Gamma cost of the mixture.
  double no_attack = 0.0;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    if (probs[i] <= 0.0) continue;
    double acc = 0.0;
    for (std::size_t rep = 0; rep < config.draws; ++rep) {
      acc += accuracies[cursor++];
    }
    no_attack += probs[i] * acc / draws;
  }
  result.no_attack_accuracy = no_attack;
  PG_ASSERT(cursor == accuracies.size(), "mixed eval cell walk out of sync");
  return result;
}

PureBenchmark best_pure_defense(const PureSweepResult& sweep) {
  PG_CHECK(!sweep.points.empty(), "best_pure_defense: empty sweep");
  PureBenchmark best{0.0, -1.0};
  for (const auto& pt : sweep.points) {
    if (pt.accuracy_attacked > best.best_accuracy) {
      best = {pt.removal_fraction, pt.accuracy_attacked};
    }
  }
  return best;
}

}  // namespace pg::sim
