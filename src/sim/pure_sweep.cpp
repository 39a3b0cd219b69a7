#include "sim/pure_sweep.h"

#include <cstdint>
#include <span>

#include "attack/boundary_attack.h"
#include "defense/distance_filter.h"
#include "defense/pipeline.h"
#include "obs/trace.h"
#include "runtime/rng_stream.h"
#include "util/error.h"
#include "util/logging.h"

namespace pg::sim {

std::vector<double> sweep_grid(double max_fraction, std::size_t steps) {
  PG_CHECK(max_fraction > 0.0 && max_fraction < 1.0,
           "max_fraction must be in (0, 1)");
  PG_CHECK(steps >= 2, "steps must be >= 2");
  std::vector<double> grid(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    grid[i] =
        max_fraction * static_cast<double>(i) / static_cast<double>(steps - 1);
  }
  return grid;
}

namespace {

/// A cell's three measurements, in sub-key order: no-attack accuracy,
/// attacked accuracy, share of poison survived.
constexpr std::size_t kCellWidth = 3;

/// Distinguishes pure-sweep cache keys from every other key family that
/// shares a PayoffCache (mixed-eval cells mix a different word sequence).
constexpr std::uint64_t kSweepKeyTag = 0x50555245'53575045ULL;  // "PURESWPE"

/// Keys of a cell's three measurements: a base covering everything they
/// depend on -- the context, the filter strength, the grid index (the
/// RNG stream is keyed by index, so the same fraction at a different grid
/// position is a different cell) and the replication -- extended by the
/// measurement's sub-key 0/1/2.
void sweep_cell_keys(std::uint64_t fingerprint, double fraction,
                     std::size_t gi, std::size_t rep,
                     std::span<std::uint64_t> keys) {
  runtime::ContentKey base;
  base.mix(kSweepKeyTag)
      .mix(fingerprint)
      .mix(fraction)
      .mix(static_cast<std::uint64_t>(gi))
      .mix(static_cast<std::uint64_t>(rep));
  for (std::uint64_t arm = 0; arm < keys.size(); ++arm) {
    keys[arm] = runtime::ContentKey(base).mix(arm).digest();
  }
}

/// Run both arms of one cell at filter strength p on the cell's stream.
void measure_cell(const ExperimentContext& ctx,
                  const defense::Pipeline& pipeline, double p,
                  const util::Rng& rng, std::span<double> cell) {
  // A context with no poison budget never attacks, so it never needs the
  // clean geometry.
  const attack::ClassRadiusMap* geometry =
      ctx.poison_budget > 0 ? &ctx.clean_geometry() : nullptr;
  defense::DistanceFilterConfig fcfg;
  fcfg.removal_fraction = p;
  fcfg.centroid = ctx.config.centroid;
  const defense::DistanceFilter filter(fcfg, geometry);
  const defense::Filter* filter_ptr = (p > 0.0) ? &filter : nullptr;

  // No-attack arm: Gamma measurement.
  util::Rng rng_clean = rng.fork(1);
  cell[0] =
      pipeline.run(ctx.train(), ctx.test(), nullptr, 0, filter_ptr, rng_clean)
          .test_accuracy;

  // Attacked arm: the optimal pure attack against a known filter p.
  attack::BoundaryAttackConfig acfg;
  acfg.placement_fraction = p;
  const attack::BoundaryAttack attack(acfg, geometry);
  util::Rng rng_attack = rng.fork(2);
  const auto res = pipeline.run(ctx.train(), ctx.test(), &attack,
                                ctx.poison_budget, filter_ptr, rng_attack);
  cell[1] = res.test_accuracy;
  cell[2] = 1.0 - res.detection.recall;
}

/// Serial reduction in a fixed order, so the floating-point sums are
/// identical no matter how the cells were scheduled.
void reduce_points(const std::vector<double>& grid, std::size_t replications,
                   const std::vector<double>& cells,
                   PureSweepResult& result) {
  const auto reps = static_cast<double>(replications);
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    PureSweepPoint point;
    point.removal_fraction = grid[gi];
    for (std::size_t rep = 0; rep < replications; ++rep) {
      const double* cell = &cells[(gi * replications + rep) * kCellWidth];
      point.accuracy_no_attack += cell[0];
      point.accuracy_attacked += cell[1];
      point.poison_survived_fraction += cell[2];
    }
    point.accuracy_no_attack /= reps;
    point.accuracy_attacked /= reps;
    point.poison_survived_fraction /= reps;
    result.points.push_back(point);
    util::log_info() << "sweep p=" << point.removal_fraction
                     << " clean=" << point.accuracy_no_attack
                     << " attacked=" << point.accuracy_attacked;
  }
}

}  // namespace

PureSweepResult run_pure_sweep(const ExperimentContext& ctx,
                               const std::vector<double>& grid,
                               std::size_t replications,
                               const runtime::PayoffEvaluator& evaluator) {
  PG_CHECK(!grid.empty(), "run_pure_sweep: empty grid");
  PG_CHECK(replications >= 1, "replications must be >= 1");

  const defense::Pipeline pipeline({ctx.config.svm});
  PureSweepResult result;
  result.clean_accuracy = ctx.clean_accuracy;
  result.poison_budget = ctx.poison_budget;

  // One cell per (grid point, replication). Every cell draws its
  // randomness from a stream keyed by its own id, so results do not
  // depend on which thread runs which cell, or in what order -- and a
  // cached cell is by definition the value the cell would recompute.
  const std::uint64_t fingerprint = context_fingerprint(ctx);
  const runtime::RngStreamFactory streams(ctx.config.seed);
  const std::vector<double> cells = evaluator.evaluate_cells(
      grid.size() * replications, kCellWidth,
      [&](std::size_t c, std::span<std::uint64_t> keys) {
        const std::size_t gi = c / replications;
        sweep_cell_keys(fingerprint, grid[gi], gi, c % replications, keys);
      },
      [&](std::size_t c, std::span<double> cell) {
        obs::Span span("sweep_cell", "payoff");
        const std::size_t gi = c / replications;
        measure_cell(ctx, pipeline, grid[gi],
                     streams.stream(gi, c % replications), cell);
      });

  reduce_points(grid, replications, cells, result);
  return result;
}

}  // namespace pg::sim
