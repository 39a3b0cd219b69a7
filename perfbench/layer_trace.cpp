// Per-layer timing for the traced twins of pg_run and pg_serve.
//
// The benchmark links this file into pg_run_traced / pg_serve_traced with
// one `-Wl,--wrap=<symbol>` per entry point below (CMakeLists.txt scans
// this file for PB_WRAP labels). Every call the engine makes into a
// wrapped public function from another translation unit lands in a
// wrapper here, which times it and forwards to the real function, so the
// engine runs unmodified and in its own order. Virtual calls cannot be
// interposed at link time, so the Pipeline::run/prepare wrappers hand the
// real function timing decorators around the attack and the filter.
//
// Each thread keeps a stack of open calls; a call's SELF time is its time
// minus the wrapped calls nested in it on the same thread. Totals are
// process-wide atomics. When $PERFBENCH_TRACE_OUT is set, the totals are
// written there as JSON at process exit, and SIGUSR1 zeroes them (the
// benchmark sends it once a daemon's setup is done). A `__real_` symbol
// is weak: if a later tree renames a wrapped function, the traced binary
// still links and that layer simply reads zero calls.
#include <signal.h>
#include <sys/stat.h>
#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "core/equilibrium.h"
#include "core/game_model.h"
#include "data/loader.h"
#include "data/scaler.h"
#include "defense/filter.h"
#include "defense/pipeline.h"
#include "game/solvers.h"
#include "ml/batch_trainer.h"
#include "ml/metrics.h"
#include "ml/svm.h"
#include "runtime/payoff_disk_cache.h"
#include "scenario/engine.h"
#include "scenario/result.h"
#include "sim/curve_fit.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"

#define PB_REAL(sym) __asm__("__real_" #sym) __attribute__((weak))
#define PB_WRAP(sym) __asm__("__wrap_" #sym)

using namespace pg;

namespace {

enum Layer : std::size_t {
  kCorpus,
  kScale,
  kPrepare,
  kSweep,
  kMixedEval,
  kFit,
  kAttack,
  kFilter,
  kTrain,
  kEval,
  kDiskLoad,
  kDiskStore,
  kAlgorithm1,
  kDiscretize,
  kLp,
  kFp,
  kHedge,
  kRun,
  kSerialize,
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "data.corpus",   "data.scale",       "sim.prepare",     "sim.sweep",
    "sim.mixed_eval", "sim.fit",         "attack.generate", "defense.filter",
    "ml.train",      "ml.eval",          "runtime.disk_load", "runtime.disk_store",
    "core.algorithm1", "game.discretize", "game.lp",        "game.fp",
    "game.hedge",    "scenario.run",     "scenario.serialize"};

enum Counter : std::size_t {
  kTrainUpdates,   // epochs x rows, summed over every SGD solve
  kA1Iterations,   // DefenseSolution::iterations
  kLpPivots,       // Equilibrium::iterations of LP solves
  kIterIterations, // Equilibrium::iterations of fictitious play + Hedge
  kDiskBytes,      // shard file bytes after each load/save
  kCounterCount
};

constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "ml.updates", "core.algorithm1_iterations", "game.lp_pivots",
    "game.iterations", "runtime.disk_bytes"};

struct LayerTotals {
  std::atomic<std::uint64_t> wall_ns{0};
  std::atomic<std::uint64_t> cpu_ns{0};
  std::atomic<std::uint64_t> calls{0};
};

std::array<LayerTotals, kLayerCount> g_layers;
std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters{};

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void count(Counter counter, std::uint64_t amount) {
  g_counters[counter].fetch_add(amount, std::memory_order_relaxed);
}

/// One open wrapped call on this thread. Frames nest strictly (RAII), so
/// a thread-local pointer to the innermost one is the whole stack.
class Frame {
 public:
  explicit Frame(Layer layer)
      : layer_(layer), parent_(t_top), wall_(wall_now_ns()),
        cpu_(thread_cpu_ns()) {
    t_top = this;
  }
  ~Frame() {
    const std::uint64_t wall = wall_now_ns() - wall_;
    const std::uint64_t cpu = thread_cpu_ns() - cpu_;
    LayerTotals& totals = g_layers[layer_];
    totals.wall_ns.fetch_add(wall > child_wall_ ? wall - child_wall_ : 0,
                             std::memory_order_relaxed);
    totals.cpu_ns.fetch_add(cpu > child_cpu_ ? cpu - child_cpu_ : 0,
                            std::memory_order_relaxed);
    totals.calls.fetch_add(1, std::memory_order_relaxed);
    if (parent_ != nullptr) {
      parent_->child_wall_ += wall;
      parent_->child_cpu_ += cpu;
    }
    t_top = parent_;
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

 private:
  static thread_local Frame* t_top;

  Layer layer_;
  Frame* parent_;
  std::uint64_t wall_;
  std::uint64_t cpu_;
  std::uint64_t child_wall_ = 0;
  std::uint64_t child_cpu_ = 0;
};

thread_local Frame* Frame::t_top = nullptr;

void reset_totals(int) {
  for (LayerTotals& totals : g_layers) {
    totals.wall_ns.store(0, std::memory_order_relaxed);
    totals.cpu_ns.store(0, std::memory_order_relaxed);
    totals.calls.store(0, std::memory_order_relaxed);
  }
  for (auto& counter : g_counters) counter.store(0, std::memory_order_relaxed);
}

/// Installs the reset signal on start-up and writes the totals at exit.
struct TraceFile {
  TraceFile() {
    if (std::getenv("PERFBENCH_TRACE_OUT") != nullptr) {
      ::signal(SIGUSR1, &reset_totals);
    }
  }
  ~TraceFile() {
    const char* path = std::getenv("PERFBENCH_TRACE_OUT");
    if (path == nullptr) return;
    std::ofstream out(path, std::ios::trunc);
    out << "{\"layers\": {";
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      out << (i > 0 ? ", " : "") << "\"" << kLayerNames[i]
          << "\": {\"wall_ns\": " << g_layers[i].wall_ns.load()
          << ", \"cpu_ns\": " << g_layers[i].cpu_ns.load()
          << ", \"calls\": " << g_layers[i].calls.load() << "}";
    }
    out << "}, \"counters\": {";
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      out << (i > 0 ? ", " : "") << "\"" << kCounterNames[i]
          << "\": " << g_counters[i].load();
    }
    out << "}}\n";
  }
};

const TraceFile g_trace_file;

std::uint64_t file_bytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

class TimedAttack final : public attack::PoisoningAttack {
 public:
  explicit TimedAttack(const attack::PoisoningAttack& inner) : inner_(inner) {}
  data::Dataset generate(const data::Dataset& clean, std::size_t n_points,
                         util::Rng& rng) const override {
    const Frame frame(kAttack);
    return inner_.generate(clean, n_points, rng);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const attack::PoisoningAttack& inner_;
};

class TimedFilter final : public defense::Filter {
 public:
  explicit TimedFilter(const defense::Filter& inner) : inner_(inner) {}
  defense::FilterResult apply(const data::Dataset& train,
                              util::Rng& rng) const override {
    const Frame frame(kFilter);
    return inner_.apply(train, rng);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const defense::Filter& inner_;
};

/// Calls `real(attack', filter')` with each non-null pointer replaced by
/// its timing decorator.
template <typename Real>
auto with_timed(const attack::PoisoningAttack* attack,
                const defense::Filter* filter, Real real) {
  std::optional<TimedAttack> timed_attack;
  std::optional<TimedFilter> timed_filter;
  if (attack != nullptr) timed_attack.emplace(*attack);
  if (filter != nullptr) timed_filter.emplace(*filter);
  return real(timed_attack ? &*timed_attack : nullptr,
              timed_filter ? &*timed_filter : nullptr);
}

}  // namespace

// ------------------------------------------------------------------ data
data::CorpusInfo real_corpus(const std::vector<std::string>&,
                             const data::SpambaseLikeConfig&, util::Rng&)
    PB_REAL(_ZN2pg4data25load_or_generate_spambaseERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS7_EERKNS0_18SpambaseLikeConfigERNS_4util3RngE);
data::CorpusInfo wrap_corpus(const std::vector<std::string>&,
                             const data::SpambaseLikeConfig&, util::Rng&)
    PB_WRAP(_ZN2pg4data25load_or_generate_spambaseERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS7_EERKNS0_18SpambaseLikeConfigERNS_4util3RngE);
data::CorpusInfo wrap_corpus(const std::vector<std::string>& paths,
                             const data::SpambaseLikeConfig& config,
                             util::Rng& rng) {
  const Frame frame(kCorpus);
  return real_corpus(paths, config, rng);
}

void real_scaler_fit(data::StandardScaler*, const data::Dataset&)
    PB_REAL(_ZN2pg4data14StandardScaler3fitERKNS0_7DatasetE);
void wrap_scaler_fit(data::StandardScaler*, const data::Dataset&)
    PB_WRAP(_ZN2pg4data14StandardScaler3fitERKNS0_7DatasetE);
void wrap_scaler_fit(data::StandardScaler* self, const data::Dataset& d) {
  const Frame frame(kScale);
  real_scaler_fit(self, d);
}

data::Dataset real_scaler_transform(const data::StandardScaler*,
                                    const data::Dataset&)
    PB_REAL(_ZNK2pg4data14StandardScaler9transformERKNS0_7DatasetE);
data::Dataset wrap_scaler_transform(const data::StandardScaler*,
                                    const data::Dataset&)
    PB_WRAP(_ZNK2pg4data14StandardScaler9transformERKNS0_7DatasetE);
data::Dataset wrap_scaler_transform(const data::StandardScaler* self,
                                    const data::Dataset& d) {
  const Frame frame(kScale);
  return real_scaler_transform(self, d);
}

// ------------------------------------------------------------------- sim
sim::ExperimentContext real_prepare(const sim::ExperimentConfig&)
    PB_REAL(_ZN2pg3sim18prepare_experimentERKNS0_16ExperimentConfigE);
sim::ExperimentContext wrap_prepare(const sim::ExperimentConfig&)
    PB_WRAP(_ZN2pg3sim18prepare_experimentERKNS0_16ExperimentConfigE);
sim::ExperimentContext wrap_prepare(const sim::ExperimentConfig& config) {
  const Frame frame(kPrepare);
  return real_prepare(config);
}

sim::PureSweepResult real_sweep(const sim::ExperimentContext&,
                                const std::vector<double>&, std::size_t,
                                runtime::Executor*, runtime::PayoffCache*,
                                sim::PureSweepStats*,
                                const sim::RetrainKernel*)
    PB_REAL(_ZN2pg3sim14run_pure_sweepERKNS0_17ExperimentContextERKSt6vectorIdSaIdEEmPNS_7runtime8ExecutorEPNS9_11PayoffCacheEPNS0_14PureSweepStatsEPKNS0_13RetrainKernelE);
sim::PureSweepResult wrap_sweep(const sim::ExperimentContext&,
                                const std::vector<double>&, std::size_t,
                                runtime::Executor*, runtime::PayoffCache*,
                                sim::PureSweepStats*,
                                const sim::RetrainKernel*)
    PB_WRAP(_ZN2pg3sim14run_pure_sweepERKNS0_17ExperimentContextERKSt6vectorIdSaIdEEmPNS_7runtime8ExecutorEPNS9_11PayoffCacheEPNS0_14PureSweepStatsEPKNS0_13RetrainKernelE);
sim::PureSweepResult wrap_sweep(const sim::ExperimentContext& ctx,
                                const std::vector<double>& grid,
                                std::size_t replications,
                                runtime::Executor* executor,
                                runtime::PayoffCache* cache,
                                sim::PureSweepStats* stats,
                                const sim::RetrainKernel* kernel) {
  const Frame frame(kSweep);
  return real_sweep(ctx, grid, replications, executor, cache, stats, kernel);
}

sim::MixedEvalResult real_mixed_exec(const sim::ExperimentContext&,
                                     const defense::MixedDefenseStrategy&,
                                     const sim::MixedEvalConfig&,
                                     runtime::Executor*)
    PB_REAL(_ZN2pg3sim22evaluate_mixed_defenseERKNS0_17ExperimentContextERKNS_7defense20MixedDefenseStrategyERKNS0_15MixedEvalConfigEPNS_7runtime8ExecutorE);
sim::MixedEvalResult wrap_mixed_exec(const sim::ExperimentContext&,
                                     const defense::MixedDefenseStrategy&,
                                     const sim::MixedEvalConfig&,
                                     runtime::Executor*)
    PB_WRAP(_ZN2pg3sim22evaluate_mixed_defenseERKNS0_17ExperimentContextERKNS_7defense20MixedDefenseStrategyERKNS0_15MixedEvalConfigEPNS_7runtime8ExecutorE);
sim::MixedEvalResult wrap_mixed_exec(
    const sim::ExperimentContext& ctx,
    const defense::MixedDefenseStrategy& strategy,
    const sim::MixedEvalConfig& config, runtime::Executor* executor) {
  const Frame frame(kMixedEval);
  return real_mixed_exec(ctx, strategy, config, executor);
}

sim::MixedEvalResult real_mixed_eval(const sim::ExperimentContext&,
                                     const defense::MixedDefenseStrategy&,
                                     const sim::MixedEvalConfig&,
                                     const runtime::PayoffEvaluator&)
    PB_REAL(_ZN2pg3sim22evaluate_mixed_defenseERKNS0_17ExperimentContextERKNS_7defense20MixedDefenseStrategyERKNS0_15MixedEvalConfigERKNS_7runtime15PayoffEvaluatorE);
sim::MixedEvalResult wrap_mixed_eval(const sim::ExperimentContext&,
                                     const defense::MixedDefenseStrategy&,
                                     const sim::MixedEvalConfig&,
                                     const runtime::PayoffEvaluator&)
    PB_WRAP(_ZN2pg3sim22evaluate_mixed_defenseERKNS0_17ExperimentContextERKNS_7defense20MixedDefenseStrategyERKNS0_15MixedEvalConfigERKNS_7runtime15PayoffEvaluatorE);
sim::MixedEvalResult wrap_mixed_eval(
    const sim::ExperimentContext& ctx,
    const defense::MixedDefenseStrategy& strategy,
    const sim::MixedEvalConfig& config,
    const runtime::PayoffEvaluator& evaluator) {
  const Frame frame(kMixedEval);
  return real_mixed_eval(ctx, strategy, config, evaluator);
}

core::PayoffCurves real_fit(const sim::PureSweepResult&)
    PB_REAL(_ZN2pg3sim17fit_payoff_curvesERKNS0_15PureSweepResultE);
core::PayoffCurves wrap_fit(const sim::PureSweepResult&)
    PB_WRAP(_ZN2pg3sim17fit_payoff_curvesERKNS0_15PureSweepResultE);
core::PayoffCurves wrap_fit(const sim::PureSweepResult& sweep) {
  const Frame frame(kFit);
  return real_fit(sweep);
}

// ------------------------------------------------- attack + defense (virtual)
defense::PipelineResult real_pipeline_run(const defense::Pipeline*,
                                          const data::Dataset&,
                                          const data::Dataset&,
                                          const attack::PoisoningAttack*,
                                          std::size_t, const defense::Filter*,
                                          util::Rng&)
    PB_REAL(_ZNK2pg7defense8Pipeline3runERKNS_4data7DatasetES5_PKNS_6attack15PoisoningAttackEmPKNS0_6FilterERNS_4util3RngE);
defense::PipelineResult wrap_pipeline_run(const defense::Pipeline*,
                                          const data::Dataset&,
                                          const data::Dataset&,
                                          const attack::PoisoningAttack*,
                                          std::size_t, const defense::Filter*,
                                          util::Rng&)
    PB_WRAP(_ZNK2pg7defense8Pipeline3runERKNS_4data7DatasetES5_PKNS_6attack15PoisoningAttackEmPKNS0_6FilterERNS_4util3RngE);
defense::PipelineResult wrap_pipeline_run(
    const defense::Pipeline* self, const data::Dataset& clean,
    const data::Dataset& test, const attack::PoisoningAttack* attack,
    std::size_t poison_points, const defense::Filter* filter, util::Rng& rng) {
  return with_timed(attack, filter, [&](const attack::PoisoningAttack* a,
                                        const defense::Filter* f) {
    return real_pipeline_run(self, clean, test, a, poison_points, f, rng);
  });
}

defense::Pipeline::Prepared real_pipeline_prepare(
    const defense::Pipeline*, const data::Dataset&, const data::Dataset&,
    const attack::PoisoningAttack*, std::size_t, const defense::Filter*,
    util::Rng&)
    PB_REAL(_ZNK2pg7defense8Pipeline7prepareERKNS_4data7DatasetES5_PKNS_6attack15PoisoningAttackEmPKNS0_6FilterERNS_4util3RngE);
defense::Pipeline::Prepared wrap_pipeline_prepare(
    const defense::Pipeline*, const data::Dataset&, const data::Dataset&,
    const attack::PoisoningAttack*, std::size_t, const defense::Filter*,
    util::Rng&)
    PB_WRAP(_ZNK2pg7defense8Pipeline7prepareERKNS_4data7DatasetES5_PKNS_6attack15PoisoningAttackEmPKNS0_6FilterERNS_4util3RngE);
defense::Pipeline::Prepared wrap_pipeline_prepare(
    const defense::Pipeline* self, const data::Dataset& clean,
    const data::Dataset& test, const attack::PoisoningAttack* attack,
    std::size_t poison_points, const defense::Filter* filter, util::Rng& rng) {
  return with_timed(attack, filter, [&](const attack::PoisoningAttack* a,
                                        const defense::Filter* f) {
    return real_pipeline_prepare(self, clean, test, a, poison_points, f, rng);
  });
}

// -------------------------------------------------------------------- ml
ml::LinearModel real_svm_train(const ml::SvmTrainer*, const data::Dataset&,
                               util::Rng&)
    PB_REAL(_ZNK2pg2ml10SvmTrainer5trainERKNS_4data7DatasetERNS_4util3RngE);
ml::LinearModel wrap_svm_train(const ml::SvmTrainer*, const data::Dataset&,
                               util::Rng&)
    PB_WRAP(_ZNK2pg2ml10SvmTrainer5trainERKNS_4data7DatasetERNS_4util3RngE);
ml::LinearModel wrap_svm_train(const ml::SvmTrainer* self,
                               const data::Dataset& train, util::Rng& rng) {
  const Frame frame(kTrain);
  count(kTrainUpdates, self->config().epochs * train.size());
  return real_svm_train(self, train, rng);
}

std::vector<ml::LinearModel> real_batch_train(const ml::BatchedLinearTrainer*,
                                              const ml::SvmConfig&,
                                              std::vector<ml::BatchCell>&)
    PB_REAL(_ZNK2pg2ml20BatchedLinearTrainer9train_svmERKNS0_9SvmConfigERSt6vectorINS0_9BatchCellESaIS6_EE);
std::vector<ml::LinearModel> wrap_batch_train(const ml::BatchedLinearTrainer*,
                                              const ml::SvmConfig&,
                                              std::vector<ml::BatchCell>&)
    PB_WRAP(_ZNK2pg2ml20BatchedLinearTrainer9train_svmERKNS0_9SvmConfigERSt6vectorINS0_9BatchCellESaIS6_EE);
std::vector<ml::LinearModel> wrap_batch_train(
    const ml::BatchedLinearTrainer* self, const ml::SvmConfig& config,
    std::vector<ml::BatchCell>& cells) {
  const Frame frame(kTrain);
  for (const ml::BatchCell& cell : cells) {
    if (cell.train != nullptr) {
      count(kTrainUpdates, config.epochs * cell.train->size());
    }
  }
  return real_batch_train(self, config, cells);
}

double real_accuracy(const ml::LinearModel&, const data::Dataset&)
    PB_REAL(_ZN2pg2ml8accuracyERKNS0_11LinearModelERKNS_4data7DatasetE);
double wrap_accuracy(const ml::LinearModel&, const data::Dataset&)
    PB_WRAP(_ZN2pg2ml8accuracyERKNS0_11LinearModelERKNS_4data7DatasetE);
double wrap_accuracy(const ml::LinearModel& model, const data::Dataset& d) {
  const Frame frame(kEval);
  return real_accuracy(model, d);
}

// --------------------------------------------------------------- runtime
std::size_t real_disk_load(const runtime::DiskPayoffCache*, std::uint64_t,
                           runtime::PayoffCache&)
    PB_REAL(_ZNK2pg7runtime15DiskPayoffCache4loadEmRNS0_11PayoffCacheE);
std::size_t wrap_disk_load(const runtime::DiskPayoffCache*, std::uint64_t,
                           runtime::PayoffCache&)
    PB_WRAP(_ZNK2pg7runtime15DiskPayoffCache4loadEmRNS0_11PayoffCacheE);
std::size_t wrap_disk_load(const runtime::DiskPayoffCache* self,
                           std::uint64_t shard, runtime::PayoffCache& into) {
  std::size_t entries = 0;
  {
    const Frame frame(kDiskLoad);
    entries = real_disk_load(self, shard, into);
  }
  count(kDiskBytes, file_bytes(self->shard_path(shard)));
  return entries;
}

std::size_t real_disk_save(const runtime::DiskPayoffCache*, std::uint64_t,
                           const runtime::PayoffCache&)
    PB_REAL(_ZNK2pg7runtime15DiskPayoffCache4saveEmRKNS0_11PayoffCacheE);
std::size_t wrap_disk_save(const runtime::DiskPayoffCache*, std::uint64_t,
                           const runtime::PayoffCache&)
    PB_WRAP(_ZNK2pg7runtime15DiskPayoffCache4saveEmRKNS0_11PayoffCacheE);
std::size_t wrap_disk_save(const runtime::DiskPayoffCache* self,
                           std::uint64_t shard,
                           const runtime::PayoffCache& cache) {
  std::size_t entries = 0;
  {
    const Frame frame(kDiskStore);
    entries = real_disk_save(self, shard, cache);
  }
  count(kDiskBytes, file_bytes(self->shard_path(shard)));
  return entries;
}

// ------------------------------------------------------------ core + game
core::DefenseSolution real_algorithm1(const core::PoisoningGame&,
                                      const core::Algorithm1Config&,
                                      runtime::Executor*)
    PB_REAL(_ZN2pg4core23compute_optimal_defenseERKNS0_13PoisoningGameERKNS0_16Algorithm1ConfigEPNS_7runtime8ExecutorE);
core::DefenseSolution wrap_algorithm1(const core::PoisoningGame&,
                                      const core::Algorithm1Config&,
                                      runtime::Executor*)
    PB_WRAP(_ZN2pg4core23compute_optimal_defenseERKNS0_13PoisoningGameERKNS0_16Algorithm1ConfigEPNS_7runtime8ExecutorE);
core::DefenseSolution wrap_algorithm1(const core::PoisoningGame& game,
                                      const core::Algorithm1Config& config,
                                      runtime::Executor* executor) {
  const Frame frame(kAlgorithm1);
  core::DefenseSolution solution = real_algorithm1(game, config, executor);
  count(kA1Iterations, solution.iterations);
  return solution;
}

game::MatrixGame real_discretize(const core::PoisoningGame*, std::size_t,
                                 std::size_t, runtime::Executor*)
    PB_REAL(_ZNK2pg4core13PoisoningGame10discretizeEmmPNS_7runtime8ExecutorE);
game::MatrixGame wrap_discretize(const core::PoisoningGame*, std::size_t,
                                 std::size_t, runtime::Executor*)
    PB_WRAP(_ZNK2pg4core13PoisoningGame10discretizeEmmPNS_7runtime8ExecutorE);
game::MatrixGame wrap_discretize(const core::PoisoningGame* self,
                                 std::size_t attacker_grid,
                                 std::size_t defender_grid,
                                 runtime::Executor* executor) {
  const Frame frame(kDiscretize);
  return real_discretize(self, attacker_grid, defender_grid, executor);
}

game::Equilibrium real_lp(const game::MatrixGame&, runtime::Executor*,
                          const game::LpConfig&)
    PB_REAL(_ZN2pg4game20solve_lp_equilibriumERKNS0_10MatrixGameEPNS_7runtime8ExecutorERKNS0_8LpConfigE);
game::Equilibrium wrap_lp(const game::MatrixGame&, runtime::Executor*,
                          const game::LpConfig&)
    PB_WRAP(_ZN2pg4game20solve_lp_equilibriumERKNS0_10MatrixGameEPNS_7runtime8ExecutorERKNS0_8LpConfigE);
game::Equilibrium wrap_lp(const game::MatrixGame& g, runtime::Executor* executor,
                          const game::LpConfig& config) {
  const Frame frame(kLp);
  game::Equilibrium eq = real_lp(g, executor, config);
  count(kLpPivots, eq.iterations);
  return eq;
}

game::Equilibrium real_fp(const game::MatrixGame&,
                          const game::IterativeConfig&, runtime::Executor*)
    PB_REAL(_ZN2pg4game21solve_fictitious_playERKNS0_10MatrixGameERKNS0_15IterativeConfigEPNS_7runtime8ExecutorE);
game::Equilibrium wrap_fp(const game::MatrixGame&,
                          const game::IterativeConfig&, runtime::Executor*)
    PB_WRAP(_ZN2pg4game21solve_fictitious_playERKNS0_10MatrixGameERKNS0_15IterativeConfigEPNS_7runtime8ExecutorE);
game::Equilibrium wrap_fp(const game::MatrixGame& g,
                          const game::IterativeConfig& config,
                          runtime::Executor* executor) {
  const Frame frame(kFp);
  game::Equilibrium eq = real_fp(g, config, executor);
  count(kIterIterations, eq.iterations);
  return eq;
}

game::Equilibrium real_hedge(const game::MatrixGame&,
                             const game::IterativeConfig&, runtime::Executor*)
    PB_REAL(_ZN2pg4game28solve_multiplicative_weightsERKNS0_10MatrixGameERKNS0_15IterativeConfigEPNS_7runtime8ExecutorE);
game::Equilibrium wrap_hedge(const game::MatrixGame&,
                             const game::IterativeConfig&, runtime::Executor*)
    PB_WRAP(_ZN2pg4game28solve_multiplicative_weightsERKNS0_10MatrixGameERKNS0_15IterativeConfigEPNS_7runtime8ExecutorE);
game::Equilibrium wrap_hedge(const game::MatrixGame& g,
                             const game::IterativeConfig& config,
                             runtime::Executor* executor) {
  const Frame frame(kHedge);
  game::Equilibrium eq = real_hedge(g, config, executor);
  count(kIterIterations, eq.iterations);
  return eq;
}

// -------------------------------------------------------------- scenario
scenario::ScenarioResult real_run(const scenario::ScenarioSpec&)
    PB_REAL(_ZN2pg8scenario12run_scenarioERKNS0_12ScenarioSpecE);
scenario::ScenarioResult wrap_run(const scenario::ScenarioSpec&)
    PB_WRAP(_ZN2pg8scenario12run_scenarioERKNS0_12ScenarioSpecE);
scenario::ScenarioResult wrap_run(const scenario::ScenarioSpec& spec) {
  const Frame frame(kRun);
  return real_run(spec);
}

scenario::ScenarioResult real_run_shared(const scenario::ScenarioSpec&,
                                         scenario::EngineContext&)
    PB_REAL(_ZN2pg8scenario12run_scenarioERKNS0_12ScenarioSpecERNS0_13EngineContextE);
scenario::ScenarioResult wrap_run_shared(const scenario::ScenarioSpec&,
                                         scenario::EngineContext&)
    PB_WRAP(_ZN2pg8scenario12run_scenarioERKNS0_12ScenarioSpecERNS0_13EngineContextE);
scenario::ScenarioResult wrap_run_shared(const scenario::ScenarioSpec& spec,
                                         scenario::EngineContext& context) {
  const Frame frame(kRun);
  return real_run_shared(spec, context);
}

void real_write_json(const scenario::ScenarioResult&, std::ostream&)
    PB_REAL(_ZN2pg8scenario10write_jsonERKNS0_14ScenarioResultERSo);
void wrap_write_json(const scenario::ScenarioResult&, std::ostream&)
    PB_WRAP(_ZN2pg8scenario10write_jsonERKNS0_14ScenarioResultERSo);
void wrap_write_json(const scenario::ScenarioResult& result, std::ostream& out) {
  const Frame frame(kSerialize);
  real_write_json(result, out);
}

void real_write_result(const scenario::ScenarioResult&, const std::string&,
                       std::ostream&)
    PB_REAL(_ZN2pg8scenario12write_resultERKNS0_14ScenarioResultERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERSo);
void wrap_write_result(const scenario::ScenarioResult&, const std::string&,
                       std::ostream&)
    PB_WRAP(_ZN2pg8scenario12write_resultERKNS0_14ScenarioResultERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERSo);
void wrap_write_result(const scenario::ScenarioResult& result,
                       const std::string& format, std::ostream& out) {
  const Frame frame(kSerialize);
  real_write_result(result, format, out);
}
