// Shared setup for the paper-reproduction benches: the full-size corpus
// and the paper's experimental protocol, with environment overrides for
// quick runs:
//   PG_BENCH_INSTANCES  corpus size        (default 4601, the paper's)
//   PG_BENCH_EPOCHS     SVM epochs         (default 300; the paper trains
//                       5000 epochs of unscaled SGD -- our standardized
//                       Pegasos reaches its accuracy plateau much earlier,
//                       verified by SvmTest.MoreEpochsDoNotHurtObjective)
//   PG_BENCH_SEED       experiment seed    (default 42)
//   PG_BENCH_REPS       sweep replications (default 2)
//   PG_BENCH_THREADS    runtime executor threads (default 0 = all cores;
//                       1 = serial). Results are bit-identical at every
//                       setting -- the runtime's determinism contract.
#pragma once

#include <iostream>
#include <memory>
#include <string>

#include "runtime/executor.h"
#include "sim/experiment.h"
#include "util/env.h"

namespace pg::bench {

// The env parsing itself lives in util/env.h, shared with the scenario
// engine; the alias keeps the historical pg::bench::env_size spelling.
using util::env_size;

inline sim::ExperimentConfig paper_config() {
  sim::ExperimentConfig cfg;
  cfg.seed = env_size("PG_BENCH_SEED", 42);
  cfg.corpus.n_instances = env_size("PG_BENCH_INSTANCES", 4601);
  cfg.svm.epochs = env_size("PG_BENCH_EPOCHS", 300);
  return cfg;
}

inline std::size_t sweep_reps() { return env_size("PG_BENCH_REPS", 2); }

/// The bench-wide executor: every sweep/grid entry point takes its .get().
inline std::unique_ptr<runtime::Executor> bench_executor() {
  auto exec = sim::make_executor(env_size("PG_BENCH_THREADS", 0));
  std::cout << "executor threads: " << exec->concurrency()
            << " (override with PG_BENCH_THREADS)\n";
  return exec;
}

inline void print_context(const sim::ExperimentContext& ctx) {
  std::cout << "corpus: " << ctx.corpus_source
            << " | instances: " << (ctx.train.size() + ctx.test.size())
            << " | train/test: " << ctx.train.size() << "/" << ctx.test.size()
            << " | poison budget N: " << ctx.poison_budget
            << " | clean accuracy: " << ctx.clean_accuracy << "\n\n";
}

}  // namespace pg::bench
