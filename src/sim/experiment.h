// Experiment setup shared by every reproduction harness.
//
// Mirrors the paper's protocol: load Spambase (or the synthetic
// substitute), split 70/30, standardize on the clean training split, fix a
// 20% poison budget, and train a hinge-loss SVM. All knobs live in
// ExperimentConfig so benches and tests can trade fidelity for speed
// explicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "data/loader.h"
#include "defense/centroid.h"
#include "ml/svm.h"
#include "runtime/executor.h"
#include "util/rng.h"

namespace pg::runtime {
class PayoffCache;
}  // namespace pg::runtime

namespace pg::sim {

struct ExperimentConfig {
  std::uint64_t seed = 42;
  data::SpambaseLikeConfig corpus{};
  double train_fraction = 0.7;   // paper: 70% train / 30% test
  double poison_fraction = 0.2;  // paper: attacker controls 20%
  ml::SvmConfig svm{};
  defense::CentroidConfig centroid{};
  /// Use real spambase.data when present in the default locations.
  bool try_real_corpus = true;
};

struct ExperimentContext {
  ExperimentConfig config;
  /// RAW (unstandardized) splits: the attack and the filter operate in raw
  /// feature space, exactly like the paper; the Pipeline standardizes
  /// after filtering, fitted on whatever survived.
  data::Dataset train;
  data::Dataset test;
  std::size_t poison_budget = 0;  // paper's N
  std::string corpus_source;      // "synthetic" or a file path
  double clean_accuracy = 0.0;    // no attack, no filter baseline
};

/// Where prepare_experiment memoizes the clean baseline. `shard` maps a
/// context_key() to that context's PayoffCache (an empty function or a
/// null shard trains the baseline without memoizing); `retrained` and
/// `hits` count what the call did, for the caller's cache report.
struct BaselineMemo {
  std::function<runtime::PayoffCache*(std::uint64_t)> shard;
  std::size_t retrained = 0;
  std::size_t hits = 0;
};

/// Load/synthesize the corpus, split, fix the poison budget, and measure
/// the clean baseline accuracy. With a `memo`, the baseline is a
/// single-flight payoff cell in the shard of context_key(): a hit skips
/// the training run, the owner trains and publishes (and abandons its
/// claim if training throws). The context is bit-identical either way.
[[nodiscard]] ExperimentContext prepare_experiment(
    const ExperimentConfig& config, BaselineMemo* memo = nullptr);

/// A small/fast configuration used by integration tests: a reduced corpus
/// and a cheap SVM, preserving all structural properties of the full run.
[[nodiscard]] ExperimentConfig fast_config(std::uint64_t seed = 42);

/// Content key of everything a context's payoffs depend on, computable
/// before any training: seed, corpus generator knobs, split sizes, poison
/// budget, the SVM/centroid configuration, the corpus source and -- for a
/// corpus loaded from a file -- its features and labels. It names the
/// context's PayoffCache shard (on disk too) and keys the memoized clean
/// baseline; it never includes the measured clean accuracy.
[[nodiscard]] std::uint64_t context_key(const ExperimentContext& ctx);

/// The context word every cell key and cell RNG stream mixes. Combined
/// with the per-cell knobs (filter strength, attack placement,
/// replication) it forms the runtime::PayoffCache key of a pipeline cell.
[[nodiscard]] std::uint64_t context_fingerprint(const ExperimentContext& ctx);

/// Executor factory for harnesses (benches, examples) driven by a thread
/// count: 1 -> nullptr semantics are inconvenient, so this returns a real
/// SerialExecutor for 1, a hardware-sized pool for 0, and an n-thread pool
/// otherwise. Sweep entry points accept the raw pointer via .get().
[[nodiscard]] std::unique_ptr<runtime::Executor> make_executor(
    std::size_t threads);

}  // namespace pg::sim
