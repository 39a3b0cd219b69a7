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

#include "attack/radius_map.h"
#include "data/dataset.h"
#include "data/loader.h"
#include "defense/centroid.h"
#include "ml/svm.h"
#include "runtime/executor.h"
#include "util/rng.h"

namespace pg::runtime {
class PayoffEvaluator;
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

/// Maps a context_key() to the evaluator of that context's cells (the
/// scenario engine hands out one per context, over the context's cache
/// shard, and reads its counts for the cache report).
using EvaluatorFor =
    std::function<const runtime::PayoffEvaluator&(std::uint64_t)>;

/// One experiment context: the config, its RAW (unstandardized) train/test
/// split and the numbers measured on it. The attack and the filter operate
/// in raw feature space, exactly like the paper; the Pipeline standardizes
/// after filtering, fitted on whatever survived.
///
/// A synthetic split is built on first use: the first train()/test() call
/// on any copy synthesizes and splits the corpus of `config` (once,
/// thread-safe), and every copy shares the result. Its planned sizes are
/// known before that, so a context whose cells all hit the cache never
/// builds one. A build that throws leaves the context retryable.
class ExperimentContext {
 public:
  ExperimentConfig config;
  std::size_t poison_budget = 0;        // paper's N
  std::string corpus_source;            // "synthetic" or a file path
  double clean_accuracy = 0.0;          // no attack, no filter baseline
  double test_positive_fraction = 0.0;  // share of +1 rows in test()

  /// The split, built on the first call. A synthetic build checks its
  /// sizes against the plan: the seed, corpus, train_fraction and
  /// try_real_corpus of `config` must not change after planning.
  [[nodiscard]] const data::Dataset& train() const;
  [[nodiscard]] const data::Dataset& test() const;
  /// Planned split sizes, known without building the split.
  [[nodiscard]] std::size_t train_size() const noexcept { return train_size_; }
  [[nodiscard]] std::size_t test_size() const noexcept { return test_size_; }

  /// The coordinate-median ClassRadiusMap of train(), built on the first
  /// call (once, thread-safe, after the split) and shared by every copy,
  /// like the split. Cells hand it to their BoundaryAttack and
  /// DistanceFilter so no cell recomputes the clean split's geometry.
  /// Requires both classes in train().
  [[nodiscard]] const attack::ClassRadiusMap& clean_geometry() const;

  /// Install an already-built split (a corpus loaded from a file); the
  /// planned sizes become its sizes.
  void set_split(data::Dataset train, data::Dataset test);

 private:
  struct Split;
  friend ExperimentContext prepare_experiment(const ExperimentConfig&,
                                              const EvaluatorFor&);
  [[nodiscard]] const Split& split() const;

  std::size_t train_size_ = 0;
  std::size_t test_size_ = 0;
  std::shared_ptr<Split> split_;
};

/// Plan the split, fix the poison budget, and measure the clean baseline
/// accuracy. A corpus file (try_real_corpus, a candidate path exists) is
/// loaded and split here, so context_key() can hash its content; a
/// synthetic split is only planned. The baseline is one two-value cell,
/// {clean_accuracy, test_positive_fraction}, on the evaluator that
/// `evaluator_for` returns for context_key(), or on
/// runtime::serial_evaluator() without one. A cache hit skips the
/// training run and the corpus with it; a miss builds the split and
/// trains. The context is bit-identical either way.
[[nodiscard]] ExperimentContext prepare_experiment(
    const ExperimentConfig& config, const EvaluatorFor& evaluator_for = {});

/// A small/fast configuration used by integration tests: a reduced corpus
/// and a cheap SVM, preserving all structural properties of the full run.
[[nodiscard]] ExperimentConfig fast_config(std::uint64_t seed = 42);

/// Content key of everything a context's payoffs depend on, computable
/// before any training or synthesis: the results epoch (a constant
/// bumped whenever the code's results change), seed, corpus generator
/// knobs, the planned split sizes, poison budget, the SVM/centroid
/// configuration, the corpus source and -- for a corpus loaded from a
/// file -- its features and labels. It names the context's PayoffCache
/// shard (on disk too) and keys the memoized clean baseline; it never
/// includes the measured clean accuracy.
[[nodiscard]] std::uint64_t context_key(const ExperimentContext& ctx);

/// The context word every cell key and cell RNG stream mixes. Combined
/// with the per-cell knobs (filter strength, attack placement,
/// replication) it forms the runtime::PayoffCache key of a pipeline cell.
[[nodiscard]] std::uint64_t context_fingerprint(const ExperimentContext& ctx);

}  // namespace pg::sim
