#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <span>
#include <utility>

#include "attack/attack.h"
#include "defense/pipeline.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/payoff_evaluator.h"
#include "util/csv.h"
#include "util/error.h"

namespace pg::sim {

namespace {

/// Domain tags: a context key and a baseline cell key never mix the same
/// word sequence as each other or as any other key family.
constexpr std::uint64_t kContextKeyTag = 0x43545854'4B455931ULL;   // "CTXTKEY1"
constexpr std::uint64_t kBaselineKeyTag = 0x434C4541'4E424153ULL;  // "CLEANBAS"
constexpr std::uint64_t kPositiveFractionTag =
    0x54455354'504F5346ULL;  // "TESTPOSF"

/// The results epoch: context_key() mixes it, so bumping it renames
/// every shard and old cache dirs go cold instead of serving values the
/// code no longer computes. Bump it in any change that edits a
/// tests/golden/*.json (CI checks that).
constexpr std::uint64_t kResultsEpoch = 1;

/// The config, size and budget words both context_key() and
/// context_fingerprint() cover, in the fingerprint's historical order.
void mix_context_words(runtime::ContentKey& key, const ExperimentContext& ctx) {
  const ExperimentConfig& cfg = ctx.config;
  key.mix(cfg.seed)
      .mix(static_cast<std::uint64_t>(cfg.corpus.n_instances))
      .mix(static_cast<std::uint64_t>(cfg.corpus.n_features))
      .mix(cfg.corpus.positive_fraction)
      .mix(static_cast<std::uint64_t>(cfg.corpus.n_spam_words))
      .mix(static_cast<std::uint64_t>(cfg.corpus.n_ham_words))
      .mix(cfg.corpus.active_in_class)
      .mix(cfg.corpus.active_out_class)
      .mix(cfg.corpus.word_log_mu)
      .mix(cfg.corpus.word_log_sigma)
      .mix(cfg.corpus.generic_active)
      .mix(cfg.corpus.class_separation)
      .mix(cfg.corpus.intensity_sigma)
      .mix(cfg.corpus.express_scale)
      .mix(cfg.train_fraction)
      .mix(cfg.poison_fraction)
      .mix(static_cast<std::uint64_t>(cfg.svm.epochs))
      .mix(cfg.svm.lambda)
      .mix(static_cast<std::uint64_t>(cfg.svm.average))
      .mix(static_cast<std::uint64_t>(cfg.centroid.method))
      .mix(cfg.centroid.trim_fraction)
      .mix(static_cast<std::uint64_t>(ctx.train_size()))
      .mix(static_cast<std::uint64_t>(ctx.test_size()))
      .mix(static_cast<std::uint64_t>(ctx.poison_budget));
}

void mix_text(runtime::ContentKey& key, const std::string& text) {
  for (const char c : text) {
    key.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
}

/// Draw the corpus of `config` and split it: Rng(seed) draws the corpus,
/// its fork(1) shuffles the split. Every build, eager or lazy, makes
/// these calls in this order, so when it runs changes no value.
data::TrainTestSplit build_split(const ExperimentConfig& config,
                                 std::string& source) {
  static obs::Timer& timer = obs::timer("obs.stage.corpus");
  const obs::ScopedTimer timed(timer);
  const obs::Span span("corpus", "data");
  util::Rng rng(config.seed);
  data::CorpusInfo corpus =
      config.try_real_corpus
          ? data::load_or_generate_spambase(data::default_spambase_paths(),
                                            config.corpus, rng)
          : data::CorpusInfo{data::make_spambase_like(config.corpus, rng),
                             true, "synthetic"};
  source = std::move(corpus.source);
  util::Rng split_rng = rng.fork(1);
  return data::split_train_test(corpus.data, config.train_fraction,
                                split_rng);
}

}  // namespace

struct ExperimentContext::Split {
  std::mutex mutex;
  std::atomic<bool> built{false};
  data::TrainTestSplit data;
  std::atomic<bool> geometry_built{false};
  attack::ClassRadiusMap geometry;  // of data.train
};

const data::Dataset& ExperimentContext::train() const {
  return split().data.train;
}

const data::Dataset& ExperimentContext::test() const {
  return split().data.test;
}

const ExperimentContext::Split& ExperimentContext::split() const {
  PG_CHECK(split_ != nullptr,
           "ExperimentContext has no split: use prepare_experiment");
  Split& state = *split_;
  if (state.built.load(std::memory_order_acquire)) return state;
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.built.load(std::memory_order_relaxed)) {
    std::string source;
    data::TrainTestSplit built = build_split(config, source);
    // Planned as synthetic: a spambase.data that appeared since must not
    // be served under the synthetic key.
    PG_CHECK(source == "synthetic",
             "corpus file " + source +
                 " appeared after its context was keyed as synthetic");
    PG_CHECK(built.train.size() == train_size_ &&
                 built.test.size() == test_size_,
             "built split " + std::to_string(built.train.size()) + "/" +
                 std::to_string(built.test.size()) +
                 " differs from the planned " + std::to_string(train_size_) +
                 "/" + std::to_string(test_size_) +
                 " (config changed after prepare_experiment?)");
    state.data = std::move(built);
    state.built.store(true, std::memory_order_release);
  }
  return state;
}

const attack::ClassRadiusMap& ExperimentContext::clean_geometry() const {
  static obs::Timer& timer = obs::timer("obs.stage.geometry");
  const data::Dataset& clean = train();
  Split& state = *split_;
  if (state.geometry_built.load(std::memory_order_acquire)) {
    return state.geometry;
  }
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.geometry_built.load(std::memory_order_relaxed)) {
    const obs::ScopedTimer timed(timer);
    const obs::Span span("geometry", "attack");
    state.geometry = attack::ClassRadiusMap(clean);
    state.geometry_built.store(true, std::memory_order_release);
  }
  return state.geometry;
}

void ExperimentContext::set_split(data::Dataset train, data::Dataset test) {
  auto split = std::make_shared<Split>();
  split->data = {std::move(train), std::move(test)};
  split->built.store(true, std::memory_order_relaxed);
  train_size_ = split->data.train.size();
  test_size_ = split->data.test.size();
  split_ = std::move(split);
}

ExperimentContext prepare_experiment(const ExperimentConfig& config,
                                     const EvaluatorFor& evaluator_for) {
  ExperimentContext ctx;
  ctx.config = config;
  const std::vector<std::string> paths = data::default_spambase_paths();
  const bool loaded =
      config.try_real_corpus &&
      std::any_of(paths.begin(), paths.end(), util::file_exists);
  if (loaded) {
    // A file's rows are not a function of the config: load them now so
    // context_key() can hash them.
    data::TrainTestSplit split = build_split(config, ctx.corpus_source);
    ctx.set_split(std::move(split.train), std::move(split.test));
  } else {
    ctx.corpus_source = "synthetic";
    ctx.split_ = std::make_shared<ExperimentContext::Split>();
  }
  try {
    if (!loaded) {
      // make_spambase_like returns exactly n_instances rows.
      const std::size_t n = config.corpus.n_instances;
      ctx.train_size_ = data::train_split_size(n, config.train_fraction);
      ctx.test_size_ = n - ctx.train_size_;
    }
    ctx.poison_budget =
        attack::poison_budget(ctx.train_size(), config.poison_fraction);
  } catch (...) {
    // An invalid config fails as the eager protocol did: a corpus or
    // split error comes before a poison-budget error.
    (void)ctx.train();
    throw;
  }

  // The clean baseline is an ordinary payoff cell of the context, so a
  // warm context trains nothing here and builds no split:
  // {clean_accuracy, test_positive_fraction} under the baseline key and
  // its sibling.
  const std::uint64_t key = context_key(ctx);
  const runtime::PayoffEvaluator& evaluator =
      evaluator_for ? evaluator_for(key) : runtime::serial_evaluator();
  const std::vector<double> values = evaluator.evaluate_cells(
      1, 2,
      [key](std::size_t, std::span<std::uint64_t> keys) {
        keys[0] = runtime::ContentKey().mix(kBaselineKeyTag).mix(key).digest();
        keys[1] =
            runtime::ContentKey().mix(kPositiveFractionTag).mix(key).digest();
      },
      [&ctx, &config](std::size_t, std::span<double> cell) {
        cell[1] = ctx.test().positive_fraction();
        util::Rng train_rng = util::Rng(config.seed).fork(2);
        const defense::Pipeline pipeline({config.svm});
        cell[0] = pipeline
                      .run(ctx.train(), ctx.test(), nullptr, 0, nullptr,
                           train_rng)
                      .test_accuracy;
      });
  ctx.clean_accuracy = values[0];
  ctx.test_positive_fraction = values[1];
  return ctx;
}

ExperimentConfig fast_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.corpus.n_instances = 800;
  cfg.svm.epochs = 60;
  cfg.try_real_corpus = false;
  return cfg;
}

std::uint64_t context_key(const ExperimentContext& ctx) {
  runtime::ContentKey key;
  key.mix(kContextKeyTag).mix(kResultsEpoch);
  mix_context_words(key, ctx);
  mix_text(key, ctx.corpus_source);
  if (ctx.corpus_source != "synthetic") {
    // A file's rows are not a function of the config: hash its content.
    for (const data::Dataset* part : {&ctx.train(), &ctx.test()}) {
      for (const double x : part->features().data()) key.mix(x);
      for (const int y : part->labels()) key.mix(static_cast<std::uint64_t>(y));
    }
  }
  return key.digest();
}

std::uint64_t context_fingerprint(const ExperimentContext& ctx) {
  runtime::ContentKey key;
  mix_context_words(key, ctx);
  // The measured clean accuracy once stood in for real-corpus content;
  // shards are now named by context_key(), which hashes that content. It
  // stays in this word only so that every cell key and cell RNG stream
  // -- and with them every committed result -- remains bit-identical.
  key.mix(ctx.clean_accuracy);
  mix_text(key, ctx.corpus_source);
  return key.digest();
}

}  // namespace pg::sim
