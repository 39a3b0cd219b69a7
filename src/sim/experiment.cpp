#include "sim/experiment.h"

#include "attack/attack.h"
#include "defense/pipeline.h"
#include "ml/metrics.h"
#include "runtime/payoff_evaluator.h"
#include "util/error.h"

namespace pg::sim {

namespace {

/// Domain tags: a context key and a baseline cell key never mix the same
/// word sequence as each other or as any other key family.
constexpr std::uint64_t kContextKeyTag = 0x43545854'4B455931ULL;   // "CTXTKEY1"
constexpr std::uint64_t kBaselineKeyTag = 0x434C4541'4E424153ULL;  // "CLEANBAS"

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
      .mix(static_cast<std::uint64_t>(ctx.train.size()))
      .mix(static_cast<std::uint64_t>(ctx.test.size()))
      .mix(static_cast<std::uint64_t>(ctx.poison_budget));
}

void mix_text(runtime::ContentKey& key, const std::string& text) {
  for (const char c : text) {
    key.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
}

}  // namespace

ExperimentContext prepare_experiment(const ExperimentConfig& config,
                                     BaselineMemo* memo) {
  util::Rng rng(config.seed);

  data::CorpusInfo corpus =
      config.try_real_corpus
          ? data::load_or_generate_spambase(data::default_spambase_paths(),
                                            config.corpus, rng)
          : data::CorpusInfo{data::make_spambase_like(config.corpus, rng),
                             true, "synthetic"};

  util::Rng split_rng = rng.fork(1);
  auto split =
      data::split_train_test(corpus.data, config.train_fraction, split_rng);

  ExperimentContext ctx;
  ctx.config = config;
  ctx.corpus_source = corpus.source;
  ctx.train = std::move(split.train);
  ctx.test = std::move(split.test);
  ctx.poison_budget =
      attack::poison_budget(ctx.train.size(), config.poison_fraction);

  // The clean baseline is an ordinary single-flight payoff cell in the
  // context's shard, so a warm context trains nothing here.
  runtime::PayoffCache* cache = nullptr;
  std::uint64_t baseline_key = 0;
  if (memo != nullptr && memo->shard) {
    const std::uint64_t key = context_key(ctx);
    cache = memo->shard(key);
    baseline_key =
        runtime::ContentKey().mix(kBaselineKeyTag).mix(key).digest();
  }
  if (cache != nullptr && cache->claim(baseline_key, ctx.clean_accuracy) !=
                              runtime::PayoffCache::Claim::kOwner) {
    ++memo->hits;
    return ctx;
  }
  try {
    util::Rng train_rng = rng.fork(2);
    const defense::Pipeline pipeline({config.svm});
    ctx.clean_accuracy =
        pipeline.run(ctx.train, ctx.test, nullptr, 0, nullptr, train_rng)
            .test_accuracy;
  } catch (...) {
    if (cache != nullptr) cache->abandon(baseline_key);
    throw;
  }
  if (cache != nullptr) cache->publish(baseline_key, ctx.clean_accuracy);
  if (memo != nullptr) ++memo->retrained;
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
  key.mix(kContextKeyTag);
  mix_context_words(key, ctx);
  mix_text(key, ctx.corpus_source);
  if (ctx.corpus_source != "synthetic") {
    // A file's rows are not a function of the config: hash its content.
    for (const data::Dataset* part : {&ctx.train, &ctx.test}) {
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

std::unique_ptr<runtime::Executor> make_executor(std::size_t threads) {
  if (threads == 1) return std::make_unique<runtime::SerialExecutor>();
  return std::make_unique<runtime::ThreadPoolExecutor>(threads);
}

}  // namespace pg::sim
