#include "defense/pipeline.h"

#include <utility>

#include "data/scaler.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::defense {

Pipeline::Pipeline(PipelineConfig config) : config_(config) {}

Pipeline::Prepared Pipeline::prepare(const data::Dataset& clean_train,
                                     const data::Dataset& test,
                                     const attack::PoisoningAttack* attack,
                                     std::size_t poison_points,
                                     const Filter* filter,
                                     util::Rng& rng) const {
  static obs::Timer& attack_timer = obs::timer("obs.stage.attack");
  static obs::Timer& filter_timer = obs::timer("obs.stage.filter");
  static obs::Timer& scale_timer = obs::timer("obs.stage.scale");
  PG_CHECK(!clean_train.empty(), "Pipeline: empty training data");
  PG_CHECK(!test.empty(), "Pipeline: empty test data");

  // Without an attack the filter sees clean_train itself, not a copy, so
  // a filter holding that split's geometry recognizes it.
  data::Dataset poisoned;
  const data::Dataset* train = &clean_train;
  if (attack != nullptr && poison_points > 0) {
    util::Rng attack_rng = rng.fork(1);
    data::Dataset poison;
    {
      const obs::ScopedTimer timed(attack_timer);
      const obs::Span span("attack", "attack");
      poison = attack->generate(clean_train, poison_points, attack_rng);
    }
    poisoned = data::concatenate(clean_train, poison);
    train = &poisoned;
  }

  Prepared prep;
  FilterResult filtered;
  const data::Dataset* kept = train;
  if (filter != nullptr) {
    util::Rng filter_rng = rng.fork(2);
    {
      const obs::ScopedTimer timed(filter_timer);
      const obs::Span span("filter", "defense");
      filtered = filter->apply(*train, filter_rng);
    }
    prep.detection =
        score_detection(filtered, train->size(), clean_train.size());
    kept = &filtered.kept;
  }
  prep.train_size = kept->size();

  prep.train_rng = rng.fork(3);
  if (config_.standardize && kept->size() >= 2) {
    const obs::ScopedTimer timed(scale_timer);
    const obs::Span span("scale", "data");
    data::StandardScaler scaler;
    scaler.fit(*kept);
    prep.train = scaler.transform(*kept);
    prep.test = scaler.transform(test);
  } else {
    if (kept != &filtered.kept) filtered.kept = *kept;
    prep.train = std::move(filtered.kept);
    prep.test = test;
  }
  return prep;
}

PipelineResult Pipeline::finish(Prepared&& prep, ml::LinearModel model) {
  PipelineResult result;
  result.detection = prep.detection;
  result.train_size = prep.train_size;
  result.test_accuracy = ml::accuracy(model, prep.test);
  result.model = std::move(model);
  return result;
}

PipelineResult Pipeline::run(const data::Dataset& clean_train,
                             const data::Dataset& test,
                             const attack::PoisoningAttack* attack,
                             std::size_t poison_points, const Filter* filter,
                             util::Rng& rng) const {
  Prepared prep =
      prepare(clean_train, test, attack, poison_points, filter, rng);
  const ml::SvmTrainer trainer(config_.svm);
  ml::LinearModel model = trainer.train(prep.train, prep.train_rng);
  return finish(std::move(prep), std::move(model));
}

}  // namespace pg::defense
