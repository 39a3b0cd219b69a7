#include "ml/metrics.h"

#include "util/error.h"

namespace pg::ml {

double ConfusionMatrix::accuracy() const {
  const std::size_t n = total();
  PG_CHECK(n > 0, "accuracy of empty confusion matrix");
  return static_cast<double>(true_positive + true_negative) /
         static_cast<double>(n);
}

double ConfusionMatrix::precision() const {
  const std::size_t denom = true_positive + false_positive;
  if (denom == 0) return 0.0;
  return static_cast<double>(true_positive) / static_cast<double>(denom);
}

double ConfusionMatrix::recall() const {
  const std::size_t denom = true_positive + false_negative;
  if (denom == 0) return 0.0;
  return static_cast<double>(true_positive) / static_cast<double>(denom);
}

double ConfusionMatrix::f1() const {
  const double p = precision();
  const double r = recall();
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

double ConfusionMatrix::false_positive_rate() const {
  const std::size_t denom = false_positive + true_negative;
  if (denom == 0) return 0.0;
  return static_cast<double>(false_positive) / static_cast<double>(denom);
}

ConfusionMatrix evaluate(const LinearModel& model, const data::Dataset& d) {
  PG_CHECK(!d.empty(), "evaluate on empty dataset");
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const int pred = model.predict(d.features().row(i));
    const int truth = d.labels()[i];
    if (truth == 1) {
      if (pred == 1) {
        ++cm.true_positive;
      } else {
        ++cm.false_negative;
      }
    } else {
      if (pred == 1) {
        ++cm.false_positive;
      } else {
        ++cm.true_negative;
      }
    }
  }
  return cm;
}

double accuracy(const LinearModel& model, const data::Dataset& d) {
  return evaluate(model, d).accuracy();
}

}  // namespace pg::ml
