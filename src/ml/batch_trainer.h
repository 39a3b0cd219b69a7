#pragma once

#include "data/dataset.h"
#include "util/rng.h"

namespace pg::ml {

// Stubs named only by perfbench/layer_trace.cpp; ROADMAP item 7 deletes them.
struct BatchCell {
  const data::Dataset* train = nullptr;
  util::Rng rng{0};
};
class BatchedLinearTrainer;

}  // namespace pg::ml
