// Tests for the host vector-ISA detection (la/simd.h) and the
// prepare/finish split that defense::Pipeline::run is built on.
#include <gtest/gtest.h>

#include <utility>

#include "data/synthetic.h"
#include "defense/distance_filter.h"
#include "defense/pipeline.h"
#include "la/simd.h"
#include "ml/svm.h"
#include "util/rng.h"

namespace pg {
namespace {

using la::simd::Tier;

data::Dataset blobs(std::size_t n, std::uint64_t seed, std::size_t dim = 6) {
  util::Rng rng(seed);
  return data::make_gaussian_blobs(n, dim, 4.0, rng);
}

// ------------------------------------------------------------ tier model

TEST(SimdTierTest, NamesRoundTrip) {
  EXPECT_STREQ(la::simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(la::simd::tier_name(Tier::kSse2), "sse2");
  EXPECT_STREQ(la::simd::tier_name(Tier::kAvx2), "avx2");
}

TEST(SimdTierTest, DetectionIsStableAndOrdered) {
  const Tier first = la::simd::detect_tier();
  EXPECT_EQ(la::simd::detect_tier(), first);  // cached
  EXPECT_GE(first, Tier::kScalar);
  EXPECT_LE(first, Tier::kAvx2);
}

// --------------------------------------------------- pipeline split path

TEST(PipelineSplitTest, PrepareTrainFinishMatchesRun) {
  const data::Dataset train = blobs(120, 21);
  const data::Dataset test = blobs(60, 22);
  defense::PipelineConfig pcfg;
  pcfg.svm.epochs = 20;
  const defense::Pipeline pipeline(pcfg);
  defense::DistanceFilterConfig fcfg;
  fcfg.removal_fraction = 0.15;
  const defense::DistanceFilter filter(fcfg);

  util::Rng rng_a(5);
  const auto direct = pipeline.run(train, test, nullptr, 0, &filter, rng_a);

  util::Rng rng_b(5);
  auto prep = pipeline.prepare(train, test, nullptr, 0, &filter, rng_b);
  const ml::LinearModel model =
      ml::SvmTrainer(pcfg.svm).train(prep.train, prep.train_rng);
  const auto split = defense::Pipeline::finish(std::move(prep), model);

  EXPECT_EQ(direct.test_accuracy, split.test_accuracy);
  EXPECT_EQ(direct.train_size, split.train_size);
  EXPECT_EQ(direct.model.bias(), split.model.bias());
  EXPECT_EQ(direct.model.weights(), split.model.weights());
}

}  // namespace
}  // namespace pg
