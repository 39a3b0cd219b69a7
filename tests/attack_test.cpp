// Unit and property tests for pg::attack -- radius maps, the boundary
// attack, baselines, the gradient-refined attack and mixed strategies.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/boundary_attack.h"
#include "attack/gradient_attack.h"
#include "attack/label_flip.h"
#include "attack/mixed_attack.h"
#include "attack/noise_attack.h"
#include "attack/radius_map.h"
#include "data/synthetic.h"
#include "defense/distance_filter.h"
#include "defense/pipeline.h"
#include "la/vector_ops.h"

namespace pg::attack {
namespace {

data::Dataset blobs(std::size_t n = 400, std::uint64_t seed = 1,
                    double sep = 6.0) {
  util::Rng rng(seed);
  return data::make_gaussian_blobs(n, 5, sep, rng);
}

// ------------------------------------------------------------ radius_map

TEST(RadiusMapTest, CentroidsMatchDefenderGeometry) {
  const auto d = blobs();
  const ClassRadiusMap median_map(d);
  EXPECT_EQ(median_map.geometry(1).centroid, d.class_coordinate_median(1));
  const ClassRadiusMap mean_map(d, /*use_median=*/false);
  EXPECT_EQ(mean_map.geometry(1).centroid, d.class_mean(1));
  EXPECT_EQ(mean_map.geometry(-1).centroid, d.class_mean(-1));
}

TEST(RadiusMapTest, RadiusDecreasesWithRemovalFraction) {
  const ClassRadiusMap map(blobs());
  double prev = map.radius_for_removal(1, 0.0);
  for (double p : {0.1, 0.2, 0.4, 0.8}) {
    const double r = map.radius_for_removal(1, p);
    EXPECT_LE(r, prev + 1e-12);
    prev = r;
  }
}

TEST(RadiusMapTest, RoundTripRemovalFraction) {
  const ClassRadiusMap map(blobs(2000));
  for (double p : {0.05, 0.1, 0.2, 0.3}) {
    const double r = map.radius_for_removal(1, p);
    // The fraction strictly beyond the radius is <= p (ties inside).
    EXPECT_LE(map.removal_for_radius(1, r), p + 1e-9);
    EXPECT_NEAR(map.removal_for_radius(1, r), p, 0.01);
  }
}

TEST(RadiusMapTest, BoundaryIsMaxDistance) {
  const auto d = blobs();
  const ClassRadiusMap map(d);
  const auto dist = d.distances_to(d.class_coordinate_median(1), 1);
  EXPECT_DOUBLE_EQ(map.boundary_radius(1),
                   *std::max_element(dist.begin(), dist.end()));
}

TEST(RadiusMapTest, RequiresBothClasses) {
  data::Dataset one_class;
  one_class.append({1.0}, 1);
  one_class.append({2.0}, 1);
  EXPECT_THROW(ClassRadiusMap{one_class}, std::invalid_argument);
}

TEST(RadiusMapTest, UnknownLabelThrows) {
  const ClassRadiusMap map(blobs());
  EXPECT_THROW((void)map.geometry(3), std::invalid_argument);
}

TEST(BoundaryAttackTest, SharedCleanGeometryGivesTheSamePoison) {
  data::SpambaseLikeConfig cfg;
  cfg.n_instances = 600;
  util::Rng corpus_rng(21);
  const data::Dataset clean = data::make_spambase_like(cfg, corpus_rng);
  const ClassRadiusMap geometry(clean);
  BoundaryAttackConfig search;  // default depth offsets
  search.placement_fraction = 0.1;
  BoundaryAttackConfig exact = search;
  exact.depth_offsets.clear();
  for (const BoundaryAttackConfig& acfg : {search, exact}) {
    util::Rng own_rng(5);
    util::Rng shared_rng(5);
    const data::Dataset want = BoundaryAttack(acfg).generate(clean, 60, own_rng);
    const data::Dataset got =
        BoundaryAttack(acfg, &geometry).generate(clean, 60, shared_rng);
    EXPECT_EQ(got.features().data(), want.features().data());
    EXPECT_EQ(got.labels(), want.labels());
    EXPECT_EQ(shared_rng.uniform(), own_rng.uniform());
  }

  // A geometry of an equal copy, or of mean centroids, is not this
  // dataset's median geometry.
  const data::Dataset copy = clean;
  const ClassRadiusMap mean_geometry(clean, /*use_median=*/false);
  util::Rng rng(5);
  EXPECT_THROW((void)BoundaryAttack(exact, &geometry).generate(copy, 60, rng),
               std::invalid_argument);
  EXPECT_THROW(
      (void)BoundaryAttack(exact, &mean_geometry).generate(clean, 60, rng),
      std::invalid_argument);
}

TEST(PoisonBudgetTest, FloorsFraction) {
  EXPECT_EQ(poison_budget(100, 0.2), 20u);
  EXPECT_EQ(poison_budget(7, 0.5), 3u);
  EXPECT_EQ(poison_budget(10, 0.0), 0u);
  EXPECT_THROW((void)poison_budget(10, 1.5), std::invalid_argument);
}

// ------------------------------------------------------- boundary_attack

TEST(BoundaryAttackTest, ProducesRequestedCount) {
  const auto d = blobs();
  util::Rng rng(2);
  const auto poison = BoundaryAttack(BoundaryAttackConfig{}).generate(d, 21, rng);
  EXPECT_EQ(poison.size(), 21u);
  EXPECT_EQ(poison.dim(), d.dim());
}

TEST(BoundaryAttackTest, AlternatesLabels) {
  const auto d = blobs();
  util::Rng rng(3);
  const auto poison =
      BoundaryAttack(BoundaryAttackConfig{}).generate(d, 10, rng);
  EXPECT_EQ(poison.count_label(1), 5u);
  EXPECT_EQ(poison.count_label(-1), 5u);
}

TEST(BoundaryAttackTest, PointsLieOnRequestedRadius) {
  const auto d = blobs(2000);
  const ClassRadiusMap map(d);
  BoundaryAttackConfig cfg;
  cfg.placement_fraction = 0.2;
  cfg.direction_noise = 0.0;
  cfg.safety_margin = 0.0;
  cfg.account_for_displacement = false;  // check the raw clean quantile
  cfg.depth_offsets.clear();
  util::Rng rng(4);
  const auto poison = BoundaryAttack(cfg).generate(d, 8, rng);
  for (std::size_t i = 0; i < poison.size(); ++i) {
    const int label = poison.label(i);
    const double r =
        la::distance(poison.instance(i), map.geometry(label).centroid);
    EXPECT_NEAR(r, map.radius_for_removal(label, 0.2), 1e-9);
  }
}

TEST(BoundaryAttackTest, SafetyMarginShrinksRadius) {
  const auto d = blobs();
  const ClassRadiusMap map(d);
  BoundaryAttackConfig cfg;
  cfg.placement_fraction = 0.1;
  cfg.direction_noise = 0.0;
  cfg.safety_margin = 0.05;
  cfg.account_for_displacement = false;
  cfg.depth_offsets.clear();
  util::Rng rng(5);
  const auto poison = BoundaryAttack(cfg).generate(d, 4, rng);
  const double target = map.radius_for_removal(1, 0.1) * 0.95;
  EXPECT_NEAR(la::distance(poison.instance(0), map.geometry(1).centroid),
              target, 1e-9);
}

TEST(BoundaryAttackTest, DirectedTowardOppositeClass) {
  const auto d = blobs();
  const ClassRadiusMap map(d);
  BoundaryAttackConfig cfg;
  cfg.placement_fraction = 0.3;
  cfg.direction_noise = 0.0;
  cfg.depth_offsets.clear();
  util::Rng rng(6);
  const auto poison = BoundaryAttack(cfg).generate(d, 2, rng);
  // A +1-labeled poison point must be closer to the -1 centroid than its
  // own centroid's antipode: dot of (x - c_own) with (c_other - c_own) > 0.
  for (std::size_t i = 0; i < poison.size(); ++i) {
    const int label = poison.label(i);
    const auto& own = map.geometry(label).centroid;
    const auto& other = map.geometry(-label).centroid;
    const double align = la::dot(la::subtract(poison.instance(i), own),
                                 la::subtract(other, own));
    EXPECT_GT(align, 0.0);
  }
}

TEST(BoundaryAttackTest, SurvivesWeakerFilterDiesToStronger) {
  // The defining property of the placement parametrization: a point at
  // placement psi is kept by a filter weaker than psi and removed by a
  // clearly stronger one. (Filter quantiles are computed on the poisoned
  // set, so exact threshold equality is blurred; we test with margin.)
  const auto d = blobs(1000);
  BoundaryAttackConfig cfg;
  cfg.placement_fraction = 0.25;
  cfg.depth_offsets.clear();
  util::Rng rng(7);
  const auto poison = BoundaryAttack(cfg).generate(d, 100, rng);
  const auto all = data::concatenate(d, poison);

  defense::DistanceFilterConfig weak;
  weak.removal_fraction = 0.05;
  weak.centroid.method = defense::CentroidMethod::kCoordinateMedian;
  util::Rng frng(8);
  const auto weak_res = defense::DistanceFilter(weak).apply(all, frng);
  const auto weak_score =
      defense::score_detection(weak_res, all.size(), d.size());
  EXPECT_LT(weak_score.recall, 0.2);

  defense::DistanceFilterConfig strong;
  strong.removal_fraction = 0.45;
  strong.centroid.method = defense::CentroidMethod::kCoordinateMedian;
  const auto strong_res = defense::DistanceFilter(strong).apply(all, frng);
  const auto strong_score =
      defense::score_detection(strong_res, all.size(), d.size());
  EXPECT_GT(strong_score.recall, 0.9);
}

TEST(BoundaryAttackTest, ConfigValidation) {
  EXPECT_THROW(BoundaryAttack({.placement_fraction = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(BoundaryAttack({.placement_fraction = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(BoundaryAttack({.placement_fraction = 0.1,
                               .safety_margin = 1.0}),
               std::invalid_argument);
}

TEST(BoundaryAttackTest, DeterministicGivenRng) {
  const auto d = blobs();
  util::Rng r1(9);
  util::Rng r2(9);
  const BoundaryAttack atk{BoundaryAttackConfig{}};
  const auto p1 = atk.generate(d, 6, r1);
  const auto p2 = atk.generate(d, 6, r2);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1.instance(i), p2.instance(i));
  }
}

// ------------------------------------------------------------ label_flip

TEST(LabelFlipTest, FlipsLabelsOfExistingPoints) {
  const auto d = blobs(100);
  util::Rng rng(10);
  const auto poison =
      LabelFlipAttack({FlipSelection::kRandom}).generate(d, 30, rng);
  EXPECT_EQ(poison.size(), 30u);
  // Every poison point must be a clean point with inverted label.
  for (std::size_t i = 0; i < 5; ++i) {
    bool found = false;
    for (std::size_t j = 0; j < d.size(); ++j) {
      if (poison.instance(i) == d.instance(j)) {
        EXPECT_EQ(poison.label(i), -d.label(j));
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "poison point " << i << " not from clean set";
  }
}

TEST(LabelFlipTest, NearCentroidSelectionPrefersBoundaryPoints) {
  const auto d = blobs(500);
  util::Rng rng(11);
  const auto near = LabelFlipAttack({FlipSelection::kNearCentroid})
                        .generate(d, 10, rng);
  util::Rng rng2(11);
  const auto far =
      LabelFlipAttack({FlipSelection::kFarthest}).generate(d, 10, rng2);
  // kNearCentroid picks points close to the opposite class; their distance
  // to the opposite centroid must be smaller on average than kFarthest's.
  const ClassRadiusMap map(d);
  auto mean_dist_to_opposite = [&](const data::Dataset& p) {
    double s = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      // Poison label is flipped, so "opposite of original" == poison label.
      s += la::distance(p.instance(i), map.geometry(p.label(i)).centroid);
    }
    return s / static_cast<double>(p.size());
  };
  EXPECT_LT(mean_dist_to_opposite(near), mean_dist_to_opposite(far));
}

TEST(LabelFlipTest, NameIdentifiesSelection) {
  EXPECT_NE(LabelFlipAttack({FlipSelection::kRandom}).name().find("random"),
            std::string::npos);
  EXPECT_NE(LabelFlipAttack({FlipSelection::kFarthest}).name().find("far"),
            std::string::npos);
}

// ---------------------------------------------------------- noise_attack

TEST(NoiseAttackTest, GeneratesBalancedNoise) {
  const auto d = blobs();
  util::Rng rng(12);
  const auto poison = NoiseAttack().generate(d, 20, rng);
  EXPECT_EQ(poison.size(), 20u);
  EXPECT_EQ(poison.count_label(1), 10u);
}

TEST(NoiseAttackTest, RejectsNonPositiveScale) {
  EXPECT_THROW(NoiseAttack({.scale = 0.0}), std::invalid_argument);
}

// ------------------------------------------------------- gradient_attack

TEST(GradientAttackTest, RespectsRadiusConstraint) {
  const auto d = blobs(300);
  GradientAttackConfig cfg;
  cfg.placement_fraction = 0.2;
  cfg.outer_iters = 3;
  util::Rng rng(13);
  const auto poison = GradientAttack(cfg).generate(d, 20, rng);
  const ClassRadiusMap map(d);
  for (std::size_t i = 0; i < poison.size(); ++i) {
    const int label = poison.label(i);
    const double r =
        la::distance(poison.instance(i), map.geometry(label).centroid);
    EXPECT_LE(r, map.radius_for_removal(label, 0.2) + 1e-6);
  }
}

TEST(GradientAttackTest, AtLeastRoughlyAsDamagingAsBoundary) {
  // The refinement must not be dramatically weaker than its analytic seed
  // (it verifies the paper's "optimal points sit at the boundary" claim).
  const auto d = blobs(400, 14, 3.0);
  util::Rng data_rng(15);
  const auto test = data::make_gaussian_blobs(400, 5, 3.0, data_rng);

  defense::PipelineConfig pcfg;
  pcfg.svm.epochs = 40;
  pcfg.standardize = false;
  const defense::Pipeline pipeline(pcfg);

  BoundaryAttackConfig bcfg;
  bcfg.placement_fraction = 0.1;
  const BoundaryAttack boundary(bcfg);
  GradientAttackConfig gcfg;
  gcfg.placement_fraction = 0.1;
  gcfg.outer_iters = 3;
  const GradientAttack gradient(gcfg);

  util::Rng r1(16);
  util::Rng r2(16);
  const double acc_boundary =
      pipeline.run(d, test, &boundary, 80, nullptr, r1).test_accuracy;
  const double acc_gradient =
      pipeline.run(d, test, &gradient, 80, nullptr, r2).test_accuracy;
  EXPECT_LE(acc_gradient, acc_boundary + 0.10);
}

// ---------------------------------------------------------- mixed_attack

TEST(MixedAttackTest, StrategyValidation) {
  EXPECT_THROW(MixedAttackStrategy({0.1}, {0.9}), std::invalid_argument);
  EXPECT_THROW(MixedAttackStrategy({0.1, 1.2}, {0.5, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(MixedAttackStrategy({}, {}), std::invalid_argument);
  EXPECT_NO_THROW(MixedAttackStrategy({0.1, 0.2}, {0.5, 0.5}));
}

TEST(MixedAttackTest, ExpectedAllocationSumsToBudget) {
  const MixedAttackStrategy s({0.05, 0.15, 0.25}, {0.2, 0.3, 0.5});
  const auto alloc = s.expected_allocation(100);
  std::size_t total = 0;
  for (const auto& a : alloc) total += a.count;
  EXPECT_EQ(total, 100u);
}

TEST(MixedAttackTest, SampledAllocationSumsToBudget) {
  const MixedAttackStrategy s({0.05, 0.25}, {0.5, 0.5});
  util::Rng rng(17);
  const auto alloc = s.sample_allocation(57, rng);
  std::size_t total = 0;
  for (const auto& a : alloc) total += a.count;
  EXPECT_EQ(total, 57u);
}

TEST(MixedAttackTest, SampledAllocationFollowsProbabilities) {
  const MixedAttackStrategy s({0.1, 0.2}, {0.8, 0.2});
  util::Rng rng(18);
  double at_first = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    for (const auto& a : s.sample_allocation(50, rng)) {
      if (a.placement_fraction == 0.1) at_first += a.count;
    }
  }
  EXPECT_NEAR(at_first / (trials * 50.0), 0.8, 0.03);
}

TEST(MixedAttackTest, GenerateAllocationPlacesCorrectCounts) {
  const auto d = blobs();
  util::Rng rng(19);
  const auto poison = generate_allocation(
      d, {{0.1, 7}, {0.3, 5}}, rng, 0.0, 0.0);
  EXPECT_EQ(poison.size(), 12u);
}

TEST(MixedAttackTest, AdapterProducesBudget) {
  const auto d = blobs();
  const MixedAttack atk(MixedAttackStrategy({0.1, 0.2}, {0.5, 0.5}));
  util::Rng rng(20);
  EXPECT_EQ(atk.generate(d, 33, rng).size(), 33u);
  EXPECT_NE(atk.name().find("mixed"), std::string::npos);
}

// Property sweep over placements: deeper placements are detected by
// correspondingly stronger filters.
class PlacementProperty : public ::testing::TestWithParam<double> {};

TEST_P(PlacementProperty, FilterAtPlacementBoundaryIsDecisive) {
  const double psi = GetParam();
  const auto d = blobs(800);
  BoundaryAttackConfig cfg;
  cfg.placement_fraction = psi;
  cfg.depth_offsets.clear();
  util::Rng rng(21);
  const auto poison = BoundaryAttack(cfg).generate(d, 80, rng);
  const auto all = data::concatenate(d, poison);

  // A filter twice as strong as the placement must catch most poison.
  defense::DistanceFilterConfig strong;
  strong.removal_fraction = std::min(0.9, 2.0 * psi + 0.15);
  strong.centroid.method = defense::CentroidMethod::kCoordinateMedian;
  util::Rng frng(22);
  const auto res = defense::DistanceFilter(strong).apply(all, frng);
  const auto score = defense::score_detection(res, all.size(), d.size());
  EXPECT_GT(score.recall, 0.8) << "placement " << psi;
}

INSTANTIATE_TEST_SUITE_P(Placements, PlacementProperty,
                         ::testing::Values(0.05, 0.1, 0.15, 0.2, 0.3));

}  // namespace
}  // namespace pg::attack
