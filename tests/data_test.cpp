// Unit and property tests for pg::data -- dataset container, scaler,
// synthetic generators, and the Spambase loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>

#include "data/dataset.h"
#include "data/loader.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "util/stats.h"

namespace pg::data {
namespace {

Dataset tiny() {
  Dataset d;
  d.append({0.0, 0.0}, 1);
  d.append({1.0, 0.0}, 1);
  d.append({10.0, 10.0}, -1);
  d.append({11.0, 10.0}, -1);
  return d;
}

// -------------------------------------------------------------- dataset.h

TEST(DatasetTest, AppendAndAccess) {
  const Dataset d = tiny();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.dim(), 2u);
  EXPECT_EQ(d.label(0), 1);
  EXPECT_EQ(d.label(2), -1);
  EXPECT_EQ(d.instance(1), (la::Vector{1.0, 0.0}));
}

TEST(DatasetTest, RejectsBadLabels) {
  Dataset d;
  EXPECT_THROW(d.append({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(d.append({1.0}, 2), std::invalid_argument);
}

TEST(DatasetTest, RejectsDimensionMismatch) {
  Dataset d = tiny();
  EXPECT_THROW(d.append({1.0, 2.0, 3.0}, 1), std::invalid_argument);
}

TEST(DatasetTest, ConstructorValidatesLabelCount) {
  la::Matrix x(2, 1);
  EXPECT_THROW(Dataset(x, {1}), std::invalid_argument);
  EXPECT_THROW(Dataset(x, {1, 3}), std::invalid_argument);
}

TEST(DatasetTest, LabelCountsAndFractions) {
  const Dataset d = tiny();
  EXPECT_EQ(d.count_label(1), 2u);
  EXPECT_EQ(d.count_label(-1), 2u);
  EXPECT_DOUBLE_EQ(d.positive_fraction(), 0.5);
  EXPECT_EQ(d.indices_of_label(-1), (std::vector<std::size_t>{2, 3}));
}

TEST(DatasetTest, SelectSubset) {
  const Dataset d = tiny();
  const Dataset s = d.select({3, 0});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.label(0), -1);
  EXPECT_EQ(s.instance(1), (la::Vector{0.0, 0.0}));
}

TEST(DatasetTest, ClassMean) {
  const Dataset d = tiny();
  EXPECT_EQ(d.class_mean(1), (la::Vector{0.5, 0.0}));
  EXPECT_EQ(d.class_mean(-1), (la::Vector{10.5, 10.0}));
}

TEST(DatasetTest, DistancesToCenter) {
  const Dataset d = tiny();
  const auto dist = d.distances_to({0.0, 0.0}, 1);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_EQ(d.distances_to({0.0, 0.0}).size(), 4u);
}

/// Coordinate medians as they were computed before selection: sort each
/// column of the class and read its middle.
la::Vector sorted_column_median(const Dataset& d, int label) {
  la::Vector out(d.dim());
  for (std::size_t c = 0; c < d.dim(); ++c) {
    std::vector<double> column;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (d.label(i) == label) column.push_back(d.features()(i, c));
    }
    std::sort(column.begin(), column.end());
    const std::size_t n = column.size();
    out[c] = (n % 2 == 1) ? column[n / 2]
                          : 0.5 * (column[n / 2 - 1] + column[n / 2]);
  }
  return out;
}

TEST(DatasetTest, CoordinateMedianBySelectionMatchesSort) {
  util::Rng rng(3);
  Dataset odd_even;  // 7 positives, 6 negatives
  for (int i = 0; i < 13; ++i) {
    odd_even.append({rng.normal(), rng.uniform(-5.0, 5.0), rng.normal()},
                    i < 7 ? 1 : -1);
  }
  Dataset ties;  // three distinct values per column: 14 positives, 26 negatives
  for (int i = 0; i < 40; ++i) {
    ties.append({static_cast<double>(rng.uniform_index(3)), 1.0,
                 static_cast<double>(i % 2)},
                i % 3 == 0 ? 1 : -1);
  }
  Dataset single;
  single.append({2.5, 0.0, 7.0}, 1);
  SpambaseLikeConfig cfg;
  cfg.n_instances = 1400;
  util::Rng corpus_rng(42);
  const Dataset spam = make_spambase_like(cfg, corpus_rng);
  ASSERT_EQ(spam.dim(), 57u);

  const std::array<const Dataset*, 4> cases = {&odd_even, &ties, &single,
                                                &spam};
  for (const Dataset* d : cases) {
    for (int label : {1, -1}) {
      if (d->count_label(label) == 0) continue;
      const la::Vector got = d->class_coordinate_median(label);
      const la::Vector want = sorted_column_median(*d, label);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(got[c], want[c]) << "n=" << d->count_label(label)
                                   << " label=" << label << " column=" << c;
      }
    }
  }
}

TEST(SplitTest, PartitionsWithoutOverlap) {
  util::Rng rng(1);
  Dataset d;
  for (int i = 0; i < 100; ++i) {
    d.append({static_cast<double>(i)}, i % 2 == 0 ? 1 : -1);
  }
  const auto split = split_train_test(d, 0.7, rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
  // Every original value appears exactly once across the two parts.
  std::vector<double> seen;
  for (std::size_t i = 0; i < split.train.size(); ++i) {
    seen.push_back(split.train.instance(i)[0]);
  }
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    seen.push_back(split.test.instance(i)[0]);
  }
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(seen[i], i);
}

TEST(SplitTest, RejectsDegenerateFraction) {
  util::Rng rng(1);
  const Dataset d = tiny();
  EXPECT_THROW((void)split_train_test(d, 0.0, rng), std::invalid_argument);
  EXPECT_THROW((void)split_train_test(d, 1.0, rng), std::invalid_argument);
}

TEST(SplitTest, DeterministicGivenSeed) {
  Dataset d;
  for (int i = 0; i < 50; ++i) d.append({static_cast<double>(i)}, 1);
  util::Rng r1(9);
  util::Rng r2(9);
  const auto s1 = split_train_test(d, 0.5, r1);
  const auto s2 = split_train_test(d, 0.5, r2);
  for (std::size_t i = 0; i < s1.train.size(); ++i) {
    EXPECT_EQ(s1.train.instance(i), s2.train.instance(i));
  }
}

TEST(ConcatenateTest, HandlesEmptySides) {
  const Dataset d = tiny();
  EXPECT_EQ(concatenate(d, Dataset{}).size(), d.size());
  EXPECT_EQ(concatenate(Dataset{}, d).size(), d.size());
  EXPECT_EQ(concatenate(d, d).size(), 2 * d.size());
}

/// Every double and every label equal (EXPECT_EQ, no tolerance).
void expect_same_rows(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.dim(), want.dim());
  const auto& x = got.features().data();
  const auto& y = want.features().data();
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t k = 0; k < x.size(); ++k) EXPECT_EQ(x[k], y[k]) << k;
  EXPECT_EQ(got.labels(), want.labels());
}

TEST(ConcatenateTest, MatchesRowByRowAppend) {
  SpambaseLikeConfig cfg;
  cfg.n_instances = 300;
  util::Rng rng(8);
  const Dataset a = make_spambase_like(cfg, rng);
  const Dataset b = a.select({5, 0, 299, 17});
  Dataset want = a;
  for (std::size_t i = 0; i < b.size(); ++i) {
    want.append(b.instance(i), b.label(i));
  }
  expect_same_rows(concatenate(a, b), want);
  expect_same_rows(concatenate(a, Dataset{}), a);
  expect_same_rows(concatenate(Dataset{}, b), b);
  expect_same_rows(concatenate(Dataset{}, Dataset{}), Dataset{});
  Dataset narrow;
  narrow.append({1.0}, 1);
  EXPECT_THROW((void)concatenate(a, narrow), std::invalid_argument);
}

// --------------------------------------------------------------- scaler.h

TEST(ScalerTest, StandardizesToZeroMeanUnitVar) {
  Dataset d;
  d.append({0.0, 100.0}, 1);
  d.append({2.0, 300.0}, 1);
  d.append({4.0, 500.0}, -1);
  StandardScaler s;
  s.fit(d);
  const Dataset z = s.transform(d);
  // Column means ~ 0.
  EXPECT_NEAR(z.features().column_means()[0], 0.0, 1e-12);
  EXPECT_NEAR(z.features().column_means()[1], 0.0, 1e-12);
  // Unit sample variance.
  const auto col0 = z.features().col_copy(0);
  EXPECT_NEAR(util::variance({col0.begin(), col0.end()}), 1.0, 1e-12);
}

TEST(ScalerTest, ConstantFeatureMapsToZero) {
  Dataset d;
  d.append({5.0, 1.0}, 1);
  d.append({5.0, 2.0}, -1);
  StandardScaler s;
  s.fit(d);
  EXPECT_DOUBLE_EQ(s.transform(la::Vector{5.0, 1.5})[0], 0.0);
}

TEST(ScalerTest, UnfittedThrows) {
  StandardScaler s;
  EXPECT_THROW((void)s.transform(la::Vector{1.0}), std::invalid_argument);
}

TEST(ScalerTest, DatasetTransformMatchesRowByRow) {
  SpambaseLikeConfig cfg;
  cfg.n_instances = 300;
  util::Rng rng(9);
  const Dataset d = make_spambase_like(cfg, rng);
  StandardScaler s;
  s.fit(d.select({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  Dataset want;
  for (std::size_t i = 0; i < d.size(); ++i) {
    want.append(s.transform(d.instance(i)), d.label(i));
  }
  expect_same_rows(s.transform(d), want);
  expect_same_rows(s.transform(Dataset{}), Dataset{});
  EXPECT_THROW((void)StandardScaler().transform(d), std::invalid_argument);
  EXPECT_THROW((void)s.transform(tiny()), std::invalid_argument);
}

TEST(ScalerTest, LabelsPreserved) {
  const Dataset d = tiny();
  StandardScaler s;
  s.fit(d);
  const Dataset z = s.transform(d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(z.label(i), d.label(i));
  }
}

// ------------------------------------------------------------ synthetic.h

TEST(SpambaseLikeTest, ShapeMatchesConfig) {
  SpambaseLikeConfig cfg;
  cfg.n_instances = 500;
  util::Rng rng(42);
  const Dataset d = make_spambase_like(cfg, rng);
  EXPECT_EQ(d.size(), 500u);
  EXPECT_EQ(d.dim(), 57u);
}

TEST(SpambaseLikeTest, ClassBalanceNearConfigured) {
  SpambaseLikeConfig cfg;
  cfg.n_instances = 2000;
  util::Rng rng(42);
  const Dataset d = make_spambase_like(cfg, rng);
  EXPECT_NEAR(d.positive_fraction(), cfg.positive_fraction, 0.02);
}

TEST(SpambaseLikeTest, FeaturesNonNegative) {
  SpambaseLikeConfig cfg;
  cfg.n_instances = 200;
  util::Rng rng(7);
  const Dataset d = make_spambase_like(cfg, rng);
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (double v : d.instance(i)) EXPECT_GE(v, 0.0);
  }
}

TEST(SpambaseLikeTest, DeterministicInSeed) {
  SpambaseLikeConfig cfg;
  cfg.n_instances = 100;
  util::Rng r1(5);
  util::Rng r2(5);
  const Dataset a = make_spambase_like(cfg, r1);
  const Dataset b = make_spambase_like(cfg, r2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.instance(i), b.instance(i));
    EXPECT_EQ(a.label(i), b.label(i));
  }
}

TEST(SpambaseLikeTest, HeavyTailedDistances) {
  // The capital-run columns must dominate the distance geometry: the max
  // distance-to-centroid should dwarf the median (this is the property the
  // whole game relies on; see DESIGN.md section 4).
  SpambaseLikeConfig cfg;
  cfg.n_instances = 1000;
  util::Rng rng(11);
  const Dataset d = make_spambase_like(cfg, rng);
  const auto dist = d.distances_to(d.class_mean(1), 1);
  EXPECT_GT(*std::max_element(dist.begin(), dist.end()),
            5.0 * util::median(dist));
}

TEST(SpambaseLikeTest, ZeroSeparationRemovesSignal) {
  SpambaseLikeConfig cfg;
  cfg.n_instances = 400;
  cfg.class_separation = 0.0;
  util::Rng rng(13);
  const Dataset d = make_spambase_like(cfg, rng);
  // With no separation the class means should nearly coincide relative to
  // the data spread (weak test: distance between means < median distance).
  const double icd = la::distance(d.class_mean(1), d.class_mean(-1));
  const auto dist = d.distances_to(d.class_mean(1), 1);
  EXPECT_LT(icd, util::median(dist));
}

TEST(SpambaseLikeTest, RejectsBadConfig) {
  util::Rng rng(1);
  SpambaseLikeConfig too_small;
  too_small.n_instances = 5;
  EXPECT_THROW((void)make_spambase_like(too_small, rng),
               std::invalid_argument);
  SpambaseLikeConfig bad_words;
  bad_words.n_features = 10;  // < 12 + 12 + 3
  EXPECT_THROW((void)make_spambase_like(bad_words, rng),
               std::invalid_argument);
  SpambaseLikeConfig bad_frac;
  bad_frac.positive_fraction = 1.5;
  EXPECT_THROW((void)make_spambase_like(bad_frac, rng),
               std::invalid_argument);
}

TEST(GaussianBlobsTest, SeparationControlsOverlap) {
  util::Rng rng(3);
  const Dataset d = make_gaussian_blobs(400, 3, 8.0, rng);
  EXPECT_EQ(d.size(), 400u);
  // With separation 8 the class means straddle the origin on axis 0.
  EXPECT_GT(d.class_mean(1)[0], 2.0);
  EXPECT_LT(d.class_mean(-1)[0], -2.0);
}

TEST(GaussianBlobsTest, BalancedLabels) {
  util::Rng rng(3);
  const Dataset d = make_gaussian_blobs(100, 2, 1.0, rng);
  EXPECT_EQ(d.count_label(1), 50u);
  EXPECT_EQ(d.count_label(-1), 50u);
}

// --------------------------------------------------------------- loader.h

TEST(LoaderTest, ParsesSpambaseFormat) {
  const std::string path = ::testing::TempDir() + "/spambase_ok.data";
  {
    std::ofstream f(path);
    for (int i = 0; i < 3; ++i) {
      for (int c = 0; c < 57; ++c) f << (c * 0.1) << ",";
      f << (i % 2) << "\n";
    }
  }
  const Dataset d = load_spambase(path);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.dim(), 57u);
  EXPECT_EQ(d.label(0), -1);
  EXPECT_EQ(d.label(1), 1);
  std::remove(path.c_str());
}

TEST(LoaderTest, RejectsWrongColumnCount) {
  const std::string path = ::testing::TempDir() + "/spambase_bad.data";
  {
    std::ofstream f(path);
    f << "1,2,3\n";
  }
  EXPECT_THROW((void)load_spambase(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(LoaderTest, RejectsBadLabel) {
  const std::string path = ::testing::TempDir() + "/spambase_lbl.data";
  {
    std::ofstream f(path);
    for (int c = 0; c < 57; ++c) f << "0,";
    f << "7\n";
  }
  EXPECT_THROW((void)load_spambase(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(LoaderTest, FallsBackToSynthetic) {
  SpambaseLikeConfig cfg;
  cfg.n_instances = 50;
  util::Rng rng(1);
  const CorpusInfo info =
      load_or_generate_spambase({"/nonexistent/a", "/nonexistent/b"}, cfg,
                                rng);
  EXPECT_TRUE(info.synthetic);
  EXPECT_EQ(info.source, "synthetic");
  EXPECT_EQ(info.data.size(), 50u);
}

TEST(LoaderTest, PrefersRealFileWhenPresent) {
  const std::string path = ::testing::TempDir() + "/spambase_real.data";
  {
    std::ofstream f(path);
    for (int i = 0; i < 12; ++i) {
      for (int c = 0; c < 57; ++c) f << "0.5,";
      f << (i % 2) << "\n";
    }
  }
  SpambaseLikeConfig cfg;
  cfg.n_instances = 50;
  util::Rng rng(1);
  const CorpusInfo info = load_or_generate_spambase({path}, cfg, rng);
  EXPECT_FALSE(info.synthetic);
  EXPECT_EQ(info.source, path);
  EXPECT_EQ(info.data.size(), 12u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pg::data
