// Tests for util: RNG, statistics, strings, tables, thread pool, scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>

#include "util/fs.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/scale.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace nada::util {
namespace {

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 45);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, UniformIntThrowsOnInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_int(5, 2), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(17);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(29);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_NEAR(counts[0] / 100000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.3, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.6, 0.01);
}

TEST(Rng, WeightedIndexIgnoresNegativeWeights) {
  Rng rng(29);
  const std::vector<double> weights = {-5.0, 1.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
}

TEST(Rng, WeightedIndexThrowsOnAllZero) {
  Rng rng(29);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(weights), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(101);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(37);
  const auto sample = rng.sample_indices(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (auto i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesThrowsWhenKTooLarge) {
  Rng rng(37);
  EXPECT_THROW(rng.sample_indices(5, 6), std::invalid_argument);
}

TEST(Rng, ChoiceThrowsOnEmpty) {
  Rng rng(41);
  const std::vector<int> empty;
  EXPECT_THROW(rng.choice(empty), std::invalid_argument);
}

// ---- stats -----------------------------------------------------------------

TEST(RunningStats, MatchesBatchComputation) {
  Rng rng(43);
  RunningStats rs;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    rs.add(x);
    xs.push_back(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-6);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(47);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 10);
    a.add(x);
    all.add(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(5, 20);
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(Stats, MeanKnownValues) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceKnownValues) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileRejectsBadP) {
  const std::vector<double> xs = {1, 2};
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

TEST(Stats, EmaConvergesToConstant) {
  const std::vector<double> xs(50, 7.0);
  EXPECT_NEAR(ema(xs, 0.3), 7.0, 1e-9);
}

TEST(Stats, EmaSeriesFirstElementIsInput) {
  const std::vector<double> xs = {3.0, 5.0};
  const auto series = ema_series(xs, 0.5);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 3.0);
  EXPECT_DOUBLE_EQ(series[1], 4.0);
}

TEST(Stats, EmaRejectsBadAlpha) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(ema(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(ema(xs, 1.5), std::invalid_argument);
}

TEST(Stats, LinearTrendOfLine) {
  std::vector<double> xs;
  for (int i = 0; i < 10; ++i) xs.push_back(3.0 + 2.0 * i);
  EXPECT_NEAR(linear_trend(xs), 2.0, 1e-12);
}

TEST(Stats, LinearTrendOfConstantIsZero) {
  const std::vector<double> xs(10, 4.0);
  EXPECT_NEAR(linear_trend(xs), 0.0, 1e-12);
}

TEST(Stats, LinregPredictExtrapolatesLine) {
  std::vector<double> xs;
  for (int i = 0; i < 8; ++i) xs.push_back(1.0 + 0.5 * i);
  EXPECT_NEAR(linreg_predict_next(xs), 1.0 + 0.5 * 8, 1e-9);
}

TEST(Stats, LinregPredictSinglePoint) {
  EXPECT_DOUBLE_EQ(linreg_predict_next(std::vector<double>{4.0}), 4.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSideIsZero) {
  const std::vector<double> xs = {1, 2, 3};
  const std::vector<double> ys = {5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, TailMean) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(tail_mean(xs, 2), 5.5);
  EXPECT_DOUBLE_EQ(tail_mean(xs, 100), 3.5);
  EXPECT_DOUBLE_EQ(tail_mean(std::vector<double>{}, 3), 0.0);
}

TEST(Stats, SavgolPreservesLine) {
  // A quadratic-fit smoother reproduces linear data exactly.
  std::vector<double> xs;
  for (int i = 0; i < 9; ++i) xs.push_back(2.0 + 1.5 * i);
  const auto smoothed = savgol5(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(smoothed[i], xs[i], 1e-9) << "at " << i;
  }
}

TEST(Stats, SavgolShortInputUnchanged) {
  const std::vector<double> xs = {1, 5, 2};
  EXPECT_EQ(savgol5(xs), xs);
}

TEST(Stats, SavgolDampensImpulse) {
  std::vector<double> xs(9, 0.0);
  xs[4] = 35.0;
  const auto smoothed = savgol5(xs);
  EXPECT_LT(smoothed[4], 35.0);
  EXPECT_GT(smoothed[4], 0.0);
}

// ---- strings ---------------------------------------------------------------

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
}

TEST(Strings, JoinRoundtrip) {
  const std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(join(parts, "-"), "a-b-c");
  EXPECT_EQ(join(std::vector<std::string>{}, "-"), "");
}

TEST(Strings, Fnv1aDistinct) {
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("xyz", "q", "r"), "xyz");
}

// ---- table -----------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("demo"), std::string::npos);
  EXPECT_NE(rendered.find("longer"), std::string::npos);
  EXPECT_NE(rendered.find("-----"), std::string::npos);
}

TEST(TextTable, CsvEscaping) {
  TextTable t;
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, MixedRowFormatsNumbers) {
  TextTable t;
  t.add_row_mixed({"row"}, {1.23456}, 2);
  EXPECT_NE(t.to_string().find("1.23"), std::string::npos);
}

TEST(FormatHelpers, Percent) {
  EXPECT_EQ(format_percent(0.529), "+52.9%");
  EXPECT_EQ(format_percent(-0.031), "-3.1%");
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 40 + 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsFirstWorkerException) {
  ThreadPool pool(4);
  std::vector<int> slots(64, 0);
  EXPECT_THROW(
      pool.parallel_for(slots.size(),
                        [&slots](std::size_t i) {
                          if (i % 16 == 3) {
                            throw std::runtime_error("worker blew up");
                          }
                          slots[i] = 1;
                        }),
      std::runtime_error);
  // Every non-throwing item still ran to completion before the rethrow.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], i % 16 == 3 ? 0 : 1) << i;
  }
}

TEST(ThreadPool, ParallelForWritesDistinctSlots) {
  ThreadPool pool(8);
  std::vector<int> slots(500, 0);
  pool.parallel_for(slots.size(), [&slots](std::size_t i) {
    slots[i] = static_cast<int>(i) * 2;
  });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) * 2);
  }
}

// ---- scale -----------------------------------------------------------------

TEST(Scale, ApplyRespectsFloor) {
  EXPECT_EQ(ScaleConfig::apply(1000, 0.001, 5), 5u);
  EXPECT_EQ(ScaleConfig::apply(1000, 0.5, 1), 500u);
  EXPECT_EQ(ScaleConfig::apply(1000, 0.0, 3), 3u);
  // Widths round to nearest (half away from zero) with a floor of 8 units.
  EXPECT_EQ(scaled_width(128, 0.25), 32u);
  EXPECT_EQ(scaled_width(100, 0.125), 13u);
  EXPECT_EQ(scaled_width(16, 0.25), 8u);
}

TEST(Scale, IdentityAtFull) {
  ScaleConfig s;
  s.gen = s.epochs = s.seeds = s.traces = s.model = 1.0;
  EXPECT_EQ(s.gen_count(3000), 3000u);
  EXPECT_EQ(s.epoch_count(40000), 40000u);
  EXPECT_EQ(s.seed_count(5), 5u);
  EXPECT_EQ(scaled_width(128, s.model), 128u);
}

TEST(Scale, DescribeMentionsFactors) {
  ScaleConfig s;
  s.gen = 0.25;
  EXPECT_NE(s.describe().find("0.25"), std::string::npos);
  s.model = 0.125;
  EXPECT_NE(s.describe().find("model=0.125"), std::string::npos);
}

TEST(Scale, FromEnvValidatesModelFactor) {
  // NADA_SCALE_MODEL sizes every bench network: nan and inf would make
  // 2^63-unit layers, -1 wraps to 2^64-128 units, and unparseable text
  // would silently run at the default width.
  // Above 1 is refused too: gen::ArchGenerator only scales widths down.
  for (const char* bad : {"nan", "inf", "-1", "0", "abc", "1.5"}) {
    ::setenv("NADA_SCALE_MODEL", bad, 1);
    EXPECT_THROW(ScaleConfig::from_env(), std::runtime_error) << bad;
  }
  ::setenv("NADA_SCALE_MODEL", "1.5", 1);
  try {
    (void)ScaleConfig::from_env();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(0, 1]"), std::string::npos)
        << e.what();
  }
  ::setenv("NADA_SCALE_MODEL", "1", 1);
  EXPECT_DOUBLE_EQ(ScaleConfig::from_env().model, 1.0);
  ::setenv("NADA_SCALE_MODEL", "0.5", 1);
  EXPECT_DOUBLE_EQ(ScaleConfig::from_env().model, 0.5);
  ::unsetenv("NADA_SCALE_MODEL");
  EXPECT_DOUBLE_EQ(ScaleConfig::from_env().model, 0.25);
}

TEST(Scale, FromEnvRejectsNonPositiveAndNaNFactors) {
  ::setenv("NADA_SCALE_GEN", "0", 1);
  EXPECT_THROW(ScaleConfig::from_env(), std::runtime_error);
  ::setenv("NADA_SCALE_GEN", "-0.5", 1);
  EXPECT_THROW(ScaleConfig::from_env(), std::runtime_error);
  ::setenv("NADA_SCALE_GEN", "nan", 1);
  EXPECT_THROW(ScaleConfig::from_env(), std::runtime_error);
  ::setenv("NADA_SCALE_GEN", "inf", 1);
  EXPECT_THROW(ScaleConfig::from_env(), std::runtime_error);
  // Set-but-unparseable is an error too, not a silent fallback.
  ::setenv("NADA_SCALE_GEN", "O.5", 1);
  EXPECT_THROW(ScaleConfig::from_env(), std::runtime_error);
  ::setenv("NADA_SCALE_GEN", "0.5x", 1);
  EXPECT_THROW(ScaleConfig::from_env(), std::runtime_error);
  ::setenv("NADA_SCALE_GEN", "0.5", 1);
  EXPECT_DOUBLE_EQ(ScaleConfig::from_env().gen, 0.5);
  ::unsetenv("NADA_SCALE_GEN");
  EXPECT_NO_THROW(ScaleConfig::from_env());
}

// ---- json ------------------------------------------------------------------

TEST(Json, ObjectRoundTripWithEscapes) {
  JsonValue obj = JsonValue::object();
  obj.set("name", JsonValue::string("line\nbreak \"quoted\" \\slash\t"));
  obj.set("count", JsonValue::number(42.5));
  obj.set("flag", JsonValue::boolean(true));
  obj.set("missing", JsonValue::null());
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::number(-1.25));
  arr.push_back(JsonValue::string("x"));
  obj.set("items", std::move(arr));

  const JsonValue parsed = JsonValue::parse(obj.dump());
  EXPECT_EQ(parsed.get("name").as_string(),
            "line\nbreak \"quoted\" \\slash\t");
  EXPECT_DOUBLE_EQ(parsed.get("count").as_number(), 42.5);
  EXPECT_TRUE(parsed.get("flag").as_bool());
  EXPECT_TRUE(parsed.get("missing").is_null());
  EXPECT_DOUBLE_EQ(parsed.get("items").at(0).as_number(), -1.25);
  EXPECT_EQ(parsed.get("items").at(1).as_string(), "x");
  // Deterministic dumps: parse(dump) dumps identically.
  EXPECT_EQ(parsed.dump(), obj.dump());
}

TEST(Json, NonFiniteNumbersDegradeToNull) {
  JsonValue obj = JsonValue::object();
  obj.set("bad", JsonValue::number(std::nan("")));
  const JsonValue parsed = JsonValue::parse(obj.dump());
  EXPECT_TRUE(parsed.get("bad").is_null());
  EXPECT_DOUBLE_EQ(parsed.get("bad").as_number(-1.0), -1.0);
}

TEST(Json, RejectsTornAndTrailingInput) {
  EXPECT_THROW(JsonValue::parse("{\"a\":1"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} extra"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
}

TEST(Json, DoublesHelpersRoundTrip) {
  const std::vector<double> values = {1.0, -2.5, 0.0, 1e-9};
  const JsonValue encoded = json_doubles(values);
  EXPECT_EQ(json_to_doubles(JsonValue::parse(encoded.dump())), values);
}

TEST(Json, DoublesHelpersRoundTripNonFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {1.0, std::nan(""), inf, -inf};
  const auto decoded =
      json_to_doubles(JsonValue::parse(json_doubles(values).dump()));
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_DOUBLE_EQ(decoded[0], 1.0);
  EXPECT_TRUE(std::isnan(decoded[1]));
  EXPECT_EQ(decoded[2], inf);
  EXPECT_EQ(decoded[3], -inf);
}

// ---- fs --------------------------------------------------------------------

TEST(Fs, AtomicWriteAndReadRoundTrip) {
  const std::string path =
      std::string(::testing::TempDir()) + "/nada_fs_test_roundtrip.txt";
  write_file_atomic(path, "hello\nstore\n");
  EXPECT_TRUE(file_exists(path));
  EXPECT_EQ(read_file(path), "hello\nstore\n");
  write_file_atomic(path, "replaced");  // atomic replace, not append
  EXPECT_EQ(read_file(path), "replaced");
  std::remove(path.c_str());
}

TEST(Fs, MissingFilesAreReportedNotInvented) {
  const std::string path =
      std::string(::testing::TempDir()) + "/nada_fs_test_missing.txt";
  std::remove(path.c_str());
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(read_file_if_exists(path).has_value());
  EXPECT_THROW(read_file(path), std::runtime_error);
}

// A reader polling a file that another thread keeps atomically replacing
// and removing (a supervisor reading worker heartbeats) must only ever see
// "absent" or one whole version — never an exception from a file that
// appeared between a failed open and a separate existence check.
TEST(Fs, ReadRacingAtomicWriteAndRemoveNeverThrows) {
  const std::string path =
      std::string(::testing::TempDir()) + "/nada_fs_test_race.txt";
  std::remove(path.c_str());
  const std::string content(256, 'h');
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    try {
      while (!stop.load(std::memory_order_relaxed)) {
        write_file_atomic(path, content);
        std::remove(path.c_str());
      }
    } catch (const std::exception&) {
      writer_failed = true;
    }
  });
  std::size_t absent = 0, present = 0, errors = 0;
  for (int i = 0; i < 50000; ++i) {
    try {
      const auto read = read_file_if_exists(path);
      if (!read.has_value()) {
        ++absent;
      } else {
        ++present;
        EXPECT_EQ(*read, content);
      }
    } catch (const std::exception&) {
      ++errors;
    }
  }
  stop = true;
  writer.join();
  std::remove(path.c_str());
  EXPECT_FALSE(writer_failed);
  EXPECT_EQ(errors, 0u) << absent << " absent, " << present << " present";
}

}  // namespace
}  // namespace nada::util
