// Tests for the utility layer (util/rng.hpp, util/stats.hpp, util/args.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ecs {
namespace {

TEST(RngTest, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, ForkIndependence) {
  Rng base(42);
  Rng child1 = base.fork(1);
  Rng child2 = base.fork(2);
  EXPECT_NE(child1.seed(), child2.seed());
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

TEST(RngTest, DeriveSeedAvalanche) {
  // Adjacent tags must produce wildly different seeds.
  const std::uint64_t s1 = derive_seed(42, 0);
  const std::uint64_t s2 = derive_seed(42, 1);
  EXPECT_NE(s1, s2);
  EXPECT_GT(__builtin_popcountll(s1 ^ s2), 10);
}

TEST(RngTest, HashTagStable) {
  EXPECT_EQ(hash_tag("ccr=0.1"), hash_tag("ccr=0.1"));
  EXPECT_NE(hash_tag("ccr=0.1"), hash_tag("ccr=0.2"));
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, TruncatedNormalRespectsFloor) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.truncated_normal(1.0, 5.0, 0.25), 0.25);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(6.0, 1.5));
  EXPECT_NEAR(acc.mean(), 6.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 1.5, 0.05);
}

TEST(StatsTest, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);  // sample variance
}

TEST(StatsTest, AccumulatorMerge) {
  Accumulator a;
  Accumulator b;
  Accumulator all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, MergeWithEmpty) {
  Accumulator a;
  a.add(1.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(StatsTest, Percentiles) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
}

TEST(StatsTest, PercentileEmptyIsNaN) {
  // Release builds must not read out of bounds; empty in => NaN out.
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(StatsTest, PercentileRejectsBadQ) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)percentile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 1.1), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, std::nan("")), std::invalid_argument);
}

TEST(StatsTest, SummarizeEmptyAndSingle) {
  EXPECT_EQ(summarize({}).count, 0u);
  const std::vector<double> one = {7.0};
  const Summary s = summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(StatsTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5, 4), "1.5");
  EXPECT_EQ(format_double(2.0, 4), "2");
  EXPECT_EQ(format_double(0.1251, 2), "0.13");
}

TEST(ArgsTest, ParsesKeyValueForms) {
  // Note: `--key value` is greedy, so a bare boolean flag followed by a
  // positional would consume it — positionals go first or flags use `=`.
  const char* argv[] = {"prog", "positional", "--n=100", "--load", "0.5",
                        "--flag"};
  const Args args = Args::parse(6, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(args.get_double("load", 0.0), 0.5);
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(ArgsTest, Fallbacks) {
  const char* argv[] = {"prog"};
  const Args args = Args::parse(1, argv);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_or("missing", "x"), "x");
  EXPECT_FALSE(args.get_bool("missing", false));
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(ArgsTest, BooleanNegations) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=true"};
  const Args args = Args::parse(5, argv);
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

TEST(ArgsTest, Lists) {
  const char* argv[] = {"prog", "--ccr=0.1,1,10", "--n=100,200"};
  const Args args = Args::parse(3, argv);
  const auto ccrs = args.get_double_list("ccr", {});
  ASSERT_EQ(ccrs.size(), 3u);
  EXPECT_DOUBLE_EQ(ccrs[1], 1.0);
  const auto ns = args.get_int_list("n", {});
  ASSERT_EQ(ns.size(), 2u);
  EXPECT_EQ(ns[1], 200);
  const auto fallback = args.get_double_list("missing", {5.0});
  ASSERT_EQ(fallback.size(), 1u);
}

TEST(ArgsTest, RejectsMalformedNumbers) {
  // Every token here used to be silently read as 0 (or truncated): a typo'd
  // sweep flag would run the whole experiment with a bogus parameter.
  const char* argv[] = {"prog", "--n=abc", "--load=0.5x", "--m=10x"};
  const Args args = Args::parse(4, argv);
  EXPECT_THROW((void)args.get_int("n", 7), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("load", 1.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("m", 7), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("n", 1.0), std::invalid_argument);
}

TEST(ArgsTest, RejectsOutOfRangeNumbers) {
  const char* argv[] = {"prog", "--big=99999999999999999999", "--x=1e999"};
  const Args args = Args::parse(3, argv);
  EXPECT_THROW((void)args.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0.0), std::invalid_argument);
}

TEST(ArgsTest, BareFlagStillFallsBack) {
  // `--resume` followed by another flag parses as a valueless boolean; the
  // numeric accessors keep treating that as "not provided".
  const char* argv[] = {"prog", "--resume", "--n=3"};
  const Args args = Args::parse(3, argv);
  EXPECT_EQ(args.get_int("resume", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("resume", 1.5), 1.5);
}

TEST(ArgsTest, RejectsMalformedListSegments) {
  const char* argv[] = {"prog", "--ccr=0.1,oops,10", "--n=1,2x"};
  const Args args = Args::parse(3, argv);
  EXPECT_THROW((void)args.get_double_list("ccr", {}), std::invalid_argument);
  EXPECT_THROW((void)args.get_int_list("n", {}), std::invalid_argument);
}

TEST(ArgsTest, ListsSkipEmptySegments) {
  const char* argv[] = {"prog", "--ccr=0.1,,10,"};
  const Args args = Args::parse(2, argv);
  const auto ccrs = args.get_double_list("ccr", {});
  ASSERT_EQ(ccrs.size(), 2u);
  EXPECT_DOUBLE_EQ(ccrs[0], 0.1);
  EXPECT_DOUBLE_EQ(ccrs[1], 10.0);
}

/// The message reject_unread throws, or "" when every flag was read.
std::string unread_error(const Args& args) {
  try {
    args.reject_unread();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ArgsTest, RejectUnreadNamesEachFlagNothingRead) {
  const char* argv[] = {"prog",         "positional", "--rep=1000",
                        "--n=3",        "--bogus-flag", "--stddev"};
  const Args args = Args::parse(6, argv);
  EXPECT_EQ(args.get_int("reps", 5), 5);  // the typo falls back...
  EXPECT_EQ(args.get_int("n", 0), 3);
  EXPECT_TRUE(args.has("stddev"));
  // ...and is named, with the other unread flag, in name order. Flags
  // asked for but absent and positional arguments are not flags given.
  EXPECT_EQ(unread_error(args),
            "unknown or unused flags --bogus-flag, --rep");
  (void)args.get_or("rep", "");
  EXPECT_EQ(unread_error(args), "unknown or unused flag --bogus-flag");
  (void)args.get_bool("bogus-flag", false);
  EXPECT_EQ(unread_error(args), "");
}

TEST(ArgsTest, RejectUnreadCountsFailedReads) {
  // A flag whose value an accessor rejected was still read: its own error
  // names it, and reject_unread adds nothing.
  const char* argv[] = {"prog", "--n=abc"};
  const Args args = Args::parse(2, argv);
  EXPECT_THROW((void)args.get_int("n", 7), std::invalid_argument);
  EXPECT_EQ(unread_error(args), "");
}

TEST(ArgsTest, DoubleDashStopsParsing) {
  const char* argv[] = {"prog", "--a=1", "--", "--b=2"};
  const Args args = Args::parse(4, argv);
  EXPECT_TRUE(args.has("a"));
  EXPECT_FALSE(args.has("b"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "--b=2");
}

}  // namespace
}  // namespace ecs
