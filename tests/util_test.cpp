// Unit tests for src/util: RNG, distributions, statistics,
// CSV, table rendering, CLI parsing, number formatting.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace repl {
namespace {

TEST(Check, CheckThrowsCheckFailure) {
  EXPECT_THROW([] { REPL_CHECK(1 == 2); }(), CheckFailure);
  EXPECT_NO_THROW([] { REPL_CHECK(1 == 1); }());
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW([] { REPL_REQUIRE(false); }(), std::invalid_argument);
}

TEST(Check, MessagesIncludeExpressionAndText) {
  try {
    REPL_CHECK_MSG(false, "extra " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("extra 42"), std::string::npos);
  }
}

// Component names are formatted with format_general and recorded in
// snapshots written by builds that streamed the number through an
// ostream, so the two spellings must agree for every double.
TEST(Format, GeneralMatchesOstreamDefaultPrecision) {
  std::vector<double> values = {
      0.0, -0.0, 0.3, 0.30000000000000004, 1.5, 0.1, 1.0, 10.0, 100000.0,
      999999.5, 1234567.0, 1e-5, 0.0001, 0.00012345678, 123456.7, 1e300,
      -2.5e-310, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max()};
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(std::bit_cast<double>(rng.next_u64()));
    values.push_back(rng.uniform(0.0, 2.0));
  }
  for (const double value : values) {
    std::ostringstream os;
    os << value;
    ASSERT_EQ(format_general(value), os.str());
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanCloseToCenter) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform(2.0, 4.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.01);
  EXPECT_GE(stats.min(), 2.0);
  EXPECT_LT(stats.max(), 4.0);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, draws / 10, draws / 10 * 0.15);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(0.25));
  EXPECT_NEAR(stats.mean(), 4.0, 0.08);
}

TEST(Rng, ParetoRespectsScaleAndMean) {
  Rng rng(19);
  RunningStats stats;
  const double x_min = 2.0, shape = 3.0;
  for (int i = 0; i < 200000; ++i) stats.add(rng.pareto(x_min, shape));
  EXPECT_GE(stats.min(), x_min);
  // mean = shape*x_min/(shape-1) = 3.0
  EXPECT_NEAR(stats.mean(), 3.0, 0.08);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(-1.0, 2.0));
  EXPECT_NEAR(stats.mean(), -1.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(29);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits, 30000, 1500);
}

TEST(Rng, SplitProducesDecorrelatedStreams) {
  Rng a(31);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(-1.0, 2.0), std::invalid_argument);
}

TEST(Zipf, PmfMatchesDefinition) {
  const ZipfDistribution zipf(10, 1.0);
  double h10 = 0.0;
  for (int i = 1; i <= 10; ++i) h10 += 1.0 / i;
  for (int i = 1; i <= 10; ++i) {
    EXPECT_NEAR(zipf.pmf(i), (1.0 / i) / h10, 1e-12);
  }
}

TEST(Zipf, PmfSumsToOne) {
  const ZipfDistribution zipf(25, 0.8);
  double total = 0.0;
  for (int i = 1; i <= 25; ++i) total += zipf.pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, SamplingMatchesPmf) {
  const ZipfDistribution zipf(10, 1.0);
  Rng rng(37);
  std::vector<int> counts(11, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    ++counts[static_cast<std::size_t>(zipf.sample(rng))];
  }
  for (int i = 1; i <= 10; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<std::size_t>(i)]) /
                    draws,
                zipf.pmf(i),
                5e-3)
        << "value " << i;
  }
}

TEST(Zipf, DegenerateSingleValue) {
  const ZipfDistribution zipf(1, 1.0);
  Rng rng(41);
  EXPECT_EQ(zipf.sample(rng), 1);
  EXPECT_NEAR(zipf.pmf(1), 1.0, 1e-12);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> xs = {1.5, -2.0, 3.25, 0.0, 10.0, -7.5};
  double sum = 0.0;
  for (double x : xs) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_EQ(stats.min(), -7.5);
  EXPECT_EQ(stats.max(), 10.0);
  EXPECT_NEAR(stats.sum(), sum, 1e-12);
}

TEST(RunningStats, MergeEqualsPooled) {
  Rng rng(43);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0, 1);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 1.0);
}

TEST(Quantile, InterpolatesLikeNumpy) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_NEAR(quantile(xs, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(quantile(xs, 1.0), 4.0, 1e-12);
  EXPECT_NEAR(quantile(xs, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(quantile(xs, 0.25), 1.75, 1e-12);
}

TEST(Quantile, MultipleWithOneSort) {
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  const auto qs = quantiles(xs, {0.0, 0.5, 1.0});
  EXPECT_EQ(qs.size(), 3u);
  EXPECT_NEAR(qs[0], 1.0, 1e-12);
  EXPECT_NEAR(qs[1], 3.0, 1e-12);
  EXPECT_NEAR(qs[2], 5.0, 1e-12);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(Correlation, PerfectAndAnti) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  std::vector<double> neg;
  for (double y : ys) neg.push_back(-y);
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(xs, neg), -1.0, 1e-12);
}

TEST(Csv, RowRoundTrip) {
  std::ostringstream os;
  write_csv_row(os, {"plain", "with,comma", "with\"quote", "multi\nline"});
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_EQ(rows[0][0], "plain");
  EXPECT_EQ(rows[0][1], "with,comma");
  EXPECT_EQ(rows[0][2], "with\"quote");
  EXPECT_EQ(rows[0][3], "multi\nline");
}

TEST(Csv, ParsesMultipleRowsAndEmptyFields) {
  const auto rows = parse_csv("a,b,c\n1,,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "");
  EXPECT_EQ(rows[1][2], "3");
}

TEST(Csv, RejectsUnterminatedQuote) {
  EXPECT_THROW(parse_csv("\"oops"), std::invalid_argument);
}

TEST(Csv, FormatDoubleRoundTrips) {
  const double value = 0.1 + 0.2;
  EXPECT_EQ(std::stod(format_double(value)), value);
}

TEST(Table, RendersAlignedRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", Table::cell(0.5, 2)});
  table.add_row({"longer-name", Table::cell(12.0, 2)});
  const std::string out = table.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("0.50"), std::string::npos);
  EXPECT_NE(out.find("12.00"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, MarkdownShape) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  const std::string md = table.markdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Cli, ParsesTypedFlags) {
  CliParser cli("prog", "test");
  cli.add_flag("alpha", "0.5", "distrust");
  cli.add_flag("n", "10", "count");
  cli.add_bool_flag("verbose", "chatty");
  cli.add_flag("lambdas", "1,2", "list");
  const char* argv[] = {"prog", "--alpha=0.25", "--n", "42", "--verbose",
                        "--lambdas=10,100,1000"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 0.25);
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_TRUE(cli.get_bool("verbose"));
  const auto lambdas = cli.get_double_list("lambdas");
  ASSERT_EQ(lambdas.size(), 3u);
  EXPECT_DOUBLE_EQ(lambdas[2], 1000.0);
}

TEST(Cli, DefaultsApply) {
  CliParser cli("prog", "test");
  cli.add_flag("alpha", "0.5", "distrust");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 0.5);
}

TEST(Cli, RejectsUnknownFlagAndBadValues) {
  CliParser cli("prog", "test");
  cli.add_flag("alpha", "0.5", "distrust");
  const char* bad[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, bad), std::invalid_argument);
  CliParser cli2("prog", "test");
  cli2.add_flag("alpha", "0.5", "distrust");
  const char* badval[] = {"prog", "--alpha=xyz"};
  ASSERT_TRUE(cli2.parse(2, badval));
  EXPECT_THROW(cli2.get_double("alpha"), std::invalid_argument);
}

TEST(Cli, BoolFlagEqualsFormValidatesItsValue) {
  // `--verbose=yes` used to parse as true silently; only the two literal
  // spellings are legal.
  CliParser cli("prog", "test");
  cli.add_bool_flag("verbose", "chatty");
  const char* yes[] = {"prog", "--verbose=yes"};
  try {
    cli.parse(2, yes);
    FAIL() << "--verbose=yes must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'true' or 'false'"),
              std::string::npos)
        << e.what();
  }

  CliParser explicit_true("prog", "test");
  explicit_true.add_bool_flag("verbose", "chatty");
  const char* on[] = {"prog", "--verbose=true"};
  ASSERT_TRUE(explicit_true.parse(2, on));
  EXPECT_TRUE(explicit_true.get_bool("verbose"));

  CliParser explicit_false("prog", "test");
  explicit_false.add_bool_flag("verbose", "chatty");
  const char* off[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(explicit_false.parse(2, off));
  EXPECT_FALSE(explicit_false.get_bool("verbose"));
}

TEST(Cli, RejectsDuplicateFlags) {
  // A repeated flag is a typo'd command line, not a last-one-wins merge.
  CliParser cli("prog", "test");
  cli.add_flag("alpha", "0.5", "distrust");
  const char* twice[] = {"prog", "--alpha=0.1", "--alpha=0.2"};
  try {
    cli.parse(3, twice);
    FAIL() << "duplicate value flag must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate flag: --alpha"),
              std::string::npos)
        << e.what();
  }

  CliParser mixed("prog", "test");
  mixed.add_flag("alpha", "0.5", "distrust");
  const char* spaced[] = {"prog", "--alpha", "0.1", "--alpha=0.2"};
  EXPECT_THROW(mixed.parse(4, spaced), std::invalid_argument);

  CliParser flags("prog", "test");
  flags.add_bool_flag("verbose", "chatty");
  const char* twice_bool[] = {"prog", "--verbose", "--verbose"};
  EXPECT_THROW(flags.parse(3, twice_bool), std::invalid_argument);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

}  // namespace
}  // namespace repl
