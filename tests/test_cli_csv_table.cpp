// Tests for util/cli.hpp, util/csv.hpp, util/table.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace haste::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  const Flags flags = parse({"--trials=20", "--seed=7"});
  EXPECT_EQ(flags.get_int("trials", 0), 20);
  EXPECT_EQ(flags.get_int("seed", 0), 7);
}

TEST(Cli, SpaceForm) {
  const Flags flags = parse({"--trials", "20"});
  EXPECT_EQ(flags.get_int("trials", 0), 20);
}

TEST(Cli, BooleanFlag) {
  const Flags flags = parse({"--full", "--csv=out.csv"});
  EXPECT_TRUE(flags.get_bool("full"));
  EXPECT_FALSE(flags.get_bool("quick"));
  EXPECT_EQ(flags.get("csv"), "out.csv");
}

TEST(Cli, BooleanExplicitValues) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x"));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x"));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x"));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x"));
  EXPECT_THROW(parse({"--x=maybe"}).get_bool("x"), std::invalid_argument);
}

TEST(Cli, FallbacksWhenAbsent) {
  const Flags flags = parse({});
  EXPECT_EQ(flags.get_int("trials", 5), 5);
  EXPECT_DOUBLE_EQ(flags.get_double("rho", 0.25), 0.25);
  EXPECT_EQ(flags.get("csv", "none"), "none");
}

TEST(Cli, MalformedNumberThrows) {
  const Flags flags = parse({"--trials=abc"});
  EXPECT_THROW(flags.get_int("trials", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--rho=x2"}).get_double("rho", 0), std::invalid_argument);
}

TEST(Cli, PositionalArguments) {
  const Flags flags = parse({"first", "--k=1", "second"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "first");
  EXPECT_EQ(flags.positional()[1], "second");
}

TEST(Cli, IntOutOfRangeThrowsInsteadOfClamping) {
  // Pre-fix, strtoll clamped to INT64_MAX and the bogus value flowed on.
  const Flags flags = parse({"--big", "99999999999999999999999"});
  EXPECT_THROW(flags.get_int("big", 0), std::out_of_range);
  const Flags negative = parse({"--big", "-99999999999999999999999"});
  EXPECT_THROW(negative.get_int("big", 0), std::out_of_range);
}

TEST(Cli, RangedIntNeverWrapsIntoAnotherInt) {
  // 3000000000 used to wrap to a negative int through static_cast<int>.
  const Flags flags = parse({"--colors", "3000000000"});
  EXPECT_THROW(flags.get_int_in("colors", 4, 1), std::out_of_range);
  const Flags low = parse({"--colors", "-3000000000"});
  EXPECT_THROW(low.get_int_in("colors", 4), std::out_of_range);
  EXPECT_EQ(parse({"--colors", "2147483647"}).get_int_in("colors", 4, 1), 2147483647);
}

TEST(Cli, RangedIntRejectsValuesBelowTheMinimum) {
  for (const char* value : {"0", "-3"}) {
    EXPECT_THROW(parse({"--colors", value}).get_int_in("colors", 4, 1), std::out_of_range)
        << value;
  }
  for (const char* value : {"0", "-7"}) {
    EXPECT_THROW(parse({"--samples", value}).get_int_in("samples", 16, 1), std::out_of_range)
        << value;
  }
  EXPECT_EQ(parse({"--colors", "1"}).get_int_in("colors", 4, 1), 1);
  EXPECT_EQ(parse({"--colors", "3"}).get_int_in("colors", 4, 1, 3), 3);
  EXPECT_THROW(parse({"--colors", "4"}).get_int_in("colors", 1, 1, 3), std::out_of_range);
}

TEST(Cli, RangedIntChecksTheFallbackAndNamesTheFlag) {
  const Flags absent = parse({});
  EXPECT_EQ(absent.get_int_in("samples", 16, 1), 16);
  // A derived default (samples = 4 * colors) can leave the int range too.
  EXPECT_THROW(absent.get_int_in("samples", 4 * std::int64_t{2147483647}, 1),
               std::out_of_range);
  try {
    parse({"--samples", "0"}).get_int_in("samples", 16, 1);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& error) {
    EXPECT_EQ(std::string(error.what()),
              "flag --samples value 0 is outside [1, 2147483647]");
  }
  EXPECT_THROW(parse({"--samples", "x"}).get_int_in("samples", 16, 1),
               std::invalid_argument);
}

TEST(Cli, DoubleOverflowThrowsInsteadOfClampingToInfinity) {
  const Flags flags = parse({"--huge", "1e400"});
  EXPECT_THROW(flags.get_double("huge", 0.0), std::out_of_range);
  const Flags negative = parse({"--huge", "-1e400"});
  EXPECT_THROW(negative.get_double("huge", 0.0), std::out_of_range);
}

TEST(Cli, DoubleUnderflowIsNotAnError) {
  // ERANGE also fires for denormal underflow; a tiny-but-representable
  // value is valid input, not an error.
  const Flags flags = parse({"--tiny", "1e-320"});
  const double value = flags.get_double("tiny", 1.0);
  EXPECT_GT(value, 0.0);
  EXPECT_LT(value, 1e-300);
}

TEST(Cli, DoubleValue) {
  EXPECT_DOUBLE_EQ(parse({"--rho=0.0833"}).get_double("rho", 0), 0.0833);
}

TEST(Cli, NamesLists) {
  const Flags flags = parse({"--a=1", "--b"});
  const auto names = flags.names();
  EXPECT_EQ(names.size(), 2u);
}

TEST(Cli, UnknownFlagsNamesEveryUndeclaredFlag) {
  const Flags flags = parse({"--in", "s.json", "--algoritm", "online-haste", "--colours=9"});
  EXPECT_EQ(flags.unknown_flags({"in", "algorithm", "colors"}),
            "unknown flags --algoritm, --colours");
  EXPECT_EQ(flags.unknown_flags({"in", "algoritm", "colors"}), "unknown flag --colours");
  EXPECT_EQ(flags.unknown_flags({"in", "algoritm", "colours", "unused"}), "");
  EXPECT_EQ(parse({}).unknown_flags({}), "");
}

TEST(Csv, EscapePlain) { EXPECT_EQ(csv_escape("hello"), "hello"); }

TEST(Csv, EscapeComma) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(Csv, EscapeQuote) { EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\""); }

TEST(Csv, EscapeNewline) { EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\""); }

TEST(Csv, WriterRowsAndHeader) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"x", "y"});
  writer.row(std::vector<std::string>{"1", "two"});
  writer.row(std::vector<double>{0.5, 2.0});
  EXPECT_EQ(out.str(), "x,y\n1,two\n0.5,2\n");
}

TEST(Csv, FormatDoubleRoundTrips) {
  const double value = 0.1234567890123456789;
  EXPECT_EQ(std::stod(format_double(value)), value);
}

TEST(Table, AlignsColumns) {
  Table table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "2"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumericRowFormatting) {
  Table table({"label", "v1", "v2"});
  table.add_row("row", {1.23456, 2.0}, 2);
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("1.23"), std::string::npos);
  EXPECT_NE(out.str().find("2.00"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(Table, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
}

}  // namespace
}  // namespace haste::util
