#include "util/args.h"

#include <gtest/gtest.h>

#include <string>

namespace scda::util {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, SpaceSeparatedValues) {
  const auto a = parse({"--name", "value"});
  EXPECT_TRUE(a.has("name"));
  EXPECT_EQ(a.get("name"), "value");
}

TEST(ArgParser, EqualsSeparatedValues) {
  const auto a = parse({"--name=value"});
  EXPECT_EQ(a.get("name"), "value");
}

TEST(ArgParser, BareFlagIsEmptyString) {
  const auto a = parse({"--verbose"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_TRUE(a.get_bool("verbose", false));
}

TEST(ArgParser, MissingFlagUsesDefault) {
  const auto a = parse({});
  EXPECT_FALSE(a.has("x"));
  EXPECT_EQ(a.get("x", "def"), "def");
  EXPECT_DOUBLE_EQ(a.get_double("x", 2.5), 2.5);
  EXPECT_EQ(a.get_int("x", 7), 7);
  EXPECT_TRUE(a.get_bool("x", true));
}

TEST(ArgParser, NumericParsing) {
  const auto a = parse({"--rate", "12.5", "--count=42"});
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0), 12.5);
  EXPECT_EQ(a.get_int("count", 0), 42);
}

TEST(ArgParser, MalformedNumbersThrow) {
  const auto a = parse({"--rate", "abc", "--count", "1.5", "--inf", "inf",
                        "--neg-inf=-inf", "--upper", "INFINITY", "--nan", "nan",
                        "--huge", "1e999"});
  EXPECT_THROW((void)a.get_double("rate", 0), std::invalid_argument);
  EXPECT_THROW((void)a.get_int("count", 0), std::invalid_argument);
  // No flag takes an infinite or NaN number; the error names the flag.
  for (const std::string flag : {"inf", "neg-inf", "upper", "nan", "huge"}) {
    try {
      (void)a.get_double(flag, 0);
      ADD_FAILURE() << "--" << flag << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string want = "--" + flag + ": expected a finite number";
      EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u) << e.what();
    }
  }
}

TEST(ArgParser, BooleanValues) {
  const auto a = parse({"--on=1", "--off=false"});
  EXPECT_TRUE(a.get_bool("on", false));
  EXPECT_FALSE(a.get_bool("off", true));
}

TEST(ArgParser, MalformedBooleanThrows) {
  const auto a = parse({"--flag=maybe"});
  EXPECT_THROW((void)a.get_bool("flag", false), std::invalid_argument);
}

TEST(ArgParser, PositionalArguments) {
  const auto a = parse({"input.csv", "--flag", "output.csv"});
  // "--flag output.csv" consumes output.csv as the flag's value.
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "input.csv");
  EXPECT_EQ(a.get("flag"), "output.csv");
}

TEST(ArgParser, ConsecutiveFlags) {
  const auto a = parse({"--a", "--b", "value"});
  EXPECT_TRUE(a.has("a"));
  EXPECT_EQ(a.get("a"), "");
  EXPECT_EQ(a.get("b"), "value");
}

TEST(ArgParser, UnknownFlagOrPositionalRefusedByName) {
  const auto ok = parse({"--x=1", "--y", "2", "--help"});
  EXPECT_NO_THROW(ok.refuse_unknown({"x", "y"}));
  const auto typo = parse({"--x=1", "--replica", "3"});
  try {
    typo.refuse_unknown({"x", "replicas"});
    ADD_FAILURE() << "accepted --replica";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --replica");
  }
  const auto stray = parse({"--x", "1", "stray"});
  try {
    stray.refuse_unknown({"x"});
    ADD_FAILURE() << "accepted a stray argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unexpected argument 'stray'");
  }
}

TEST(ArgParser, CountsBelowOneOrPastUnsignedThrow) {
  const auto a = parse({"--n=-1", "--z=0", "--big=5000000000", "--ok=3"});
  EXPECT_EQ(a.get_count("ok", 1), 3u);
  EXPECT_EQ(a.get_count("absent", 4), 4u);
  try {
    (void)a.get_count("n", 1);
    ADD_FAILURE() << "accepted --n=-1";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--n must be in [1, 4294967295], got -1");
  }
  EXPECT_THROW((void)a.get_count("z", 1), std::invalid_argument);
  try {
    (void)a.get_count("big", 1);
    ADD_FAILURE() << "accepted --big=5000000000";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--big must be in [1, 4294967295], got 5000000000");
  }
}

TEST(ArgParser, FixedWidthIntegersOutsideTheirTypeThrow) {
  const auto a = parse({"--k=4294967300", "--agg=-2147483649",
                        "--ok=-2147483648", "--x=4.5"});
  EXPECT_EQ(a.get_int_as<std::int32_t>("ok", 1), -2147483647 - 1);
  EXPECT_EQ(a.get_int_as<std::int32_t>("absent", 7), 7);
  try {
    (void)a.get_int_as<std::int32_t>("k", 4);
    ADD_FAILURE() << "accepted --k=4294967300";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--k must be in [-2147483648, 2147483647], got 4294967300");
  }
  EXPECT_THROW((void)a.get_int_as<std::int32_t>("agg", 4),
               std::invalid_argument);
  try {
    (void)a.get_int_as<std::int32_t>("x", 1);
    ADD_FAILURE() << "accepted --x=4.5";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--x: expected an integer, got '4.5'");
  }
}

}  // namespace
}  // namespace scda::util
