// Tests for the CLI option parser used by benches and examples.
#include <gtest/gtest.h>

#include "base/options.hpp"

namespace nk {
namespace {

Options parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> keep;
  keep = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : keep) argv.push_back(const_cast<char*>(s.c_str()));
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, KeyEqualsValue) {
  auto o = parse({"--n=42", "--name=hpcg"});
  EXPECT_EQ(o.get_int("n", 0), 42);
  EXPECT_EQ(o.get("name", ""), "hpcg");
}

TEST(Options, KeySpaceValue) {
  auto o = parse({"--n", "17"});
  EXPECT_EQ(o.get_int("n", 0), 17);
}

TEST(Options, BareFlagIsTrue) {
  auto o = parse({"--verbose"});
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_FALSE(o.get_bool("quiet", false));
}

TEST(Options, Defaults) {
  auto o = parse({});
  EXPECT_EQ(o.get_int("missing", -3), -3);
  EXPECT_DOUBLE_EQ(o.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(o.get("missing", "d"), "d");
  EXPECT_FALSE(o.has("missing"));
}

TEST(Options, DoubleParsing) {
  auto o = parse({"--rtol=1e-8"});
  EXPECT_DOUBLE_EQ(o.get_double("rtol", 0.0), 1e-8);
}

TEST(Options, BoolSpellings) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
}

TEST(Options, IntList) {
  auto o = parse({"--sizes=4,8,16"});
  EXPECT_EQ(o.get_int_list("sizes", {}), (std::vector<int>{4, 8, 16}));
  EXPECT_EQ(o.get_int_list("missing", {1, 2}), (std::vector<int>{1, 2}));
}

TEST(Options, DoubleList) {
  auto o = parse({"--w=0.7,1.0,1.3"});
  EXPECT_EQ(o.get_double_list("w", {}), (std::vector<double>{0.7, 1.0, 1.3}));
}

TEST(Options, StringList) {
  auto o = parse({"--m=a,b,c"});
  EXPECT_EQ(o.get_list("m", {}), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Options, Positional) {
  auto o = parse({"file.mtx", "--n=2", "other"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "file.mtx");
  EXPECT_EQ(o.positional()[1], "other");
}

TEST(Options, NegativeNumberIsPositional) {
  auto o = parse({"-3"});
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "-3");
}

TEST(Options, NegativeDoubleIsPositional) {
  auto o = parse({"-2.5", "file.mtx"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "-2.5");
}

TEST(Options, HighBitCharPositionalIsNotUb) {
  // A single-dash token whose second byte is a non-ASCII (negative char)
  // value — e.g. a UTF-8 filename — must not feed a negative value to
  // isdigit (UB); it parses as a flag, not a crash.
  auto o = parse({"-\xc3\xa9tude"});  // "-étude"
  EXPECT_TRUE(o.get_bool("\xc3\xa9tude", false));
  EXPECT_TRUE(o.positional().empty());
}

// ------------------------------------------------------------ malformed
// numerics: every parse failure must exit(2) with a one-line message
// naming the flag and the offending value — not an uncaught exception.

TEST(OptionsDeathTest, MalformedIntExitsWithMessage) {
  EXPECT_EXIT(parse({"--n=abc"}).get_int("n", 0), ::testing::ExitedWithCode(2),
              "invalid integer value 'abc' for --n");
}

TEST(OptionsDeathTest, TrailingGarbageIntRejected) {
  EXPECT_EXIT(parse({"--n=8x"}).get_int("n", 0), ::testing::ExitedWithCode(2),
              "trailing garbage in integer value '8x' for --n");
}

TEST(OptionsDeathTest, OverflowIntRejected) {
  EXPECT_EXIT(parse({"--n=99999999999"}).get_int("n", 0), ::testing::ExitedWithCode(2),
              "out-of-range integer value '99999999999' for --n");
}

TEST(OptionsDeathTest, OverflowInt64Rejected) {
  EXPECT_EXIT(parse({"--n=99999999999999999999"}).get_int64("n", 0),
              ::testing::ExitedWithCode(2), "out-of-range integer");
}

TEST(OptionsDeathTest, EmptyIntValueRejected) {
  EXPECT_EXIT(parse({"--n="}).get_int("n", 0), ::testing::ExitedWithCode(2),
              "invalid integer value '' for --n");
}

TEST(OptionsDeathTest, MalformedDoubleExitsWithMessage) {
  EXPECT_EXIT(parse({"--rtol=fast"}).get_double("rtol", 0.0),
              ::testing::ExitedWithCode(2), "invalid number value 'fast' for --rtol");
}

TEST(OptionsDeathTest, TrailingGarbageDoubleRejected) {
  EXPECT_EXIT(parse({"--rtol=1e-8z"}).get_double("rtol", 0.0),
              ::testing::ExitedWithCode(2), "trailing garbage in number value '1e-8z'");
}

TEST(OptionsDeathTest, OverflowDoubleRejected) {
  EXPECT_EXIT(parse({"--rtol=1e999"}).get_double("rtol", 0.0),
              ::testing::ExitedWithCode(2), "out-of-range number value '1e999'");
}

TEST(OptionsDeathTest, MalformedIntListTokenRejected) {
  EXPECT_EXIT(parse({"--sizes=4,8q,16"}).get_int_list("sizes", {}),
              ::testing::ExitedWithCode(2), "trailing garbage in integer value '8q'");
}

TEST(OptionsDeathTest, MalformedDoubleListTokenRejected) {
  EXPECT_EXIT(parse({"--w=0.7,oops"}).get_double_list("w", {}),
              ::testing::ExitedWithCode(2), "invalid number value 'oops' for --w");
}

TEST(Options, WellFormedNumericsStillParse) {
  auto o = parse({"--a=-42", "--b=+7", "--c=-1.25e-3"});
  EXPECT_EQ(o.get_int("a", 0), -42);
  EXPECT_EQ(o.get_int("b", 0), 7);
  EXPECT_DOUBLE_EQ(o.get_double("c", 0.0), -1.25e-3);
}

TEST(Options, BoolExtraSpellings) {
  EXPECT_TRUE(parse({"--x=on"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=off"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
  EXPECT_TRUE(parse({"--x"}).get_bool("x", false));  // bare flag
}

TEST(Options, CsvListEdgeCases) {
  EXPECT_EQ(parse({"--s=4,,8"}).get_int_list("s", {}), (std::vector<int>{4, 8}));
  EXPECT_EQ(parse({"--s=,"}).get_int_list("s", {-1}), (std::vector<int>{}));
  EXPECT_EQ(parse({"--w=1.5,"}).get_double_list("w", {}), (std::vector<double>{1.5}));
  EXPECT_EQ(parse({"--m=a,,b"}).get_list("m", {}), (std::vector<std::string>{"a", "b"}));
}

TEST(Options, HelpRendering) {
  auto o = parse({"--help"});
  EXPECT_TRUE(o.wants_help());
  o.describe("n", "problem size");
  const std::string h = o.help("prog");
  EXPECT_NE(h.find("--n"), std::string::npos);
  EXPECT_NE(h.find("problem size"), std::string::npos);
}

TEST(OptionsDeathTest, UnreadFlagIsRejectedByName) {
  EXPECT_EXIT(
      {
        auto o = parse({"--scale=2", "--bogus-flag=3"});
        (void)o.get_int("scale", 1);
        o.reject_unknown();
      },
      ::testing::ExitedWithCode(2), "unknown flag --bogus-flag");
}

TEST(OptionsDeathTest, TypoOfAReadFlagIsRejected) {
  // --scael is not --scale: the getter's default must not silently win.
  EXPECT_EXIT(
      {
        auto o = parse({"--scael=2"});
        (void)o.get_int("scale", 1);
        o.reject_unknown();
      },
      ::testing::ExitedWithCode(2), "unknown flag --scael");
}

TEST(Options, EveryLookupCountsAsRead) {
  // A flag is known once any getter or has() looked it up, present or not;
  // --help/-h are known once wants_help() is asked.
  auto o = parse({"--n=4", "--w=0.5,1", "--quiet", "--tag", "x", "--help", "-h", "pos"});
  (void)o.get_int("n", 0);
  (void)o.get_double_list("w", {});
  (void)o.has("quiet");
  (void)o.get("tag", "");
  (void)o.get_int("absent", 7);
  EXPECT_TRUE(o.wants_help());
  o.reject_unknown();  // returns: nothing unread
  EXPECT_EQ(o.positional(), (std::vector<std::string>{"pos"}));
}

}  // namespace
}  // namespace nk
