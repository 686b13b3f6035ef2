#include "util/args.h"

#include <gtest/gtest.h>

namespace metadock::util {
namespace {

ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, PositionalsCollected) {
  const ArgParser a = parse({"dock", "extra"});
  ASSERT_EQ(a.positionals().size(), 2u);
  EXPECT_EQ(a.positionals()[0], "dock");
  EXPECT_EQ(a.positionals()[1], "extra");
}

TEST(Args, KeyValueSpaceForm) {
  const ArgParser a = parse({"--node", "hertz"});
  EXPECT_TRUE(a.has("node"));
  EXPECT_EQ(a.get("node"), "hertz");
}

TEST(Args, KeyValueEqualsForm) {
  const ArgParser a = parse({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(a.get("scale", 1.0), 0.25);
}

TEST(Args, BareFlag) {
  const ArgParser a = parse({"--verbose"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get("verbose", std::string("x")), "");
}

TEST(Args, FlagFollowedByOption) {
  const ArgParser a = parse({"--verbose", "--node", "jupiter"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get("node"), "jupiter");
}

TEST(Args, NumericFallbacks) {
  const ArgParser a = parse({"--seed", "7"});
  EXPECT_EQ(a.get("seed", std::int64_t{42}), 7);
  EXPECT_EQ(a.get("missing", std::int64_t{42}), 42);
  EXPECT_DOUBLE_EQ(a.get("missing", 1.5), 1.5);
}

TEST(Args, BadNumberThrows) {
  const ArgParser a = parse({"--scale", "abc", "--count", "3x", "--seed", "1.5"});
  EXPECT_THROW((void)a.get("scale", 1.0), std::invalid_argument);
  EXPECT_THROW((void)a.get("scale", std::int64_t{1}), std::invalid_argument);
  EXPECT_THROW((void)a.get("count", 1.0), std::invalid_argument);
  EXPECT_THROW((void)a.get("count", std::int64_t{1}), std::invalid_argument);
  EXPECT_THROW((void)a.get("seed", std::int64_t{1}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(a.get("seed", 1.0), 1.5);
}

TEST(Args, MixedPositionalsAndOptions) {
  const ArgParser a = parse({"dock", "--mh", "M2", "--out=f.pdb"});
  EXPECT_EQ(a.positionals().size(), 1u);
  EXPECT_EQ(a.get("mh"), "M2");
  EXPECT_EQ(a.get("out"), "f.pdb");
}

TEST(Args, UnknownKeysDetected) {
  const ArgParser a = parse({"--mh", "M2", "--typo", "x"});
  const auto unknown = a.unknown_keys({"mh", "node"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, EmptyArgvIsEmpty) {
  const ArgParser a = parse({});
  EXPECT_TRUE(a.positionals().empty());
  EXPECT_FALSE(a.has("anything"));
}

}  // namespace
}  // namespace metadock::util
