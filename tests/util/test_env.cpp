#include "util/env.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <string>

namespace picpar {
namespace {

// setenv/unsetenv are process-global; each test uses its own variable name
// and restores the environment so test order never matters.
class ScopedEnv {
public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

private:
  const char* name_;
};

TEST(ParseIntStrict, AcceptsPlainDecimals) {
  long out = -1;
  EXPECT_TRUE(parse_int_strict("0", LONG_MIN, LONG_MAX, out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(parse_int_strict("42", LONG_MIN, LONG_MAX, out));
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(parse_int_strict("-17", LONG_MIN, LONG_MAX, out));
  EXPECT_EQ(out, -17);
  EXPECT_TRUE(parse_int_strict("+8", LONG_MIN, LONG_MAX, out));
  EXPECT_EQ(out, 8);
}

TEST(ParseIntStrict, RejectsTrailingGarbage) {
  long out = 99;
  EXPECT_FALSE(parse_int_strict("1x", LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict("2 ", LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict(" 2", LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict(" 2 ", LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict("3.5", LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict("0x10", LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict("12,000", LONG_MIN, LONG_MAX, out));
  EXPECT_EQ(out, 99);  // untouched on failure
}

TEST(ParseIntStrict, RejectsEmptyAndSignOnly) {
  long out = 7;
  EXPECT_FALSE(parse_int_strict("", LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict(nullptr, LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict("-", LONG_MIN, LONG_MAX, out));
  EXPECT_FALSE(parse_int_strict("+", LONG_MIN, LONG_MAX, out));
  EXPECT_EQ(out, 7);
}

TEST(ParseIntStrict, RejectsOutOfRange) {
  long out = 5;
  EXPECT_FALSE(parse_int_strict("101", 0, 100, out));
  EXPECT_FALSE(parse_int_strict("-1", 0, 100, out));
  // Overflows long entirely.
  EXPECT_FALSE(
      parse_int_strict("99999999999999999999999", LONG_MIN, LONG_MAX, out));
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(parse_int_strict("100", 0, 100, out));
  EXPECT_EQ(out, 100);
}

TEST(EnvInt, ParsesWellFormedValue) {
  ScopedEnv e("PICPAR_TEST_INT_OK", "12");
  EXPECT_EQ(env_int("PICPAR_TEST_INT_OK", 3), 12);
}

TEST(EnvInt, UnsetUsesFallback) {
  ::unsetenv("PICPAR_TEST_INT_UNSET");
  EXPECT_EQ(env_int("PICPAR_TEST_INT_UNSET", 3), 3);
}

TEST(EnvInt, TrailingGarbageUsesFallback) {
  ScopedEnv e("PICPAR_TEST_INT_BAD", "1x");
  ::testing::internal::CaptureStderr();
  const int v = env_int("PICPAR_TEST_INT_BAD", 3);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(v, 3);
  // Exactly one warning, naming the variable, its value and the fallback.
  EXPECT_EQ(err,
            "[picpar:WARN] PICPAR_TEST_INT_BAD=\"1x\" is not a valid integer; "
            "using 3\n");
}

TEST(EnvInt, PaddedValueUsesFallback) {
  ScopedEnv e("PICPAR_TEST_INT_PAD", " 2 ");
  EXPECT_EQ(env_int("PICPAR_TEST_INT_PAD", 3), 3);
}

TEST(EnvInt, OutOfIntRangeUsesFallback) {
  ScopedEnv e("PICPAR_TEST_INT_HUGE", "99999999999");
  EXPECT_EQ(env_int("PICPAR_TEST_INT_HUGE", 3), 3);
}

TEST(EnvEnabled, BooleanRule) {
  {
    ScopedEnv e("PICPAR_TEST_BOOL", "1");
    EXPECT_TRUE(env_enabled("PICPAR_TEST_BOOL"));
  }
  {
    ScopedEnv e("PICPAR_TEST_BOOL", "0");
    EXPECT_FALSE(env_enabled("PICPAR_TEST_BOOL"));
  }
  {
    ScopedEnv e("PICPAR_TEST_BOOL", "");
    EXPECT_FALSE(env_enabled("PICPAR_TEST_BOOL"));
  }
  ::unsetenv("PICPAR_TEST_BOOL");
  EXPECT_FALSE(env_enabled("PICPAR_TEST_BOOL"));
}

}  // namespace
}  // namespace picpar
