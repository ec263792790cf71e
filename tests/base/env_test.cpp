// Tests for the runtime-environment report printed by every bench header.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "base/env.hpp"

namespace nk {
namespace {

TEST(Env, ThreadCountIsPositive) {
  EXPECT_GE(num_threads(), 1);
}

TEST(Env, SummaryReportsThreadCount) {
  const std::string s = env_summary();
  EXPECT_NE(s.find("threads=" + std::to_string(num_threads())), std::string::npos);
}

TEST(Env, SummaryReportsF16cConsistentWithPredicate) {
  const std::string s = env_summary();
  EXPECT_NE(s.find(has_f16c() ? "f16c=yes" : "f16c=no"), std::string::npos);
}

TEST(Env, SummaryReportsOpenmpAndBuildFields) {
  const std::string s = env_summary();
  EXPECT_NE(s.find("openmp="), std::string::npos);
  EXPECT_NE(s.find("build="), std::string::npos);
}

TEST(Env, Fp16KernelsFieldNamesTheActiveImplementation) {
  const std::string s = env_summary();
  const char* want = has_f16c() ? "fp16-kernels=f16c" : "fp16-kernels=scalar";
  EXPECT_NE(s.find(want), std::string::npos) << s;
}

TEST(Env, SummaryIsStableAcrossCalls) {
  // The report describes the build/runtime, not per-call state.
  EXPECT_EQ(env_summary(), env_summary());
}

TEST(Env, SummaryBackendFieldTracksRequestedVsActive) {
  // The backend= field reports the ACTIVE (canonical) backend, with the
  // requested spelling appended whenever it differs — an alias or a value
  // Session will refuse to build with.  Consistency contract: what the
  // summary names must be exactly what resolve-at-build-time would pick.
  ::unsetenv("NKRYLOV_BACKEND");
  EXPECT_NE(env_summary().find("backend=host"), std::string::npos) << env_summary();

  struct Guard {
    ~Guard() { ::unsetenv("NKRYLOV_BACKEND"); }
  } guard;
  ::setenv("NKRYLOV_BACKEND", "serial", 1);
  EXPECT_NE(env_summary().find("backend=serial"), std::string::npos) << env_summary();
  ::setenv("NKRYLOV_BACKEND", "host", 1);
  EXPECT_NE(env_summary().find("backend=host"), std::string::npos) << env_summary();
  // Alias: active host, requested omp — both visible.
  ::setenv("NKRYLOV_BACKEND", "omp", 1);
  EXPECT_NE(env_summary().find("backend=host(requested=omp)"), std::string::npos)
      << env_summary();
  // Invalid: no silent fallback in the report either.
  ::setenv("NKRYLOV_BACKEND", "cuda", 1);
  EXPECT_NE(env_summary().find("backend=invalid(requested=cuda)"), std::string::npos)
      << env_summary();
}

// ---------------------------------------------------------------------------
// Checked env-knob parsers.  env_long/env_flag parse on every call (the
// production call sites add their own one-time caching), so the tests can
// drive them directly through setenv.  Only the RESULT is asserted; the
// one-per-variable warning goes to stderr and is not captured here.
// ---------------------------------------------------------------------------

struct EnvVarGuard {
  std::string name;
  explicit EnvVarGuard(std::string n) : name(std::move(n)) {}
  ~EnvVarGuard() { ::unsetenv(name.c_str()); }
  void set(const char* v) { ::setenv(name.c_str(), v, 1); }
};

TEST(EnvChecked, LongParsesExactValues) {
  EnvVarGuard g("NKRYLOV_TEST_LONG");
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 42);  // unset -> default
  g.set("0");
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 0);
  g.set("123456");
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 123456);
}

TEST(EnvChecked, LongRejectsTrailingGarbage) {
  // The PR 4 checked-parse policy: "4096x" must NOT parse as 4096.
  EnvVarGuard g("NKRYLOV_TEST_LONG");
  g.set("4096x");
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 42);
  g.set("x4096");
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 42);
  g.set("");
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 42);
  g.set("12 34");
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 42);
  g.set("999999999999999999999999999999");  // ERANGE
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 42);
}

TEST(EnvChecked, LongEnforcesMinimum) {
  EnvVarGuard g("NKRYLOV_TEST_LONG");
  g.set("-3");
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, 0), 42);   // below min -> default
  EXPECT_EQ(env_long("NKRYLOV_TEST_LONG", 42, -10), -3); // within min -> value
}

TEST(EnvChecked, FlagParsesTheDocumentedSpellings) {
  EnvVarGuard g("NKRYLOV_TEST_FLAG");
  EXPECT_TRUE(env_flag("NKRYLOV_TEST_FLAG", true));    // unset -> default
  EXPECT_FALSE(env_flag("NKRYLOV_TEST_FLAG", false));
  for (const char* v : {"0", "off", "false", "no"}) {
    g.set(v);
    EXPECT_FALSE(env_flag("NKRYLOV_TEST_FLAG", true)) << v;
  }
  for (const char* v : {"1", "on", "true", "yes"}) {
    g.set(v);
    EXPECT_TRUE(env_flag("NKRYLOV_TEST_FLAG", false)) << v;
  }
}

TEST(EnvChecked, FlagFallsBackOnGarbage) {
  // Garbage used to silently count as truthy at the flag sites; now it
  // keeps the site's default.
  EnvVarGuard g("NKRYLOV_TEST_FLAG");
  for (const char* v : {"2", "ON", "tru", "enabled", ""}) {
    g.set(v);
    EXPECT_TRUE(env_flag("NKRYLOV_TEST_FLAG", true)) << v;
    EXPECT_FALSE(env_flag("NKRYLOV_TEST_FLAG", false)) << v;
  }
}

TEST(EnvChecked, TuneProbesKnobParsesAndClamps) {
  EnvVarGuard g("NKRYLOV_TUNE_PROBES");
  EXPECT_EQ(tune_probes_env(), 4);  // unset -> default budget
  g.set("0");
  EXPECT_EQ(tune_probes_env(), 0);  // 0 = model-only, explicitly legal
  g.set("9");
  EXPECT_EQ(tune_probes_env(), 9);
  g.set("-2");
  EXPECT_EQ(tune_probes_env(), 4);  // below minimum -> default, not -2
  g.set("lots");
  EXPECT_EQ(tune_probes_env(), 4);  // garbage -> default
}

TEST(EnvChecked, TuneDbKnobIsAPlainPath) {
  EnvVarGuard g("NKRYLOV_TUNE_DB");
  EXPECT_EQ(tune_db_env(), "");  // unset -> in-memory only
  g.set("/tmp/nkrylov-tune.db");
  EXPECT_EQ(tune_db_env(), "/tmp/nkrylov-tune.db");
}

TEST(EnvChecked, SummaryReportsTunerKnobsTruthfully) {
  // Truth-in-reporting: the summary shows the PARSED values — a malformed
  // NKRYLOV_TUNE_PROBES reports the default it fell back to, and an unset
  // DB path reports "none", never an empty field.
  EnvVarGuard probes("NKRYLOV_TUNE_PROBES");
  EnvVarGuard db("NKRYLOV_TUNE_DB");
  EXPECT_NE(env_summary().find("tune-probes=4"), std::string::npos) << env_summary();
  EXPECT_NE(env_summary().find("tune-db=none"), std::string::npos) << env_summary();
  probes.set("bogus");
  EXPECT_NE(env_summary().find("tune-probes=4"), std::string::npos) << env_summary();
  probes.set("2");
  db.set("/tmp/t.db");
  EXPECT_NE(env_summary().find("tune-probes=2"), std::string::npos) << env_summary();
  EXPECT_NE(env_summary().find("tune-db=/tmp/t.db"), std::string::npos) << env_summary();
}

TEST(EnvChecked, StrReturnsRawValueOrDefault) {
  // env_str is deliberately validation-free: the raw value when set (even
  // empty — a SET-but-empty knob is distinguishable from unset via the
  // default sentinel), the default otherwise.
  EnvVarGuard g("NKRYLOV_TEST_STR");
  EXPECT_EQ(env_str("NKRYLOV_TEST_STR", "fallback"), "fallback");
  g.set("serial");
  EXPECT_EQ(env_str("NKRYLOV_TEST_STR", "fallback"), "serial");
  g.set("");
  EXPECT_EQ(env_str("NKRYLOV_TEST_STR", "fallback"), "");
}

}  // namespace
}  // namespace nk
