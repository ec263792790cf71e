// SolverSpec / PrecondSpec text-form round-trip and rejection tests.
//
// The round-trip contract is parse(to_string(s)) == s for every valid
// spec; the table test below sweeps every registered kind × precision ×
// batching combination (plus non-default termination and preconditioner
// fields) so the grammar cannot silently drop a field.  The rejection
// tests pin the malformed-input behavior: SpecError (a subclass of
// std::invalid_argument) with a message naming the problem.
#include <gtest/gtest.h>

#include "core/fault.hpp"
#include "core/registry.hpp"
#include "core/spec.hpp"

namespace nk {
namespace {

TEST(Spec, DefaultsAndCanonicalForms) {
  const SolverSpec def;
  EXPECT_EQ(def.to_string(), "f3r");
  EXPECT_EQ(SolverSpec::parse("f3r"), def);

  // The issue-form examples all parse and re-render canonically.
  EXPECT_EQ(SolverSpec::parse("fgmres64/bj-ilu0@fp16").to_string(),
            "fgmres64/bj-ilu0@fp16");
  EXPECT_EQ(SolverSpec::parse("ir-gmres8@fp32").to_string(), "ir-gmres8@fp32");
  EXPECT_EQ(SolverSpec::parse("f3r@fp16").to_string(), "f3r@fp16");
  EXPECT_EQ(SolverSpec::parse("cg/jacobi;wave=8;rtol=1e-06").to_string(),
            "cg/jacobi;rtol=1e-06;wave=8");
}

TEST(Spec, ParsePopulatesEveryField) {
  const SolverSpec s = SolverSpec::parse(
      "fgmres32@fp32/ssor@fp16;rtol=2.5e-05;max-iters=123;restarts=5;nohist;wave=7;"
      "stagnate-window=6;nblocks=9;omega=1.5;degree=4");
  EXPECT_EQ(s.kind, "fgmres");
  EXPECT_EQ(s.m, 32);
  EXPECT_EQ(s.prec, Prec::FP32);
  EXPECT_DOUBLE_EQ(s.rtol, 2.5e-5);
  EXPECT_EQ(s.max_iters, 123);
  EXPECT_EQ(s.max_restarts, 5);
  EXPECT_FALSE(s.record_history);
  EXPECT_EQ(s.wave, 7);
  EXPECT_EQ(s.stagnate_window, 6);
  EXPECT_EQ(s.precond.kind, "ssor");
  ASSERT_TRUE(s.precond.storage.has_value());
  EXPECT_EQ(*s.precond.storage, Prec::FP16);
  EXPECT_EQ(s.precond.nblocks, 9);
  EXPECT_DOUBLE_EQ(s.precond.omega, 1.5);
  EXPECT_EQ(s.precond.degree, 4);
  EXPECT_EQ(SolverSpec::parse(s.to_string()), s);
}

TEST(Spec, LegacyPaperNamesAreAliases) {
  EXPECT_EQ(SolverSpec::parse("fp16-F3R"), SolverSpec::parse("f3r@fp16"));
  EXPECT_EQ(SolverSpec::parse("fp32-CG"), SolverSpec::parse("cg@fp32"));
  EXPECT_EQ(SolverSpec::parse("fp64-BiCGStab"), SolverSpec::parse("bicgstab"));
  EXPECT_EQ(SolverSpec::parse("fp32-FGMRES64"), SolverSpec::parse("fgmres64@fp32"));
  // Table 4 variants are registered kinds of their own — "fp16-F2" is the
  // variant, NOT "f2" at fp16 (which the grammar rejects below).
  EXPECT_EQ(SolverSpec::parse("fp16-F2").kind, "fp16-f2");
  EXPECT_EQ(SolverSpec::parse("F2").kind, "f2");
  EXPECT_EQ(SolverSpec::parse("fp16-F3").kind, "fp16-f3");
}

/// Round-trip sweep: every registered solver kind × precision × batching
/// combination, with non-default termination, precond, and backend fields
/// mixed in (the backend cycles unset/host/serial across cells).
TEST(Spec, RoundTripAllRegisteredKinds) {
  const auto precond_kinds = registry().precond_kinds();
  std::size_t cells = 0, pidx = 0;
  for (const std::string& kind : registry().solver_kinds()) {
    const SolverKindInfo* info = registry().solver_info(kind);
    ASSERT_NE(info, nullptr) << kind;
    for (const Prec prec : {Prec::FP64, Prec::FP32, Prec::FP16}) {
      if (!info->takes_prec && prec != Prec::FP64) continue;
      for (const int wave : {0, 4}) {
        for (const int stagnate_window : {0, 7}) {
          SolverSpec s;
          s.kind = kind;
          s.prec = prec;
          s.m = info->takes_m ? info->default_m + 3 : 0;
          s.rtol = 3e-7;
          s.max_iters = 321;
          s.max_restarts = 1;
          s.record_history = (wave == 0);
          s.wave = wave;
          s.stagnate_window = stagnate_window;
          s.precond.kind = precond_kinds[pidx++ % precond_kinds.size()];
          s.precond.storage = (cells % 2 == 0) ? std::optional<Prec>(Prec::FP16)
                                               : std::nullopt;
          s.precond.nblocks = static_cast<int>(cells % 3) * 8;
          switch (cells % 3) {
            case 0: s.backend.reset(); break;
            case 1: s.backend = Backend::kHost; break;
            default: s.backend = Backend::kSerial; break;
          }
          const std::string text = s.to_string();
          EXPECT_EQ(SolverSpec::parse(text), s) << text;
          ++cells;
        }
      }
    }
  }
  EXPECT_GT(cells, 80u);  // the grid actually swept something
}

TEST(Spec, BackendOptionRoundTripsAndDefaultsUnset) {
  // Unset (the default) means "resolve at build time", and to_string omits
  // it, so pre-backend spec strings re-render byte-identically.
  EXPECT_FALSE(SolverSpec::parse("cg").backend.has_value());
  EXPECT_EQ(SolverSpec::parse("cg/jacobi;wave=8").to_string(), "cg/jacobi;wave=8");

  const SolverSpec ser = SolverSpec::parse("cg;backend=serial");
  ASSERT_TRUE(ser.backend.has_value());
  EXPECT_EQ(*ser.backend, Backend::kSerial);
  EXPECT_EQ(ser.to_string(), "cg;backend=serial");
  EXPECT_EQ(SolverSpec::parse(ser.to_string()), ser);

  // "omp" is an accepted alias for the host backend; the canonical form —
  // what to_string emits — is "host".
  const SolverSpec omp = SolverSpec::parse("cg;backend=omp");
  ASSERT_TRUE(omp.backend.has_value());
  EXPECT_EQ(*omp.backend, Backend::kHost);
  EXPECT_EQ(omp.to_string(), "cg;backend=host");
  EXPECT_EQ(omp, SolverSpec::parse("cg;backend=host"));
}

TEST(Spec, BackendSuffixAliasEveryKindTimesPrecision) {
  // ":NAME" on the head is the short spelling of ";backend=NAME" — pinned
  // for every registered kind × precision so no kind's token resolution
  // (trailing digits, fpNN- prefixes, Table 4 names) eats the suffix.
  for (const std::string& kind : registry().solver_kinds()) {
    const SolverKindInfo* info = registry().solver_info(kind);
    ASSERT_NE(info, nullptr) << kind;
    for (const Prec prec : {Prec::FP64, Prec::FP32, Prec::FP16}) {
      if (!info->takes_prec && prec != Prec::FP64) continue;
      std::string head = kind;
      if (prec != Prec::FP64) head += std::string("@") + prec_name(prec);
      for (const char* be : {"host", "omp", "serial"}) {
        const SolverSpec via_suffix = SolverSpec::parse(head + ":" + be);
        const SolverSpec via_option = SolverSpec::parse(head + ";backend=" + be);
        EXPECT_EQ(via_suffix, via_option) << head << ":" << be;
        ASSERT_TRUE(via_suffix.backend.has_value()) << head;
        EXPECT_EQ(SolverSpec::parse(via_suffix.to_string()), via_suffix) << head;
      }
    }
  }
  // The suffix follows the whole head, precond part included, and survives
  // an option tail and mixed case.
  const SolverSpec full = SolverSpec::parse("fgmres64/bj-ilu0@fp16:serial;rtol=1e-06");
  EXPECT_EQ(full.kind, "fgmres");
  EXPECT_EQ(full.precond.kind, "bj-ilu0");
  ASSERT_TRUE(full.backend.has_value());
  EXPECT_EQ(*full.backend, Backend::kSerial);
  EXPECT_EQ(SolverSpec::parse("CG:SERIAL"), SolverSpec::parse("cg;backend=serial"));
}

TEST(Spec, RejectsBadBackendTokens) {
  // Unknown names — the message lists the known backends.
  try {
    SolverSpec::parse("cg;backend=cuda");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("serial"), std::string::npos) << e.what();
  }
  EXPECT_THROW(SolverSpec::parse("cg:cuda"), SpecError);
  // Structurally broken suffixes.
  EXPECT_THROW(SolverSpec::parse("cg:"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg:serial:host"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;backend="), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;backend"), SpecError);
  // A backend may be named at most once, whichever spellings are used.
  EXPECT_THROW(SolverSpec::parse("cg:serial;backend=serial"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg:host;backend=serial"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;backend=serial;backend=host"), SpecError);
  // backend= is a solver-level option only.
  EXPECT_THROW(PrecondSpec::parse("bj;backend=serial"), SpecError);
}

TEST(Spec, PrecondRoundTripAllRegisteredKinds) {
  for (const std::string& kind : registry().precond_kinds()) {
    for (const auto storage :
         {std::optional<Prec>{}, std::optional<Prec>{Prec::FP32}}) {
      PrecondSpec s;
      s.kind = kind;
      s.storage = storage;
      s.nblocks = 16;
      s.omega = 1.25;
      s.degree = 3;
      EXPECT_EQ(PrecondSpec::parse(s.to_string()), s) << s.to_string();
    }
  }
  EXPECT_EQ(PrecondSpec::parse("bj").to_string(), "bj");
}

TEST(Spec, RejectsMalformedStrings) {
  // Empty / structurally broken.
  EXPECT_THROW(SolverSpec::parse(""), SpecError);
  EXPECT_THROW(SolverSpec::parse("@fp32"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg/"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg/bj/jacobi"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;;wave=1"), SpecError);
  // Bad precision tokens.
  EXPECT_THROW(SolverSpec::parse("cg@fp99"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg@"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg@fp32@fp16"), SpecError);
  EXPECT_THROW(SolverSpec::parse("fp16-cg@fp32"), SpecError);  // precision twice
  // Unknown kinds (message names the registered ones).
  try {
    SolverSpec::parse("hypre-boomeramg");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("f3r"), std::string::npos) << e.what();
  }
  EXPECT_THROW(SolverSpec::parse("cg/ilut"), SpecError);
  EXPECT_THROW(PrecondSpec::parse("ilut"), SpecError);
  // Trailing garbage / bad option values.
  EXPECT_THROW(SolverSpec::parse("cg;wave=4x"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;rtol=1e-8zzz"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;max-iters=-5"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;bogus=1"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;nohist=1"), SpecError);  // flag, not kv
  EXPECT_THROW(SolverSpec::parse("cg;masked"), SpecError);    // retired option
  EXPECT_THROW(SolverSpec::parse("cg;layout=colmajor"), SpecError);  // retired option
  EXPECT_THROW(SolverSpec::parse("cg;layout=rowmajor"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;wave"), SpecError);      // kv, not flag
  EXPECT_THROW(PrecondSpec::parse("bj;rtol=1e-8"), SpecError);  // solver-only key
  EXPECT_THROW(PrecondSpec::parse("bj/jacobi"), SpecError);
  // Kind-specific shape violations.
  EXPECT_THROW(SolverSpec::parse("cg64"), SpecError);    // cg takes no m
  EXPECT_THROW(SolverSpec::parse("f2@fp32"), SpecError); // variants: fixed precisions
  EXPECT_THROW(SolverSpec::parse("fgmres0"), SpecError); // m must be >= 1
}

TEST(Spec, SpecErrorIsInvalidArgument) {
  // Legacy catch sites (variant_config callers) catch invalid_argument.
  EXPECT_THROW(SolverSpec::parse("nonsense"), std::invalid_argument);
}

TEST(Spec, ResilienceOptionsRoundTrip) {
  const SolverSpec s =
      SolverSpec::parse("cg@fp16;stagnate-window=25;fallback=fp32,fp64");
  EXPECT_EQ(s.stagnate_window, 25);
  ASSERT_EQ(s.fallback.size(), 2u);
  EXPECT_EQ(s.fallback[0], Prec::FP32);
  EXPECT_EQ(s.fallback[1], Prec::FP64);
  EXPECT_EQ(SolverSpec::parse(s.to_string()), s);

  // Both default to off, and the defaults are omitted from the canonical
  // form — pre-resilience spec strings re-render unchanged.
  const SolverSpec plain = SolverSpec::parse("cg@fp16");
  EXPECT_EQ(plain.stagnate_window, 0);
  EXPECT_TRUE(plain.fallback.empty());
  EXPECT_EQ(plain.to_string(), "cg@fp16");
}

TEST(Spec, FaultHarnessOptionsRoundTrip) {
  // The "fault" kind is test-only: the grammar accepts it only once a test
  // has installed it (kind validation stays registry-driven).
  register_fault_injection();
  const PrecondSpec p = PrecondSpec::parse("fault;inject=nan@3@fp16;inner=jacobi");
  EXPECT_EQ(p.kind, "fault");
  EXPECT_EQ(p.inject, "nan@3@fp16");
  EXPECT_EQ(p.inner, "jacobi");
  EXPECT_EQ(PrecondSpec::parse(p.to_string()), p);

  // The hooks ride through a full solver spec too.
  const SolverSpec s = SolverSpec::parse("cg/fault;inject=inf@0;inner=bj");
  EXPECT_EQ(s.precond.inject, "inf@0");
  EXPECT_EQ(s.precond.inner, "bj");
  EXPECT_EQ(SolverSpec::parse(s.to_string()), s);
}

TEST(Spec, RejectsMalformedResilienceOptions) {
  EXPECT_THROW(SolverSpec::parse("cg;stagnate-window=-1"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;stagnate-window"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;fallback="), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;fallback=fp32,,fp64"), SpecError);
  EXPECT_THROW(SolverSpec::parse("cg;fallback=fp99"), SpecError);
}

}  // namespace
}  // namespace nk
