// Matrix fingerprinting — the content-addressed identity of a linear
// system, shared by the library and the daemon.
//
// Two subsystems key caches on "the same matrix": nkrylovd's ProblemTable
// (prepared problems, leased Sessions) and the autotuner's perf-DB
// (core/tune/perf_db.hpp — a repeat matrix skips probing).  Both use a
// 64-bit FNV-1a hash of the matrix — dimensions, structure, values, and
// the symmetry flag — so two callers presenting the same system share one
// decision and the second one pays nothing.  Server-generated stand-in
// matrices are keyed by their generator coordinates (name, scale) instead,
// so a repeat PUTGEN does not even pay generation.
//
// FNV-1a over the raw little-endian bytes is deliberate: every consumer
// lives on one machine (library process, Unix-domain socket daemon), so
// byte-identical input data IS the equality we want — no canonicalization
// pass, no tolerance.  A hash collision between distinct matrices is
// accepted at the usual 2^-64 odds, like every content-addressed cache.
//
// Lives in core (not core/service/) so library-only builds fingerprint
// matrices without linking the service layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sparse/csr.hpp"

namespace nk {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Fold `bytes` raw bytes into a running FNV-1a state.
[[nodiscard]] inline std::uint64_t fingerprint_mix(const void* data, std::size_t bytes,
                                                   std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Fingerprint of a CSR matrix (+ its symmetry claim — the same values
/// solved as SPD and as general are different problems).
[[nodiscard]] std::uint64_t matrix_fingerprint(const CsrMatrix<double>& a, bool symmetric);

/// Fingerprint of a generated stand-in, keyed by generator coordinates so
/// repeat generations (daemon PUTGEN) skip generation entirely.
[[nodiscard]] std::uint64_t standin_fingerprint(const std::string& name, int scale);

/// Canonical 16-digit lower-case hex form (the wire/handle/DB spelling).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fp);

/// Strict inverse of fingerprint_hex: exactly 1–16 lower/upper hex digits,
/// no sign, no prefix, no trailing garbage.  Returns false on anything else.
[[nodiscard]] bool parse_fingerprint_hex(std::string_view text, std::uint64_t& out);

}  // namespace nk
