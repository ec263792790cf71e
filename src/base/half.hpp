// nk::half — the half-precision (binary16) scalar type used throughout the
// library, plus precision traits shared by all mixed-precision kernels.
//
// The paper ("A Nested Krylov Method Using Half-Precision Arithmetic")
// stores matrix values, vectors, and preconditioner values in fp16 at the
// innermost nesting levels and prescribes that "higher-precision
// instructions are used when the inputs differ in precision".  We realize
// that rule with the compiler's `_Float16`: C++'s usual arithmetic
// conversions promote `_Float16` to `float`/`double` whenever the other
// operand is wider, and pure `_Float16` expressions are rounded to binary16
// after every operation (GCC emulates through fp32 with correct rounding on
// targets without a native fp16 ALU, and uses F16C for conversions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#if defined(__F16C__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace nk {

#if defined(__FLT16_MAX__)
/// IEEE-754 binary16 scalar.  Arithmetic follows the usual C++ conversion
/// rules: half⊕half rounds to half, half⊕float computes in float.
using half = _Float16;
#else
#error "nkrylov requires a compiler with _Float16 support (GCC >= 12 / Clang >= 15 on x86-64)"
#endif

/// The three working precisions of the paper (Table 1).
enum class Prec : std::uint8_t { FP64 = 0, FP32 = 1, FP16 = 2 };

/// Human-readable name used in bench tables ("fp64", "fp32", "fp16").
const char* prec_name(Prec p) noexcept;

/// Parse "fp64"/"fp32"/"fp16" (also accepts "double"/"single"/"half").
/// Throws std::invalid_argument on anything else.
Prec parse_prec(const std::string& s);

/// Bytes occupied by one scalar of precision `p`.
constexpr std::size_t prec_bytes(Prec p) noexcept {
  return p == Prec::FP64 ? 8u : p == Prec::FP32 ? 4u : 2u;
}

template <class T>
inline constexpr bool is_fp_v =
    std::is_same_v<T, double> || std::is_same_v<T, float> || std::is_same_v<T, half>;

/// Compile-time Prec tag of a scalar type.
template <class T>
constexpr Prec prec_of() noexcept {
  static_assert(is_fp_v<T>, "nkrylov scalar types are double, float, nk::half");
  if constexpr (std::is_same_v<T, double>) return Prec::FP64;
  else if constexpr (std::is_same_v<T, float>) return Prec::FP32;
  else return Prec::FP16;
}

/// The wider of two scalar types; the precision mixed-input kernels compute in.
template <class A, class B>
using promote_t = std::conditional_t<
    std::is_same_v<A, double> || std::is_same_v<B, double>, double,
    std::conditional_t<std::is_same_v<A, float> || std::is_same_v<B, float>, float, half>>;

/// Accumulator type for reductions over T.  Dot products and norms over fp16
/// data accumulate in fp32 (the paper computes the Richardson weight ω' in
/// fp32; all reduction kernels live in the fp32 FGMRES levels anyway).
template <class T>
using acc_t = std::conditional_t<std::is_same_v<T, half>, float, T>;

/// numeric_limits-style constants for the three precisions, usable in
/// templated kernels without relying on libstdc++ C++23 extensions.
template <class T>
struct fp_limits;

template <>
struct fp_limits<double> {
  static constexpr double eps = std::numeric_limits<double>::epsilon();
  static constexpr double max = std::numeric_limits<double>::max();
  static constexpr double min_normal = std::numeric_limits<double>::min();
  static constexpr int digits = 53;
};
template <>
struct fp_limits<float> {
  static constexpr float eps = std::numeric_limits<float>::epsilon();
  static constexpr float max = std::numeric_limits<float>::max();
  static constexpr float min_normal = std::numeric_limits<float>::min();
  static constexpr int digits = 24;
};
template <>
struct fp_limits<half> {
  static constexpr float eps = 9.765625e-04f;        // 2^-10
  static constexpr float max = 65504.0f;             // largest finite binary16
  static constexpr float min_normal = 6.103515625e-05f;  // 2^-14
  static constexpr int digits = 11;
};

/// True if `x` (evaluated in fp32) would overflow when stored as binary16.
inline bool overflows_half(float x) noexcept {
  return x > fp_limits<half>::max || x < -fp_limits<half>::max;
}

/// Round a float to the nearest binary16 value and return it as float.
/// Useful in tests to predict storage error of fp16 matrices.
inline float round_to_half(float x) noexcept { return static_cast<float>(static_cast<half>(x)); }

/// Unit roundoff of precision `p` (as double, for cost/accuracy models).
double unit_roundoff(Prec p) noexcept;

// ---------------------------------------------------------------------------
// Bulk fp16 ⇄ fp32 conversion.
//
// GCC 12's vectorizer has no vector type for _Float16 → float statements
// ("missed: no vectype"), so a plain conversion loop compiles to scalar
// vcvtsh2ss whose destination-register merge serializes the whole loop.
// These helpers issue the 16-wide AVX-512F forms when compiled for such a
// target, else the 8-wide F16C forms (vcvtph2ps / vcvtps2ph); without
// either they degrade to the scalar loop.  Round-to-nearest-even on both
// directions at every width — identical results to the scalar casts, so
// width selection is purely a speed choice and needs no dispatch gate.
// The 16-wide forms are the all-ones-mask `maskz` intrinsics: the unmasked
// ones pass an `undefined` source that GCC 12 reports under
// -Wmaybe-uninitialized.
// ---------------------------------------------------------------------------

#if defined(__AVX512F__)
/// Sum of v's 16 lanes in _mm512_reduce_add_ps's order (256-bit halves,
/// then 128-bit quarters, then pairs), through forms that GCC 12 does not
/// flag: its _mm512_reduce_add_ps extracts with an `undefined` source.
inline float reduce_add_16(__m512 v) {
  const __m512d vd = _mm512_castps_pd(v);
  const __m256 h = _mm256_add_ps(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xFF, vd, 1)),
                                 _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xFF, vd, 0)));
  __m128 q = _mm_add_ps(_mm256_extractf128_ps(h, 1), _mm256_castps256_ps128(h));
  q = _mm_add_ps(q, _mm_movehl_ps(q, q));
  q = _mm_add_ss(q, _mm_movehdup_ps(q));
  return _mm_cvtss_f32(q);
}
#endif

/// dst[i] = float(src[i]) for i < n.
inline void half_to_float_n(const half* src, float* dst, std::ptrdiff_t n) {
  std::ptrdiff_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    const __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm512_storeu_ps(dst + i, _mm512_maskz_cvtph_ps(0xFFFF, h));
  }
#endif
#if defined(__F16C__)
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
#endif
  for (; i < n; ++i) dst[i] = static_cast<float>(src[i]);
}

/// dst[i] = half(src[i]) for i < n (round to nearest even).
inline void float_to_half_n(const float* src, half* dst, std::ptrdiff_t n) {
  std::ptrdiff_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm512_maskz_cvtps_ph(0xFFFF, _mm512_loadu_ps(src + i), _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), h);
  }
#endif
#if defined(__F16C__)
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src + i), _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
#endif
  for (; i < n; ++i) dst[i] = static_cast<half>(src[i]);
}

/// x[i] = float(half(x[i])) in place — the binary16 rounding step mixed
/// kernels apply between fused updates.
inline void round_half_n(float* x, std::ptrdiff_t n) {
  std::ptrdiff_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm512_maskz_cvtps_ph(0xFFFF, _mm512_loadu_ps(x + i), _MM_FROUND_TO_NEAREST_INT);
    _mm512_storeu_ps(x + i, _mm512_maskz_cvtph_ps(0xFFFF, h));
  }
#endif
#if defined(__F16C__)
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(x + i), _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_ps(x + i, _mm256_cvtph_ps(h));
  }
#endif
  for (; i < n; ++i) x[i] = static_cast<float>(static_cast<half>(x[i]));
}

}  // namespace nk
