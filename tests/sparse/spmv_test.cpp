// Property tests for the CSR SpMV kernels, including the mixed-precision
// combinations F3R relies on (fp16 matrix × fp32 vectors, pure fp16).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "base/rng.hpp"
#include "sparse/gen/random_matrix.hpp"
#include "sparse/spmv.hpp"

namespace nk {
namespace {

/// Dense reference product in long double.
std::vector<double> dense_ref(const CsrMatrix<double>& a, const std::vector<double>& x) {
  std::vector<double> y(a.nrows, 0.0);
  for (index_t i = 0; i < a.nrows; ++i) {
    long double s = 0.0L;
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k)
      s += static_cast<long double>(a.vals[k]) * x[a.col_idx[k]];
    y[i] = static_cast<double>(s);
  }
  return y;
}

class SpmvProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SpmvProperty, MatchesDenseReferenceFp64) {
  const auto [n, seed] = GetParam();
  gen::RandomOptions opt;
  opt.n = n;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.avg_nnz_per_row = 6.0;
  const auto a = gen::random_sparse(opt);
  const auto x = random_vector<double>(n, 99, -1.0, 1.0);
  const auto ref = dense_ref(a, x);

  std::vector<double> y(n);
  spmv(a, std::span<const double>(x), std::span<double>(y));
  for (index_t i = 0; i < a.nrows; ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
}

TEST_P(SpmvProperty, MixedFp16MatrixFp32VectorsTracksReference) {
  const auto [n, seed] = GetParam();
  gen::RandomOptions opt;
  opt.n = n;
  opt.seed = static_cast<std::uint64_t>(seed);
  const auto a = gen::random_sparse(opt);
  const auto a16 = cast_matrix<half>(a);
  const auto x = random_vector<double>(n, 5, -1.0, 1.0);
  const auto xf = converted<float>(x);
  const auto ref = dense_ref(a, x);

  std::vector<float> y(n);
  spmv(a16, std::span<const float>(xf), std::span<float>(y));
  // Error budget: half matrix-storage rounding (2^-11 per value) times the
  // row's absolute sum.
  for (index_t i = 0; i < a.nrows; ++i) {
    double rowsum = 0.0;
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) rowsum += std::abs(a.vals[k]);
    EXPECT_NEAR(y[i], ref[i], rowsum * 2e-3 + 1e-6);
  }
}

TEST_P(SpmvProperty, PureFp16RoundsButStaysClose) {
  const auto [n, seed] = GetParam();
  gen::RandomOptions opt;
  opt.n = n;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.avg_nnz_per_row = 4.0;
  const auto a = gen::random_sparse(opt);
  const auto a16 = cast_matrix<half>(a);
  const auto x = random_vector<double>(n, 5, 0.0, 1.0);
  const auto xh = converted<half>(x);
  const auto ref = dense_ref(a, x);

  std::vector<half> y(n);
  spmv(a16, std::span<const half>(xh), std::span<half>(y));
  for (index_t i = 0; i < a.nrows; ++i) {
    double rowsum = 1e-3;
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) rowsum += std::abs(a.vals[k]);
    EXPECT_NEAR(static_cast<double>(y[i]), ref[i], rowsum * 2e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SpmvProperty,
                         ::testing::Combine(::testing::Values(1, 5, 64, 500),
                                            ::testing::Values(1, 2, 3)));

TEST(Spmv, FusedResidualEqualsTwoStep) {
  gen::RandomOptions opt;
  opt.n = 200;
  const auto a = gen::random_sparse(opt);
  const auto x = random_vector<double>(200, 1, -1.0, 1.0);
  const auto b = random_vector<double>(200, 2, -1.0, 1.0);

  std::vector<double> ax(200), r1(200), r2(200);
  spmv(a, std::span<const double>(x), std::span<double>(ax));
  for (int i = 0; i < 200; ++i) r1[i] = b[i] - ax[i];
  residual(a, std::span<const double>(x), std::span<const double>(b), std::span<double>(r2));
  for (int i = 0; i < 200; ++i) EXPECT_NEAR(r2[i], r1[i], 1e-13);
}

TEST(Spmv, RelativeResidualZeroForExactSolve) {
  // Identity matrix: x = b gives relres 0.
  CsrMatrix<double> a(3, 3);
  a.row_ptr = {0, 1, 2, 3};
  a.col_idx = {0, 1, 2};
  a.vals = {1.0, 1.0, 1.0};
  std::vector<double> b = {1, 2, 3};
  EXPECT_DOUBLE_EQ(relative_residual(a, std::span<const double>(b), std::span<const double>(b)),
                   0.0);
  std::vector<double> x0(3, 0.0);
  EXPECT_DOUBLE_EQ(relative_residual(a, std::span<const double>(x0), std::span<const double>(b)),
                   1.0);
}

TEST(Spmv, EmptyRowsGiveZero) {
  CsrMatrix<double> a(3, 3);  // all rows empty
  std::vector<double> x = {1, 2, 3}, y(3, 7.0);
  spmv(a, std::span<const double>(x), std::span<double>(y));
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Spmv, AccumulatorOverrideImprovesFp16Sum) {
  // A row of 1000 entries of 0.25 with x = 1: fp16 accumulation loses
  // precision past 250 (spacing 0.25 at ~256... exactly representable here),
  // use 0.3 which rounds: fp32 accumulation must be closer to exact.
  const int m = 1000;
  CsrMatrix<half> a(1, m);
  a.row_ptr = {0, m};
  a.col_idx.resize(m);
  a.vals.assign(m, static_cast<half>(0.3f));
  for (int k = 0; k < m; ++k) a.col_idx[k] = k;
  std::vector<half> x(m, static_cast<half>(1.0f));

  std::vector<half> y16(1);
  spmv(a, std::span<const half>(x), std::span<half>(y16));
  std::vector<float> y32(1);
  spmv<half, half, float, float>(a, std::span<const half>(x), std::span<float>(y32));

  const double exact = m * static_cast<double>(round_to_half(0.3f));
  EXPECT_LT(std::abs(y32[0] - exact), std::abs(static_cast<double>(y16[0]) - exact) + 1e-3);
  EXPECT_NEAR(y32[0], exact, 0.5);
}

/// detail::row_dot on one path (MT values, XT vector, Acc accumulator)
/// for every row length 0–40 — so every 16-lane and 4-lane tail (0, 1,
/// 15, 16, 17, 31, 32, 33, ...) — against an fp64 reference over the same
/// rounded inputs.  Each row starts at an odd offset and the last one ends
/// at the end of its arrays.  Bound: the accumulator's recursive-summation
/// tier, 2·(len+2)·u_Acc·Σ|v·x|.
template <class MT, class XT, class Acc>
void check_row_dot_path() {
  constexpr index_t kMaxLen = 40, kOffset = 3, kNx = 97;
  const double u = 0.5 * static_cast<double>(fp_limits<Acc>::eps);
  const auto xd = random_vector<double>(kNx, 5, -1.0, 1.0);
  std::vector<XT> x(kNx);
  for (index_t j = 0; j < kNx; ++j) x[j] = static_cast<XT>(xd[j]);
  for (index_t len = 0; len <= kMaxLen; ++len) {
    const auto vd = random_vector<double>(kOffset + len, 100 + len, -1.0, 1.0);
    const auto cd = random_vector<double>(kOffset + len, 200 + len, 0.0, kNx - 1e-9);
    std::vector<MT> v(kOffset + len);
    std::vector<index_t> ci(kOffset + len);
    double ref = 0.0, mag = 0.0;
    for (index_t k = 0; k < kOffset + len; ++k) {
      v[k] = static_cast<MT>(vd[k]);
      ci[k] = static_cast<index_t>(cd[k]);
      if (k < kOffset) continue;
      const double t = static_cast<double>(v[k]) * static_cast<double>(x[ci[k]]);
      ref += t;
      mag += std::abs(t);
    }
    const Acc got = detail::row_dot<MT, XT, Acc>(v.data(), ci.data(), x.data(), kOffset,
                                                 kOffset + len);
    EXPECT_NEAR(static_cast<double>(got), ref, 2.0 * (len + 2) * u * mag) << "len=" << len;
  }
}

TEST(RowDot, EveryPathEveryTailWithinItsTier) {
  check_row_dot_path<double, double, double>();
  check_row_dot_path<float, float, float>();
  check_row_dot_path<float, double, double>();
  check_row_dot_path<half, float, float>();   // F3R level 3 (16-lane on AVX-512 builds)
  check_row_dot_path<half, half, half>();     // innermost Richardson: four half chains
  check_row_dot_path<half, half, float>();    // fp32-accumulator override
  check_row_dot_path<half, double, double>();
}

}  // namespace
}  // namespace nk
