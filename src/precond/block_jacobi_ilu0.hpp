// Block-Jacobi ILU(0) — the paper's primary preconditioner on the CPU node.
//
// Rows are partitioned into `nblocks` contiguous blocks (the paper uses one
// block per hardware thread: 112 = 56 × 2); each diagonal block is factored
// independently with ILU(0) (no fill outside the block's sparsity pattern),
// and application performs the forward/backward substitutions block-parallel.
//
// Stabilization: the diagonal entries of A are multiplied by a
// problem-dependent factor α_ILU during the factorization only (Table 2
// lists the paper's values), which damps pivot loss in the incomplete
// factors.  Zero pivots encountered anyway are replaced by a unit pivot and
// counted (`breakdowns()`).
//
// The factorization is computed once in fp64; fp32/fp16 value copies are
// cast on first use through PrecCopies ("construct in fp64, then cast"),
// sharing the fp64 factor's pattern, and apply handles can mix
// any storage precision with any vector precision — arithmetic runs in the
// wider of the two, per the paper's precision-promotion rule.
#pragma once

#include <memory>
#include <vector>

#include "base/backend.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// Sparsity of the block ILU(0) factors.  The concatenated CSR covers all
/// rows; each row stores L (strict lower, unit diagonal implicit) followed
/// by U (diagonal + strict upper), with `diag_pos` marking the diagonal
/// entry.  One pattern is shared by the factor copies of every storage
/// precision.
struct IluPattern {
  index_t n = 0;
  std::vector<index_t> block_start;  ///< size nblocks+1
  std::vector<index_t> row_ptr;      ///< size n+1
  std::vector<index_t> col_idx;      ///< global columns, sorted, within-block
  std::vector<index_t> diag_pos;     ///< position of the diagonal in each row

  [[nodiscard]] index_t nblocks() const {
    return static_cast<index_t>(block_start.size()) - 1;
  }
};

/// Factor values at storage precision P over a shared pattern, plus the
/// reciprocal of U's diagonal (see ilu_detail::by_diag).
template <class P>
struct IluFactors {
  std::shared_ptr<const IluPattern> pat;
  std::vector<P> vals;
  std::vector<P> inv_diag;  ///< 1/u_ii, size n

  [[nodiscard]] index_t nblocks() const { return pat->nblocks(); }
};

/// Cast factor values to another storage precision; the pattern is shared,
/// not copied.
template <class Dst, class Src>
IluFactors<Dst> cast_factors(const IluFactors<Src>& f) {
  IluFactors<Dst> out;
  out.pat = f.pat;
  out.vals.resize(f.vals.size());
  blas::convert<Src, Dst>(std::span<const Src>(f.vals), std::span<Dst>(out.vals));
  out.inv_diag.resize(f.inv_diag.size());
  blas::convert<Src, Dst>(std::span<const Src>(f.inv_diag), std::span<Dst>(out.inv_diag));
  return out;
}

namespace ilu_detail {

/// s / u_ii in W: a multiply by the stored reciprocal when the factors are
/// held in the working precision; a narrower storage (say fp16 factors on
/// fp64 vectors) divides by the stored diagonal instead, because its
/// reciprocal, rounded to the storage precision, would be less accurate
/// than W.
template <class W, class P>
inline W by_diag(const IluFactors<P>& f, W s, index_t i) {
  if constexpr (std::is_same_v<P, W>) return s * f.inv_diag[i];
  else return s / static_cast<W>(f.vals[f.pat->diag_pos[i]]);
}

}  // namespace ilu_detail

/// Block-parallel LU substitution:  z = U⁻¹ L⁻¹ r, computed in W.
///
/// Backend dispatch happens HERE, not in a separate kernel copy: the
/// per-block substitution is thread-invariant (blocks are independent and
/// each block's recurrence is a fixed serial chain), so the serial backend
/// is the same math with the OpenMP team suppressed via the `if` clause —
/// bit-identical to the host sweep by construction.
///
/// Each row's recurrence on the row before it is kept short: the entry
/// coupling to the value just produced (z[i-1] forward, z[i+1] backward)
/// is subtracted last, from a register copy of that value rather than a
/// reload of z, and the diagonal goes through ilu_detail::by_diag.
template <class P, class VT, class W = promote_t<P, VT>>
void ilu_solve(const IluFactors<P>& f, std::span<const VT> r, std::span<VT> z,
               Backend be = Backend::kHost) {
  const IluPattern& g = *f.pat;
  const index_t nb = g.nblocks();
  const bool par = be == Backend::kHost;
  (void)par;  // referenced only from the pragma; unused without OpenMP
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = g.block_start[b], b1 = g.block_start[b + 1];
    W prev{0};  // z of the row last produced, as W
    // Forward: L y = r (unit diagonal), y written into z.
    for (index_t i = b0; i < b1; ++i) {
      W s = static_cast<W>(r[i]);
      const index_t begin = g.row_ptr[i], dp = g.diag_pos[i];
      const bool adj = dp > begin && g.col_idx[dp - 1] == i - 1;
      const index_t stop = adj ? dp - 1 : dp;
      for (index_t p = begin; p < stop; ++p)
        s -= static_cast<W>(f.vals[p]) * static_cast<W>(z[g.col_idx[p]]);
      if (adj) s -= static_cast<W>(f.vals[dp - 1]) * prev;
      const VT zi = static_cast<VT>(s);
      z[i] = zi;
      prev = static_cast<W>(zi);
    }
    // Backward: U z = y, the off-diagonal entries in descending column
    // order.
    for (index_t i = b1; i-- > b0;) {
      W s = static_cast<W>(z[i]);
      const index_t dp = g.diag_pos[i], end = g.row_ptr[i + 1];
      const bool adj = end > dp + 1 && g.col_idx[dp + 1] == i + 1;
      const index_t stop = adj ? dp + 2 : dp + 1;
      for (index_t p = end; p-- > stop;)
        s -= static_cast<W>(f.vals[p]) * static_cast<W>(z[g.col_idx[p]]);
      if (adj) s -= static_cast<W>(f.vals[dp + 1]) * prev;
      const VT zi = static_cast<VT>(ilu_detail::by_diag<W>(f, s, i));
      z[i] = zi;
      prev = static_cast<W>(zi);
    }
  }
}

/// Column-group width of the batched substitution's stack accumulators.
inline constexpr int kIluMaxCols = 16;

namespace ilu_detail {

template <class P, class VT, class W, int KC>
void solve_group(const IluFactors<P>& f, const VT* rg, std::ptrdiff_t ldr, VT* zg,
                 std::ptrdiff_t ldz, int kc_dyn, Backend be) {
  const int kc = KC > 0 ? KC : kc_dyn;
  const IluPattern& g = *f.pat;
  const index_t nb = g.nblocks();
  const bool par = be == Backend::kHost;
  (void)par;
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = g.block_start[b], b1 = g.block_start[b + 1];
    W s[kIluMaxCols];
    W prev[kIluMaxCols] = {};
    // Forward: L y = r (unit diagonal), y written into z.
    for (index_t i = b0; i < b1; ++i) {
      for (int c = 0; c < kc; ++c) s[c] = static_cast<W>(rg[c * ldr + i]);
      const index_t begin = g.row_ptr[i], dp = g.diag_pos[i];
      const bool adj = dp > begin && g.col_idx[dp - 1] == i - 1;
      const index_t stop = adj ? dp - 1 : dp;
      for (index_t p = begin; p < stop; ++p) {
        const W vp = static_cast<W>(f.vals[p]);
        const VT* __restrict zc = zg + g.col_idx[p];
        for (int c = 0; c < kc; ++c)
          s[c] -= vp * static_cast<W>(zc[static_cast<std::ptrdiff_t>(c) * ldz]);
      }
      if (adj) {
        const W vp = static_cast<W>(f.vals[dp - 1]);
        for (int c = 0; c < kc; ++c) s[c] -= vp * prev[c];
      }
      for (int c = 0; c < kc; ++c) {
        const VT zi = static_cast<VT>(s[c]);
        zg[c * ldz + i] = zi;
        prev[c] = static_cast<W>(zi);
      }
    }
    // Backward: U z = y, entries in ilu_solve's order.
    for (index_t i = b1; i-- > b0;) {
      for (int c = 0; c < kc; ++c) s[c] = static_cast<W>(zg[c * ldz + i]);
      const index_t dp = g.diag_pos[i], end = g.row_ptr[i + 1];
      const bool adj = end > dp + 1 && g.col_idx[dp + 1] == i + 1;
      const index_t stop = adj ? dp + 2 : dp + 1;
      for (index_t p = end; p-- > stop;) {
        const W vp = static_cast<W>(f.vals[p]);
        const VT* __restrict zc = zg + g.col_idx[p];
        for (int c = 0; c < kc; ++c)
          s[c] -= vp * static_cast<W>(zc[static_cast<std::ptrdiff_t>(c) * ldz]);
      }
      if (adj) {
        const W vp = static_cast<W>(f.vals[dp + 1]);
        for (int c = 0; c < kc; ++c) s[c] -= vp * prev[c];
      }
      for (int c = 0; c < kc; ++c) {
        const VT zi = static_cast<VT>(by_diag<W>(f, s[c], i));
        zg[c * ldz + i] = zi;
        prev[c] = static_cast<W>(zi);
      }
    }
  }
}

}  // namespace ilu_detail

/// Batched substitution: Z_c = U⁻¹ L⁻¹ R_c for k columns.  The triangular
/// recurrence is a serial dependency chain over rows, so a sequential
/// solve is latency-bound; here the k columns' (mutually independent)
/// chains advance in lockstep — each factor entry is loaded once and
/// applied to every column — which turns the substitution throughput-bound
/// in exactly the way the batched SpMM does.  Per column the operation
/// sequence (forward subtractions in ascending, backward ones in
/// descending column order, the neighbour entry last, then the diagonal)
/// is ilu_solve()'s, so batched
/// and sequential applications agree bit-for-bit.
template <class P, class VT, class W = promote_t<P, VT>>
void ilu_solve_many(const IluFactors<P>& f, const VT* r, std::ptrdiff_t ldr, VT* z,
                    std::ptrdiff_t ldz, int k, Backend be = Backend::kHost) {
  // Greedy 16/8/4 groups (blas::greedy_group) with the 1/2/3 tails pinned
  // too, so every compacted width — odd ones included — runs fully
  // unrolled; mirrors spmm's dispatch.
  for (int c0 = 0; c0 < k;) {
    const int kc = blas::greedy_group(k - c0, kIluMaxCols);
    const VT* rg = r + static_cast<std::ptrdiff_t>(c0) * ldr;
    VT* zg = z + static_cast<std::ptrdiff_t>(c0) * ldz;
    using ilu_detail::solve_group;
    switch (kc) {
      case 1: solve_group<P, VT, W, 1>(f, rg, ldr, zg, ldz, kc, be); break;
      case 2: solve_group<P, VT, W, 2>(f, rg, ldr, zg, ldz, kc, be); break;
      case 3: solve_group<P, VT, W, 3>(f, rg, ldr, zg, ldz, kc, be); break;
      case 4: solve_group<P, VT, W, 4>(f, rg, ldr, zg, ldz, kc, be); break;
      case 8: solve_group<P, VT, W, 8>(f, rg, ldr, zg, ldz, kc, be); break;
      case kIluMaxCols: solve_group<P, VT, W, kIluMaxCols>(f, rg, ldr, zg, ldz, kc, be); break;
      default: solve_group<P, VT, W, 0>(f, rg, ldr, zg, ldz, kc, be); break;
    }
    c0 += kc;
  }
}

/// Typed apply handle over shared factors; counts invocations.
template <class SP, class VT>
class IluApplyHandle final : public Preconditioner<VT> {
 public:
  IluApplyHandle(std::shared_ptr<const IluFactors<SP>> f,
                 std::shared_ptr<InvocationCounter> cnt)
      : f_(std::move(f)), cnt_(std::move(cnt)) {}

  void apply(std::span<const VT> r, std::span<VT> z) override {
    ++cnt_->count;
    ilu_solve(*f_, r, z, this->backend());
  }
  void apply_many(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz,
                  int k) override {
    cnt_->count += static_cast<std::uint64_t>(k);
    ilu_solve_many(*f_, r, ldr, z, ldz, k, this->backend());
  }
  [[nodiscard]] index_t size() const override { return f_->pat->n; }

 private:
  std::shared_ptr<const IluFactors<SP>> f_;
  std::shared_ptr<InvocationCounter> cnt_;
};

class BlockJacobiIlu0 final : public FactoredPrecond<IluFactors, IluApplyHandle> {
 public:
  struct Config {
    int nblocks = 0;     ///< 0 → one block per OpenMP thread
    double alpha = 1.0;  ///< α_ILU diagonal boost during factorization
  };

  /// Factor the block-diagonal part of `a` (rows must be sorted).
  BlockJacobiIlu0(const CsrMatrix<double>& a, Config cfg);

  [[nodiscard]] std::string name() const override { return "bj-ilu0"; }

  /// Zero pivots replaced during factorization.
  [[nodiscard]] int breakdowns() const { return breakdowns_; }

 private:
  int breakdowns_ = 0;
};

/// Compute balanced contiguous block boundaries (helper shared with IC(0)).
std::vector<index_t> make_block_starts(index_t n, int nblocks);

/// The rows of `a` restricted to their diagonal blocks (`nblocks` as in
/// make_block_starts), as an ILU(0) pattern plus `a`'s values on it.  A
/// diagonal missing from `a` is inserted with value 0.  Shared by the
/// ILU(0) and SSOR setups.
std::shared_ptr<IluPattern> block_restrict(const CsrMatrix<double>& a, int nblocks,
                                           std::vector<double>& vals);

}  // namespace nk
