// Block-Jacobi IC(0) — incomplete Cholesky with zero fill, the paper's
// primary preconditioner for symmetric positive definite matrices on the
// CPU node ("block-Jacobi ILU(0) (or IC(0) when symmetric)").
//
// Each diagonal block is factored as A_b ≈ L L^T on the lower-triangular
// sparsity pattern of A_b.  The α_ILU diagonal boost is applied during the
// factorization, and non-positive pivots (IC(0) can break down on matrices
// that are not M-matrices) are clamped to a small positive value and
// counted.  Like ILU(0), factorization happens in fp64, and the fp32/fp16
// value copies the mixed-precision apply handles use are cast on first use
// (PrecCopies), sharing the fp64 factor's pattern.
#pragma once

#include <memory>
#include <vector>

#include "base/backend.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// Sparsity of the IC(0) factor.  `l` holds rows of L with the diagonal
/// last; `lt` holds rows of L^T (columns of L) with the diagonal first —
/// the layout the backward substitution wants.  One pattern is shared by
/// the factor copies of every storage precision.
struct IcPattern {
  index_t n = 0;
  std::vector<index_t> block_start;
  std::vector<index_t> l_row_ptr, l_col, lt_row_ptr, lt_col;

  [[nodiscard]] index_t nblocks() const {
    return static_cast<index_t>(block_start.size()) - 1;
  }
};

/// IC(0) factor values at storage precision P over a shared pattern, plus
/// the reciprocal diagonal 1/l_ii (see ic_solve).
template <class P>
struct IcFactors {
  std::shared_ptr<const IcPattern> pat;
  std::vector<P> l_val, lt_val, inv_diag;

  [[nodiscard]] index_t nblocks() const { return pat->nblocks(); }
};

/// Cast factor values to another storage precision; the pattern is shared,
/// not copied.
template <class Dst, class Src>
IcFactors<Dst> cast_factors(const IcFactors<Src>& f) {
  const auto cast = [](const std::vector<Src>& src, std::vector<Dst>& dst) {
    dst.resize(src.size());
    blas::convert<Src, Dst>(std::span<const Src>(src), std::span<Dst>(dst));
  };
  IcFactors<Dst> out;
  out.pat = f.pat;
  cast(f.l_val, out.l_val);
  cast(f.lt_val, out.lt_val);
  cast(f.inv_diag, out.inv_diag);
  return out;
}

/// z = L^{-T} L^{-1} r, block-parallel, computed in W.  Per-block
/// substitution is thread-invariant, so the serial backend is the same
/// sweep with the OpenMP team suppressed — bit-identical by construction.
///
/// Each row's recurrence on the row before it is kept short: the entry
/// coupling to the value just produced (z[i-1] forward, z[i+1] backward)
/// is subtracted last, from a register copy of that value rather than a
/// reload of z, and when the factors are stored in the working precision
/// the diagonal is applied as a multiply by inv_diag.  A narrower storage
/// (say fp16 factors on fp64 vectors) divides by the stored diagonal
/// instead: its reciprocal, rounded to the storage precision, would be
/// less accurate than the working precision.
template <class P, class VT, class W = promote_t<P, VT>>
void ic_solve(const IcFactors<P>& f, std::span<const VT> r, std::span<VT> z,
              Backend be = Backend::kHost) {
  const IcPattern& g = *f.pat;
  const auto by_diag = [&f](W s, [[maybe_unused]] index_t i, [[maybe_unused]] P d) -> W {
    if constexpr (std::is_same_v<P, W>) return s * f.inv_diag[i];
    else return s / static_cast<W>(d);
  };
  const index_t nb = g.nblocks();
  const bool par = be == Backend::kHost;
  (void)par;  // referenced only from the pragma; unused without OpenMP
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = g.block_start[b], b1 = g.block_start[b + 1];
    W prev{0};  // z of the row last produced, as W
    // Forward: L y = r (diagonal is the last entry of each L row).
    for (index_t i = b0; i < b1; ++i) {
      W s = static_cast<W>(r[i]);
      const index_t begin = g.l_row_ptr[i], end = g.l_row_ptr[i + 1] - 1;  // diag position
      const bool adj = end > begin && g.l_col[end - 1] == i - 1;
      const index_t stop = adj ? end - 1 : end;
      for (index_t p = begin; p < stop; ++p)
        s -= static_cast<W>(f.l_val[p]) * static_cast<W>(z[g.l_col[p]]);
      if (adj) s -= static_cast<W>(f.l_val[end - 1]) * prev;
      const VT zi = static_cast<VT>(by_diag(s, i, f.l_val[end]));
      z[i] = zi;
      prev = static_cast<W>(zi);
    }
    // Backward: L^T z = y (diagonal is the first entry of each L^T row),
    // the other entries in descending column order.
    for (index_t i = b1; i-- > b0;) {
      W s = static_cast<W>(z[i]);
      const index_t begin = g.lt_row_ptr[i], end = g.lt_row_ptr[i + 1];  // diag at begin
      const bool adj = end > begin + 1 && g.lt_col[begin + 1] == i + 1;
      const index_t stop = adj ? begin + 2 : begin + 1;
      for (index_t p = end; p-- > stop;)
        s -= static_cast<W>(f.lt_val[p]) * static_cast<W>(z[g.lt_col[p]]);
      if (adj) s -= static_cast<W>(f.lt_val[begin + 1]) * prev;
      const VT zi = static_cast<VT>(by_diag(s, i, f.lt_val[begin]));
      z[i] = zi;
      prev = static_cast<W>(zi);
    }
  }
}

template <class SP, class VT>
class IcApplyHandle final : public Preconditioner<VT> {
 public:
  IcApplyHandle(std::shared_ptr<const IcFactors<SP>> f, std::shared_ptr<InvocationCounter> cnt)
      : f_(std::move(f)), cnt_(std::move(cnt)) {}

  void apply(std::span<const VT> r, std::span<VT> z) override {
    ++cnt_->count;
    ic_solve(*f_, r, z, this->backend());
  }
  [[nodiscard]] index_t size() const override { return f_->pat->n; }

 private:
  std::shared_ptr<const IcFactors<SP>> f_;
  std::shared_ptr<InvocationCounter> cnt_;
};

class BlockJacobiIc0 final : public FactoredPrecond<IcFactors, IcApplyHandle> {
 public:
  struct Config {
    int nblocks = 0;     ///< 0 → one block per OpenMP thread
    double alpha = 1.0;  ///< α diagonal boost during factorization
  };

  BlockJacobiIc0(const CsrMatrix<double>& a, Config cfg);

  [[nodiscard]] std::string name() const override { return "bj-ic0"; }

  /// Non-positive pivots clamped during factorization.
  [[nodiscard]] int breakdowns() const { return breakdowns_; }

 private:
  int breakdowns_ = 0;
};

}  // namespace nk
