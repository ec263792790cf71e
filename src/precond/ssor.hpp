// SSOR (symmetric successive over-relaxation) preconditioner.
//
//   M = (D/ω + L) · (D/ω)⁻¹ · (D/ω + U) · ω/(2−ω)
//
// applied block-Jacobi style (forward/backward sweeps restricted to
// contiguous row blocks, parallel across blocks).  SSOR needs no
// factorization — only the matrix itself — which makes it the natural
// stepping stone toward the asynchronous preconditioners the paper lists
// as future work: its sweeps tolerate stale off-block values by
// construction here.
#pragma once

#include <memory>
#include <vector>

#include "base/backend.hpp"
#include "precond/block_jacobi_ilu0.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// SSOR data at storage precision P: A's block-restricted values over the
/// ILU(0) pattern (block_restrict), a zero or non-finite diagonal replaced
/// by 1.  One pattern is shared by the copies of every storage precision.
template <class P>
struct SsorData {
  std::shared_ptr<const IluPattern> pat;
  double omega = 1.0;
  std::vector<P> vals;
};

/// Cast values to another storage precision; the pattern is shared, not
/// copied.
template <class Dst, class Src>
SsorData<Dst> cast_factors(const SsorData<Src>& f) {
  SsorData<Dst> out{f.pat, f.omega, std::vector<Dst>(f.vals.size())};
  blas::convert<Src, Dst>(std::span<const Src>(f.vals), std::span<Dst>(out.vals));
  return out;
}

/// One SSOR application: forward sweep, diagonal scaling, backward sweep.
/// Per-block sweeps are thread-invariant, so the serial backend runs the
/// identical loop with the OpenMP team suppressed — bit-identical results.
template <class P, class VT, class W = promote_t<P, VT>>
void ssor_solve(const SsorData<P>& f, std::span<const VT> r, std::span<VT> z,
                Backend be = Backend::kHost) {
  const IluPattern& g = *f.pat;
  const index_t nb = g.nblocks();
  const W om = static_cast<W>(f.omega);
  const bool par = be == Backend::kHost;
  (void)par;  // referenced only from the pragma; unused without OpenMP
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = g.block_start[b], b1 = g.block_start[b + 1];
    // Forward: (D/ω + L) y = r.
    for (index_t i = b0; i < b1; ++i) {
      W s = static_cast<W>(r[i]);
      for (index_t p = g.row_ptr[i]; p < g.diag_pos[i]; ++p)
        s -= static_cast<W>(f.vals[p]) * static_cast<W>(z[g.col_idx[p]]);
      z[i] = static_cast<VT>(s * om / static_cast<W>(f.vals[g.diag_pos[i]]));
    }
    // Scale: y ← (D/ω) y · (2−ω)/ω → combined into the backward sweep rhs.
    for (index_t i = b0; i < b1; ++i)
      z[i] = static_cast<VT>(static_cast<W>(z[i]) * static_cast<W>(f.vals[g.diag_pos[i]]) *
                             (W{2} - om) / om);
    // Backward: (D/ω + U) z = y.
    for (index_t i = b1; i-- > b0;) {
      W s = static_cast<W>(z[i]);
      for (index_t p = g.diag_pos[i] + 1; p < g.row_ptr[i + 1]; ++p)
        s -= static_cast<W>(f.vals[p]) * static_cast<W>(z[g.col_idx[p]]);
      z[i] = static_cast<VT>(s * om / static_cast<W>(f.vals[g.diag_pos[i]]));
    }
  }
}

template <class SP, class VT>
class SsorApplyHandle final : public Preconditioner<VT> {
 public:
  SsorApplyHandle(std::shared_ptr<const SsorData<SP>> f, std::shared_ptr<InvocationCounter> cnt)
      : f_(std::move(f)), cnt_(std::move(cnt)) {}

  void apply(std::span<const VT> r, std::span<VT> z) override {
    ++cnt_->count;
    ssor_solve(*f_, r, z, this->backend());
  }
  [[nodiscard]] index_t size() const override { return f_->pat->n; }

 private:
  std::shared_ptr<const SsorData<SP>> f_;
  std::shared_ptr<InvocationCounter> cnt_;
};

class SsorPrecond final : public FactoredPrecond<SsorData, SsorApplyHandle> {
 public:
  struct Config {
    int nblocks = 0;     ///< 0 → one block per OpenMP thread
    double omega = 1.0;  ///< relaxation weight (1 = symmetric Gauss-Seidel)
  };

  SsorPrecond(const CsrMatrix<double>& a, Config cfg);

  [[nodiscard]] std::string name() const override { return "ssor"; }
};

}  // namespace nk
