// SD-AINV — approximate inverse preconditioner applied with two SpMVs.
//
// The paper's GPU experiments use SD-AINV (Suzuki, Fukaya, Iwashita 2022),
// a simplified variant of the AINV factored approximate inverse (Benzi,
// Meyer, Tůma 1996):
//
//     M⁻¹ ≈ Z D⁻¹ Wᵀ            (W = Z for SPD matrices)
//
// where the columns of W and Z are built by incomplete biconjugation so
// that Wᵀ A Z ≈ D (diagonal).  Application is exactly two sparse
// matrix-vector products plus a diagonal scaling —
//     z = Z · (D⁻¹ · (Wᵀ r)) —
// which is why it suits wide-SIMT hardware: no triangular solves.
//
// Construction runs in fp64 with value dropping (relative threshold +
// per-column fill cap) to keep Z and W sparse; the paper's α_AINV diagonal
// boost is applied to A during construction.  Storage casts to fp32/fp16
// are lazy, exactly as for the ILU/IC factorizations.
#pragma once

#include <memory>
#include <vector>

#include "backend/kernels.hpp"
#include "base/backend.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// AINV data at storage precision P:  Wᵀ (rows = columns wᵢ), Z (natural row
/// storage), and the inverted pivots d⁻¹.  Wᵀ and Z each have one pattern,
/// shared by every precision's copy.
template <class P>
struct AinvFactors {
  index_t n = 0;
  CsrValues<P> wt;          ///< row i = wᵢᵀ
  CsrValues<P> z;           ///< Z by rows
  std::vector<P> inv_d;     ///< 1/dᵢ

  [[nodiscard]] index_t fill_nnz() const { return wt.nnz() + z.nnz(); }
};

template <class Dst, class Src>
AinvFactors<Dst> cast_factors(const AinvFactors<Src>& f) {
  AinvFactors<Dst> out;
  out.n = f.n;
  out.wt = cast_values<Dst>(f.wt.pat, f.wt.vals);
  out.z = cast_values<Dst>(f.z.pat, f.z.vals);
  out.inv_d.resize(f.inv_d.size());
  blas::convert<Src, Dst>(std::span<const Src>(f.inv_d), std::span<Dst>(out.inv_d));
  return out;
}

/// z = Z D⁻¹ Wᵀ r — two SpMVs + diagonal, all parallel.  `tmp` must have
/// size n and serves as the intermediate in the apply's working precision.
/// SpMVs dispatch per backend; the diagonal scaling is element-local and
/// runs the identical loop with the OpenMP team suppressed when serial.
template <class P, class VT, class W = promote_t<P, VT>>
void ainv_apply(const AinvFactors<P>& f, std::span<const VT> r, std::span<VT> z,
                std::span<VT> tmp, Backend be = Backend::kHost) {
  const kern::Kernels kx(be);
  kx.spmv(f.wt, r, tmp);  // tmp = Wᵀ r
  const std::ptrdiff_t n = f.n;
  const bool par = be == Backend::kHost;
  (void)par;  // referenced only from the pragma; unused without OpenMP
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t i = 0; i < n; ++i)
    tmp[i] = static_cast<VT>(static_cast<W>(tmp[i]) * static_cast<W>(f.inv_d[i]));
  kx.spmv(f.z, std::span<const VT>(tmp.data(), tmp.size()), z);  // z = Z tmp
}

template <class SP, class VT>
class AinvApplyHandle final : public Preconditioner<VT> {
 public:
  AinvApplyHandle(std::shared_ptr<const AinvFactors<SP>> f,
                  std::shared_ptr<InvocationCounter> cnt)
      : f_(std::move(f)), cnt_(std::move(cnt)), tmp_(f_->n) {}

  void apply(std::span<const VT> r, std::span<VT> z) override {
    ++cnt_->count;
    ainv_apply(*f_, r, z, std::span<VT>(tmp_), this->backend());
  }
  [[nodiscard]] index_t size() const override { return f_->n; }

 private:
  std::shared_ptr<const AinvFactors<SP>> f_;
  std::shared_ptr<InvocationCounter> cnt_;
  std::vector<VT> tmp_;
};

class SdAinv final : public FactoredPrecond<AinvFactors, AinvApplyHandle> {
 public:
  struct Config {
    double alpha = 1.0;      ///< α_AINV diagonal boost during construction
    double drop_tol = 0.1;   ///< relative drop threshold for Z/W entries
    int max_fill = 10;       ///< per-column cap on off-diagonal fill
    bool symmetric = false;  ///< true → single-sided biconjugation (W = Z)
    double pivot_floor = 1e-8;  ///< |d| clamp (stabilized pivots)
  };

  SdAinv(const CsrMatrix<double>& a, Config cfg);

  [[nodiscard]] std::string name() const override { return "sd-ainv"; }

  /// Pivots clamped by the stabilization floor.
  [[nodiscard]] int clamped_pivots() const { return clamped_; }

 private:
  int clamped_ = 0;
};

}  // namespace nk
