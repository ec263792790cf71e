// Truncated Neumann-series polynomial preconditioner.
//
// For a diagonally scaled matrix à = D^{-1/2} A D^{-1/2} = I − N,
//
//   M⁻¹ ≈ Σ_{k=0}^{degree} Nᵏ  (applied to D⁻¹-scaled input via Horner)
//
// i.e. z = r + N(r + N(r + …)).  Application is `degree` SpMVs and vector
// adds — completely reduction-free and triangular-solve-free, which makes
// it (like SD-AINV) a natural fit for wide-SIMT hardware and for the
// asynchronous settings the paper's future work mentions.  Degree 0 is
// Jacobi.  The Horner recurrence uses the *original* matrix and its
// diagonal: z ← D⁻¹ r + (I − D⁻¹A) z.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "backend/kernels.hpp"
#include "base/backend.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// A at storage precision P, and D⁻¹.  The fp64 matrix is A itself, shared
/// with the problem; a lower copy is A's values rounded to P over A's
/// pattern, so a neumann primary adds no fp64 copy of A.
template <class P>
struct NeumannData {
  index_t n = 0;
  int degree = 2;
  std::shared_ptr<const CsrMatrix<double>> a;  ///< A: the pattern, and the fp64 values
  std::vector<P> vals;      ///< A's values at P; empty at fp64, which reads a->vals
  std::vector<P> inv_diag;  ///< D⁻¹

  [[nodiscard]] CsrView<P> matrix() const {
    if constexpr (std::is_same_v<P, double>) return *a;
    else return {*a, vals};
  }
};

template <class Dst>
NeumannData<Dst> cast_factors(const NeumannData<double>& f) {
  NeumannData<Dst> out;
  out.n = f.n;
  out.degree = f.degree;
  out.a = f.a;
  out.vals.resize(f.a->vals.size());
  blas::convert<double, Dst>(std::span<const double>(f.a->vals), std::span<Dst>(out.vals));
  out.inv_diag.resize(f.inv_diag.size());
  blas::convert<double, Dst>(std::span<const double>(f.inv_diag), std::span<Dst>(out.inv_diag));
  return out;
}

/// z = Σ_{k≤degree} (I − D⁻¹A)ᵏ D⁻¹ r via Horner; tmp must have size n.
/// The element updates are backend-invariant (same loop, OpenMP team
/// suppressed for serial); the interior SpMV dispatches per backend.
template <class P, class VT, class W = promote_t<P, VT>>
void neumann_apply(const NeumannData<P>& f, std::span<const VT> r, std::span<VT> z,
                   std::span<VT> tmp, Backend be = Backend::kHost) {
  const std::ptrdiff_t n = f.n;
  const kern::Kernels kx(be);
  const bool par = be == Backend::kHost;
  (void)par;  // referenced only from the pragma; unused without OpenMP
  // z ← D⁻¹ r
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t i = 0; i < n; ++i)
    z[i] = static_cast<VT>(static_cast<W>(r[i]) * static_cast<W>(f.inv_diag[i]));
  for (int k = 0; k < f.degree; ++k) {
    // tmp ← A z;  z ← D⁻¹ r + z − D⁻¹ tmp
    kx.spmv(f.matrix(), std::span<const VT>(z.data(), z.size()), tmp);
#pragma omp parallel for schedule(static) if (par)
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      const W d = static_cast<W>(f.inv_diag[i]);
      z[i] = static_cast<VT>(d * static_cast<W>(r[i]) + static_cast<W>(z[i]) -
                             d * static_cast<W>(tmp[i]));
    }
  }
}

template <class SP, class VT>
class NeumannApplyHandle final : public Preconditioner<VT> {
 public:
  NeumannApplyHandle(std::shared_ptr<const NeumannData<SP>> f,
                     std::shared_ptr<InvocationCounter> cnt)
      : f_(std::move(f)), cnt_(std::move(cnt)), tmp_(f_->n) {}

  void apply(std::span<const VT> r, std::span<VT> z) override {
    ++cnt_->count;
    neumann_apply(*f_, r, z, std::span<VT>(tmp_), this->backend());
  }
  [[nodiscard]] index_t size() const override { return f_->n; }

 private:
  std::shared_ptr<const NeumannData<SP>> f_;
  std::shared_ptr<InvocationCounter> cnt_;
  std::vector<VT> tmp_;
};

class NeumannPrecond final : public FactoredPrecond<NeumannData, NeumannApplyHandle> {
 public:
  struct Config {
    int degree = 2;  ///< number of SpMVs per application
  };

  /// Holds `a` itself: the fp64 apply reads A's own values.
  NeumannPrecond(std::shared_ptr<const CsrMatrix<double>> a, Config cfg);

  [[nodiscard]] std::string name() const override { return "neumann"; }
};

}  // namespace nk
