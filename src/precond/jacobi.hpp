// Jacobi (diagonal) preconditioner — the simplest primary preconditioner;
// used in tests and as a cheap baseline in ablation benches.
#pragma once

#include <memory>
#include <vector>

#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace nk {

template <class P>
struct JacobiFactors {
  index_t n = 0;
  std::vector<P> inv_diag;
};

template <class Dst, class Src>
JacobiFactors<Dst> cast_factors(const JacobiFactors<Src>& f) {
  JacobiFactors<Dst> out;
  out.n = f.n;
  out.inv_diag.resize(f.inv_diag.size());
  blas::convert<Src, Dst>(std::span<const Src>(f.inv_diag), std::span<Dst>(out.inv_diag));
  return out;
}

template <class SP, class VT>
class JacobiApplyHandle final : public Preconditioner<VT> {
 public:
  JacobiApplyHandle(std::shared_ptr<const JacobiFactors<SP>> f,
                    std::shared_ptr<InvocationCounter> cnt)
      : f_(std::move(f)), cnt_(std::move(cnt)) {}

  // The diagonal scaling is element-local, so the serial backend is the
  // identical loop with the OpenMP team suppressed (`if` clause) —
  // bit-identical results on either backend.
  void apply(std::span<const VT> r, std::span<VT> z) override {
    ++cnt_->count;
    using W = promote_t<SP, VT>;
    const std::ptrdiff_t n = f_->n;
    const bool par = this->backend() == Backend::kHost;
    (void)par;  // referenced only from the pragma; unused without OpenMP
#pragma omp parallel for schedule(static) if (par)
    for (std::ptrdiff_t i = 0; i < n; ++i)
      z[i] = static_cast<VT>(static_cast<W>(r[i]) * static_cast<W>(f_->inv_diag[i]));
  }
  /// Batched apply: one sweep over the diagonal serves all k columns; each
  /// element computes exactly the per-column apply() op.
  void apply_many(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz,
                  int k) override {
    cnt_->count += static_cast<std::uint64_t>(k);
    using W = promote_t<SP, VT>;
    const std::ptrdiff_t n = f_->n;
    const SP* __restrict d = f_->inv_diag.data();
    const bool par = this->backend() == Backend::kHost;
    (void)par;
#pragma omp parallel for schedule(static) if (par)
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      const W di = static_cast<W>(d[i]);
      for (int c = 0; c < k; ++c)
        z[static_cast<std::ptrdiff_t>(c) * ldz + i] =
            static_cast<VT>(static_cast<W>(r[static_cast<std::ptrdiff_t>(c) * ldr + i]) * di);
    }
  }
  [[nodiscard]] index_t size() const override { return f_->n; }

 private:
  std::shared_ptr<const JacobiFactors<SP>> f_;
  std::shared_ptr<InvocationCounter> cnt_;
};

class JacobiPrecond final : public FactoredPrecond<JacobiFactors, JacobiApplyHandle> {
 public:
  explicit JacobiPrecond(const CsrMatrix<double>& a);

  [[nodiscard]] std::string name() const override { return "jacobi"; }
};

}  // namespace nk
