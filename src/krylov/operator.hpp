// Typed linear-operator interface.
//
// A solver at nesting level d sees vectors of type VT; the matrix behind
// the operator may be stored at a different (lower) precision.  Concrete
// operators wrap a CSR or sliced-ELLPACK matrix and perform the product in
// promote_t<matrix precision, VT> — e.g. the paper's level-3 FGMRES does
// its SpMV in fp32 because A is fp16 and the Arnoldi basis is fp32.
#pragma once

#include <cstdint>
#include <span>

#include "backend/kernels.hpp"
#include "base/backend.hpp"
#include "base/half.hpp"
#include "sparse/sell.hpp"

namespace nk {

template <class VT>
class Operator {
 public:
  virtual ~Operator() = default;

  /// y = A x.
  virtual void apply(std::span<const VT> x, std::span<VT> y) = 0;

  /// r = b - A x (fused).
  virtual void residual(std::span<const VT> b, std::span<const VT> x, std::span<VT> r) = 0;

  /// Y_c = A X_c for k batch columns (column c at x + c·ldx / y + c·ldy),
  /// the batched CG/BiCGStab products.  Column results are bit-identical to
  /// k apply() calls; the default loops, concrete operators override with
  /// an SpMM that streams A only once.
  virtual void apply_many(const VT* x, std::ptrdiff_t ldx, VT* y, std::ptrdiff_t ldy,
                          int k) {
    const std::size_t n = static_cast<std::size_t>(size());
    for (int c = 0; c < k; ++c)
      apply(std::span<const VT>(x + static_cast<std::ptrdiff_t>(c) * ldx, n),
            std::span<VT>(y + static_cast<std::ptrdiff_t>(c) * ldy, n));
  }

  [[nodiscard]] virtual index_t size() const = 0;

  /// Number of operator applications so far (SpMV count; diagnostics).
  [[nodiscard]] std::uint64_t spmv_count() const { return count_; }
  void reset_spmv_count() { count_ = 0; }

 protected:
  std::uint64_t count_ = 0;
};

/// CSR-backed operator; MT is the storage precision of the matrix values.
/// It reads the matrix through a view, so the matrix (a CsrMatrix or a
/// value-only CsrValues copy) must outlive it.  The backend chooses which
/// kernel implementation performs the products — the operator itself never
/// names one.
template <class MT, class VT>
class CsrOperator final : public Operator<VT> {
 public:
  explicit CsrOperator(CsrView<MT> a, Backend be = Backend::kHost) : a_(a), kx_(be) {}

  void apply(std::span<const VT> x, std::span<VT> y) override {
    ++this->count_;
    kx_.spmv(a_, x, y);
  }
  void residual(std::span<const VT> b, std::span<const VT> x, std::span<VT> r) override {
    ++this->count_;
    kx_.residual(a_, x, b, r);
  }
  void apply_many(const VT* x, std::ptrdiff_t ldx, VT* y, std::ptrdiff_t ldy,
                  int k) override {
    this->count_ += static_cast<std::uint64_t>(k);  // k column-SpMVs, one A sweep
    kx_.spmm(a_, x, ldx, y, ldy, k);
  }
  [[nodiscard]] index_t size() const override { return a_.nrows; }

 private:
  CsrView<MT> a_;
  kern::Kernels kx_;
};

/// Sliced-ELLPACK-backed operator (the paper's GPU storage format), over a
/// SellMatrix or a value-only SellValues copy that must outlive it.
template <class MT, class VT>
class SellOperator final : public Operator<VT> {
 public:
  explicit SellOperator(SellView<MT> a, Backend be = Backend::kHost) : a_(a), kx_(be) {}

  void apply(std::span<const VT> x, std::span<VT> y) override {
    ++this->count_;
    kx_.spmv(a_, x, y);
  }
  void residual(std::span<const VT> b, std::span<const VT> x, std::span<VT> r) override {
    ++this->count_;
    kx_.residual(a_, x, b, r);
  }
  void apply_many(const VT* x, std::ptrdiff_t ldx, VT* y, std::ptrdiff_t ldy,
                  int k) override {
    this->count_ += static_cast<std::uint64_t>(k);
    kx_.spmm(a_, x, ldx, y, ldy, k);
  }
  [[nodiscard]] index_t size() const override { return a_.nrows; }

 private:
  SellView<MT> a_;
  kern::Kernels kx_;
};

}  // namespace nk
