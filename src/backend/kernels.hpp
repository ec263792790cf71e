// nk::kern::Kernels — the execution-space dispatch table.
//
// A Kernels value carries the nk::Backend a solver was built for and
// forwards every kernel call to that backend's implementation:
//
//   kern::Kernels kx(ws.backend());
//   kx.dot(r, r);            // host: blas::dot (OpenMP/SIMD paths)
//   kx.spmm(a, x, ldx, ...); // serial: nk::serial::spmm (plain loops)
//
// Engines, solvers, operators, and preconditioner handles hold a Kernels
// member instead of naming nk::blas:: / nk::spmv / nk::spmm directly —
// the seam ROADMAP item 1 asked for.  Dispatch is a compile-time choice
// between per-backend policy structs selected by one runtime branch on the
// stored enum: the kernel layer is templated over matrix × vector × scalar
// precisions, so a runtime function-pointer table would
// explode combinatorially and obscure the bit-identity contracts; a
// branch into fully-typed implementations keeps every instantiation
// checkable and costs one predictable test per kernel call (epsilon next
// to any kernel body).
//
// Adding a backend: implement the nk::serial surface (serial_kernels.hpp
// is the template) under src/backend/<name>/, add the enumerator in
// base/backend.hpp, and extend the branches here.  Kernels absent from a
// backend can fall back to staging through an existing one explicitly —
// never silently.
#pragma once

#include <cstddef>
#include <span>

#include "base/backend.hpp"
#include "base/blas1.hpp"
#include "base/blas_block.hpp"
#include "backend/serial_kernels.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"

namespace nk::kern {

class Kernels {
 public:
  constexpr Kernels() = default;
  constexpr explicit Kernels(Backend be) : be_(be) {}

  [[nodiscard]] constexpr Backend backend() const { return be_; }

  // ---- BLAS-1 ------------------------------------------------------------

  template <class Src, class Dst>
  void convert(std::span<const Src> x, std::span<Dst> y) const {
    if (be_ == Backend::kSerial) nk::serial::convert(x, y);
    else blas::convert(x, y);
  }

  template <class T>
  void copy(std::span<const T> x, std::span<T> y) const {
    if (be_ == Backend::kSerial) nk::serial::copy(x, y);
    else blas::copy(x, y);
  }

  template <class T>
  void set_zero(std::span<T> x) const {
    if (be_ == Backend::kSerial) nk::serial::set_zero(x);
    else blas::set_zero(x);
  }

  template <class T, class S>
  void scal(S alpha, std::span<T> x) const {
    if (be_ == Backend::kSerial) nk::serial::scal(alpha, x);
    else blas::scal(alpha, x);
  }

  template <class TX, class TY, class S>
  void axpy(S alpha, std::span<const TX> x, std::span<TY> y) const {
    if (be_ == Backend::kSerial) nk::serial::axpy(alpha, x, y);
    else blas::axpy(alpha, x, y);
  }

  template <class TX, class TY, class S>
  void axpby(S alpha, std::span<const TX> x, S beta, std::span<TY> y) const {
    if (be_ == Backend::kSerial) nk::serial::axpby(alpha, x, beta, y);
    else blas::axpby(alpha, x, beta, y);
  }

  template <class TX, class TY, class TZ>
  void sub(std::span<const TX> x, std::span<const TY> y, std::span<TZ> z) const {
    if (be_ == Backend::kSerial) nk::serial::sub(x, y, z);
    else blas::sub(x, y, z);
  }

  template <class TX, class TY>
  auto dot(std::span<const TX> x, std::span<const TY> y) const {
    return be_ == Backend::kSerial ? nk::serial::dot(x, y) : blas::dot(x, y);
  }

  template <class T>
  auto nrm2(std::span<const T> x) const {
    return be_ == Backend::kSerial ? nk::serial::nrm2(x) : blas::nrm2(x);
  }

  template <class T>
  double nrm_inf(std::span<const T> x) const {
    return be_ == Backend::kSerial ? nk::serial::nrm_inf(x) : blas::nrm_inf(x);
  }

  template <class T>
  std::size_t count_nonfinite(std::span<const T> x) const {
    return be_ == Backend::kSerial ? nk::serial::count_nonfinite(x)
                                   : blas::count_nonfinite(x);
  }

  // ---- blocked multi-vector kernels --------------------------------------

  template <class TV, class TW>
  void dot_many(const TV* v, std::ptrdiff_t ld, int k, std::span<const TW> w,
                acc_t<promote_t<TV, TW>>* out) const {
    if (be_ == Backend::kSerial) nk::serial::dot_many(v, ld, k, w, out);
    else blas::dot_many(v, ld, k, w, out);
  }

  template <class TV, class TW, class S>
  void axpy_many(const TV* v, std::ptrdiff_t ld, int k, const S* h, std::span<TW> w,
                 bool subtract = false) const {
    if (be_ == Backend::kSerial) nk::serial::axpy_many(v, ld, k, h, w, subtract);
    else blas::axpy_many(v, ld, k, h, w, subtract);
  }

  template <class TX, class TY, class S>
  void scal_copy(S alpha, std::span<const TX> x, std::span<TY> y) const {
    if (be_ == Backend::kSerial) nk::serial::scal_copy(alpha, x, y);
    else blas::scal_copy(alpha, x, y);
  }

  template <class TX, class TY>
  void dot_cols(const TX* x, std::ptrdiff_t ldx, const TY* y, std::ptrdiff_t ldy, int k,
                std::size_t n, acc_t<promote_t<TX, TY>>* out) const {
    if (be_ == Backend::kSerial) nk::serial::dot_cols(x, ldx, y, ldy, k, n, out);
    else blas::dot_cols(x, ldx, y, ldy, k, n, out);
  }

  template <class T>
  void nrm2_cols(const T* x, std::ptrdiff_t ldx, int k, std::size_t n, acc_t<T>* out) const {
    if (be_ == Backend::kSerial) nk::serial::nrm2_cols(x, ldx, k, n, out);
    else blas::nrm2_cols(x, ldx, k, n, out);
  }

  template <class TX, class TY, class S>
  void axpy_cols(const S* alpha, const TX* x, std::ptrdiff_t ldx, TY* yp,
                 std::ptrdiff_t ldy, int k, std::size_t n, const int* ymap = nullptr) const {
    if (be_ == Backend::kSerial) nk::serial::axpy_cols(alpha, x, ldx, yp, ldy, k, n, ymap);
    else blas::axpy_cols(alpha, x, ldx, yp, ldy, k, n, ymap);
  }

  template <class TX, class TY, class S>
  void axpby_cols(const S* alpha, const TX* x, std::ptrdiff_t ldx, const S* beta, TY* yp,
                  std::ptrdiff_t ldy, int k, std::size_t n) const {
    if (be_ == Backend::kSerial) nk::serial::axpby_cols(alpha, x, ldx, beta, yp, ldy, k, n);
    else blas::axpby_cols(alpha, x, ldx, beta, yp, ldy, k, n);
  }

  // ---- sparse products ---------------------------------------------------
  //
  // `Mat` is any CSR or SELL-C form: an owning CsrMatrix/SellMatrix, a
  // value-only CsrValues/SellValues copy, or a view of either.  Naming the
  // storage precision MT explicitly lets each backend take the argument
  // through its non-owning CsrView/SellView.

  template <class Mat, class XT, class YT>
  void spmv(const Mat& a, std::span<const XT> x, std::span<YT> y) const {
    using MT = typename Mat::value_type;
    if (be_ == Backend::kSerial) nk::serial::spmv<MT>(a, x, y);
    else nk::spmv<MT>(a, x, y);
  }

  template <class Mat, class XT, class BT, class YT>
  void residual(const Mat& a, std::span<const XT> x, std::span<const BT> b,
                std::span<YT> y) const {
    using MT = typename Mat::value_type;
    if (be_ == Backend::kSerial) nk::serial::residual<MT>(a, x, b, y);
    else nk::residual<MT>(a, x, b, y);
  }

  template <class Mat, class XT>
  double relative_residual(const Mat& a, std::span<const XT> x,
                           std::span<const double> b) const {
    using MT = typename Mat::value_type;
    return be_ == Backend::kSerial ? nk::serial::relative_residual<MT>(a, x, b)
                                   : nk::relative_residual<MT>(a, x, b);
  }

  template <class Mat, class XT, class YT>
  void spmm(const Mat& a, const XT* x, std::ptrdiff_t ldx, YT* y, std::ptrdiff_t ldy,
            int k) const {
    using MT = typename Mat::value_type;
    if (be_ == Backend::kSerial) nk::serial::spmm<MT>(a, x, ldx, y, ldy, k);
    else nk::spmm<MT>(a, x, ldx, y, ldy, k);
  }

 private:
  Backend be_ = Backend::kHost;
};

}  // namespace nk::kern
