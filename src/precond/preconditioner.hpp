// Preconditioner interfaces.
//
// Two layers:
//
//  * Preconditioner<VT> — the typed application interface a solver calls:
//    z = M⁻¹ r on vectors of type VT.  Inner solvers of the nested Krylov
//    framework also implement this interface (a solver *is* a flexible
//    preconditioner of its parent).
//
//  * PrimaryPrecond — a factorization-owning object (ILU(0), IC(0), AINV,
//    Jacobi) constructed once in fp64 and able to mint typed apply handles
//    at any storage precision (fp64 / fp32 / fp16).  The paper constructs
//    preconditioners in fp64 and then casts the values ("we first construct
//    it in fp64 and then cast its values to fp32 or fp16").  That rule has
//    one implementation, PrecCopies: each fp32/fp16 copy is minted once, on
//    first use, and safely when several threads ask for it at once.
//    FactoredPrecond builds the six factorization primaries on it, and
//    MultiPrecMatrix draws A's copies from it too.
//
// Every apply through a PrimaryPrecond handle increments a shared
// invocation counter — the metric of the paper's Table 3.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>

#include "backend/kernels.hpp"
#include "base/backend.hpp"
#include "base/half.hpp"
#include "base/blas1.hpp"

namespace nk {

/// Typed preconditioner application: z = M⁻¹ r (or an approximation).
template <class VT>
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z = M⁻¹ r.  `r` and `z` must not alias and must both have size().
  virtual void apply(std::span<const VT> r, std::span<VT> z) = 0;

  /// Z_c = M⁻¹ R_c for k batch columns (column c at r + c·ldr / z + c·ldz).
  /// Column results are bit-identical to k apply() calls in column order —
  /// the contract batched solvers rely on.  The default loops (which also
  /// preserves any solver-internal state sequencing, e.g. Algorithm 1's
  /// adaptive Richardson weights); stateless preconditioners override with
  /// fused kernels that read their factors once per batch.
  virtual void apply_many(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz,
                          int k) {
    const std::size_t n = static_cast<std::size_t>(size());
    for (int c = 0; c < k; ++c)
      apply(std::span<const VT>(r + static_cast<std::ptrdiff_t>(c) * ldr, n),
            std::span<VT>(z + static_cast<std::ptrdiff_t>(c) * ldz, n));
  }

  [[nodiscard]] virtual index_t size() const = 0;

  /// Execution-space backend this handle's kernels run on.  Set by the
  /// minting site (engines, nested builder) right after make_apply; the
  /// default host keeps direct construction paths byte-identical.
  void set_backend(Backend be) { kx_ = kern::Kernels(be); }
  [[nodiscard]] Backend backend() const { return kx_.backend(); }

 protected:
  [[nodiscard]] const kern::Kernels& kern_table() const { return kx_; }

 private:
  kern::Kernels kx_;
};

/// Identity "preconditioner" (un-preconditioned solves in tests/benches).
template <class VT>
class IdentityPrecond final : public Preconditioner<VT> {
 public:
  explicit IdentityPrecond(index_t n) : n_(n) {}
  void apply(std::span<const VT> r, std::span<VT> z) override {
    this->kern_table().copy(r, z);
  }
  [[nodiscard]] index_t size() const override { return n_; }

 private:
  index_t n_;
};

/// Shared invocation counter (Table 3 metric).
struct InvocationCounter {
  std::uint64_t count = 0;
};

/// A primary preconditioner M: owns the fp64 factorization, mints typed
/// apply handles at a requested storage precision, and counts invocations
/// across *all* handles (every nesting level applies the same primary M).
class PrimaryPrecond {
 public:
  virtual ~PrimaryPrecond() = default;

  /// Short name for reporting ("bj-ilu0", "bj-ic0", "sd-ainv", "jacobi").
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual index_t size() const = 0;

  /// Mint a typed apply handle with values stored at `storage` precision.
  /// Storage copies are created lazily, once, and cached inside the object;
  /// concurrent first calls are safe.
  virtual std::unique_ptr<Preconditioner<double>> make_apply_fp64(Prec storage) = 0;
  virtual std::unique_ptr<Preconditioner<float>> make_apply_fp32(Prec storage) = 0;
  virtual std::unique_ptr<Preconditioner<half>> make_apply_fp16(Prec storage) = 0;

  /// Typed convenience dispatcher.
  template <class VT>
  std::unique_ptr<Preconditioner<VT>> make_apply(Prec storage) {
    if constexpr (std::is_same_v<VT, double>) return make_apply_fp64(storage);
    else if constexpr (std::is_same_v<VT, float>) return make_apply_fp32(storage);
    else return make_apply_fp16(storage);
  }

  [[nodiscard]] std::uint64_t invocations() const { return counter_->count; }
  void reset_invocations() { counter_->count = 0; }

 protected:
  std::shared_ptr<InvocationCounter> counter_ = std::make_shared<InvocationCounter>();
};

/// The storage-precision ladder of one fp64 object F<double> (a
/// factorization, or A itself): the fp32 and fp16 copies are cast from fp64
/// by the cast_factors overload of F, each at most once, on its first
/// request.  Minting holds a mutex, so threads that first ask for a copy at
/// the same time (two Sessions on one PreparedProblem, two handles of one
/// shared M) all receive the one copy.
template <template <class> class F>
class PrecCopies {
 public:
  explicit PrecCopies(std::shared_ptr<const F<double>> f64) : f64_(std::move(f64)) {}

  /// The copy at storage precision P, minted on the first call.  The
  /// pointer never changes once returned.
  template <class P>
  const std::shared_ptr<const F<P>>& get() const {
    if constexpr (std::is_same_v<P, double>) {
      return f64_;
    } else {
      const std::lock_guard<std::mutex> lock(mu_);
      auto& slot = std::get<std::shared_ptr<const F<P>>>(lower_);
      if (!slot) slot = std::make_shared<const F<P>>(cast_factors<P>(*f64_));
      return slot;
    }
  }

  /// The copy at P if it has been minted, else null (never mints).
  template <class P>
  std::shared_ptr<const F<P>> minted() const {
    if constexpr (std::is_same_v<P, double>) {
      return f64_;
    } else {
      const std::lock_guard<std::mutex> lock(mu_);
      return std::get<std::shared_ptr<const F<P>>>(lower_);
    }
  }

 private:
  std::shared_ptr<const F<double>> f64_;
  mutable std::mutex mu_;
  mutable std::tuple<std::shared_ptr<const F<float>>, std::shared_ptr<const F<half>>> lower_;
};

/// A primary preconditioner whose fp64 factorization F<double> is cast down
/// a PrecCopies ladder; its apply handles are Handle<storage, vector>, each
/// constructed from (shared factors, invocation counter).  A derived class
/// factors A in its constructor, passes the result to set_factors(), and
/// adds only its name() and diagnostics.
template <template <class> class F, template <class, class> class Handle>
class FactoredPrecond : public PrimaryPrecond {
 public:
  [[nodiscard]] index_t size() const override { return n_; }

  std::unique_ptr<Preconditioner<double>> make_apply_fp64(Prec storage) override {
    return mint<double>(storage);
  }
  std::unique_ptr<Preconditioner<float>> make_apply_fp32(Prec storage) override {
    return mint<float>(storage);
  }
  std::unique_ptr<Preconditioner<half>> make_apply_fp16(Prec storage) override {
    return mint<half>(storage);
  }

  /// The factors at storage precision P, minted on first request as by
  /// make_apply; the reference is stable for this object's lifetime.
  template <class P>
  [[nodiscard]] const F<P>& factors() const {
    return *copies_->template get<P>();
  }

 protected:
  explicit FactoredPrecond(index_t n) : n_(n) {}
  void set_factors(std::shared_ptr<const F<double>> f64) { copies_.emplace(std::move(f64)); }

 private:
  template <class VT>
  std::unique_ptr<Preconditioner<VT>> mint(Prec storage) {
    switch (storage) {
      case Prec::FP64: return handle<double, VT>();
      case Prec::FP32: return handle<float, VT>();
      case Prec::FP16: return handle<half, VT>();
    }
    throw std::logic_error(name() + ": bad storage precision");
  }
  template <class P, class VT>
  std::unique_ptr<Preconditioner<VT>> handle() {
    return std::make_unique<Handle<P, VT>>(copies_->template get<P>(), counter_);
  }

  index_t n_;
  std::optional<PrecCopies<F>> copies_;
};

}  // namespace nk
