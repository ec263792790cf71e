// SolverWorkspace — the reusable allocation arena behind the solver
// setup/solve split.
//
// Krylov solvers need substantial scratch: FGMRES keeps the contiguous V/Z
// basis blocks, Richardson its residual and ω'-computation vectors, the
// precision bridges their conversion buffers.  Before this workspace every
// solver object owned those buffers privately, so solving against a new
// matrix (or rebuilding a nested solver tuple) re-allocated the whole set.
// A production service that solves many systems back-to-back wants the
// opposite: pay for setup once, then run solve()/solve_many() with zero
// per-call allocation, and *reuse* the same memory when it moves on to the
// next matrix of the same (or smaller) size.
//
// SolverWorkspace is a keyed, grow-only pool of typed buffers:
//
//   * get<T>(key, n) returns a span of n T's backed by a persistent slab.
//     The slab grows when n outgrows it and is otherwise reused as-is, so a
//     second setup() against an equally-sized matrix performs no
//     allocation at all.
//   * Keys are hierarchical by convention ("lvl1.fgmres.V"): every solver
//     in a nested tuple draws from the same workspace under its own
//     prefix, and rebuilding the tuple (new matrix, same shape) hits the
//     same keys.
//   * allocations() counts slab growths — tests assert it stays flat
//     across repeated solves, which is the "zero per-call allocation"
//     contract made checkable.
//
// A slab's span stays valid until a larger get() on the same key or
// release(); each key must have exactly ONE live consumer (the solver that
// owns the prefix), so the growth-invalidates-spans rule is local by
// construction.  Two live solvers sharing a workspace must therefore use
// distinct key prefixes — every solver constructor takes one — since the
// workspace cannot tell consumers apart: a second solver set up under the
// same key silently aliases (or, if larger, dangles) the first one's
// buffers.  Sequential reuse of a key by a NEW solver against the next
// matrix is exactly the intended pattern.  The workspace is not
// thread-safe; share one per solver pipeline, not across
// concurrently-solving pipelines.
// NUMA: freshly grown slab bytes are first-touch initialized by a static
// OpenMP sweep whose contiguous per-thread slices match the static
// scheduling of every kernel that later reads the buffer, so on a
// first-touch NUMA system each page lands on the node of the thread that
// will stream it.  (Serial memset placed every page on the calling
// thread's node — the classic remote-traffic trap for the batched panels.)
// Zero-filling is observationally identical either way, so this is purely
// a placement change; NKRYLOV_FIRST_TOUCH=0 restores the serial memset.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>

#include "base/backend.hpp"
#include "base/env.hpp"

namespace nk {

namespace workspace_detail {

/// Parallel first-touch zero of [p, p+bytes): contiguous per-thread slices
/// under schedule(static), exactly the slice shape the BLAS/SpMM kernels'
/// `parallel for schedule(static)` sweeps assign.  Tiny or env-disabled
/// fills fall back to one memset.
inline void first_touch_zero(std::byte* p, std::size_t bytes, Backend be) {
  // Checked flag parse: a malformed NKRYLOV_FIRST_TOUCH warns once naming
  // the variable and value, then keeps the default (on) — it no longer
  // silently counts as truthy.
  static const bool enabled = env_flag("NKRYLOV_FIRST_TOUCH", true);
  constexpr std::size_t kChunk = 1 << 16;  // per-slice granule: page-multiple
  // First-touch placement is a HOST-backend property: its per-thread slices
  // mirror the OpenMP static schedule of the host kernels.  The serial
  // backend streams every buffer from one thread, so its slabs take the
  // plain memset (placement only — the zero fill is identical).
  if (be != Backend::kHost || !enabled || bytes < 2 * kChunk) {
    std::memset(p, 0, bytes);
    return;
  }
  const std::ptrdiff_t nchunks = static_cast<std::ptrdiff_t>((bytes + kChunk - 1) / kChunk);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t c = 0; c < nchunks; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * kChunk;
    std::memset(p + off, 0, std::min(kChunk, bytes - off));
  }
}

}  // namespace workspace_detail

class SolverWorkspace {
 public:
  /// Slab alignment: one cache line.  The SELL/SpMM SIMD kernels and the
  /// F16C bulk converters read solver buffers with 32-byte vector loads;
  /// default operator-new only guarantees 16, so slabs carry their own
  /// (over-)alignment — which also keeps hot per-column panels from
  /// straddling cache lines at their starts.
  static constexpr std::size_t kSlabAlign = 64;

  /// Typed view of the slab registered under `key`, grown to hold at least
  /// `n` elements.  Newly grown bytes are zero; reused bytes keep whatever
  /// the previous user left (solvers initialize their buffers in setup()).
  template <class T>
  std::span<T> get(std::string_view key, std::size_t n) {
    static_assert(alignof(T) <= kSlabAlign, "slab alignment covers cache-line-aligned types");
    auto [it, inserted] = slabs_.try_emplace(std::string(key));
    Slab& slab = it->second;
    const std::size_t need = n * sizeof(T);
    if (slab.size < need) {
      SlabPtr grown(static_cast<std::byte*>(
          ::operator new(need, std::align_val_t{kSlabAlign})));
      if (slab.size > 0) std::memcpy(grown.get(), slab.mem.get(), slab.size);
      workspace_detail::first_touch_zero(grown.get() + slab.size, need - slab.size,
                                         backend_);
      slab.mem = std::move(grown);
      slab.size = need;
      ++allocations_;
    }
    return {reinterpret_cast<T*>(slab.mem.get()), n};
  }

  /// Number of slab growths since construction/release; flat across two
  /// identical setup()+solve() rounds ⇒ the second round allocated nothing.
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

  /// Distinct keys currently held.
  [[nodiscard]] std::size_t buffers() const { return slabs_.size(); }

  /// Total bytes of slab capacity (the memory the setup phase committed).
  [[nodiscard]] std::size_t bytes() const {
    std::size_t b = 0;
    for (const auto& [k, slab] : slabs_) b += slab.size;
    return b;
  }

  /// Drop every slab (spans handed out become dangling).
  void release() {
    slabs_.clear();
    allocations_ = 0;
  }

  /// Execution-space backend the owning pipeline was built for.  Solvers
  /// and operators built over this workspace read it in setup(); Session
  /// resolves it (spec > NKRYLOV_BACKEND > host) before minting the engine.
  /// Also a slab property: first-touch NUMA placement applies to host
  /// slabs only (serial slabs take a plain memset).  Defaults to host so
  /// legacy/direct construction paths stay byte-identical.
  [[nodiscard]] Backend backend() const { return backend_; }
  void set_backend(Backend be) { backend_ = be; }

 private:
  struct AlignedDelete {
    void operator()(std::byte* p) const noexcept {
      ::operator delete(p, std::align_val_t{kSlabAlign});
    }
  };
  using SlabPtr = std::unique_ptr<std::byte, AlignedDelete>;
  struct Slab {
    SlabPtr mem;
    std::size_t size = 0;
  };

  // std::map: stable iteration for bytes(), no rehash cost on lookup-heavy
  // use, and key count is small (a handful of buffers per solver level).
  std::map<std::string, Slab, std::less<>> slabs_;
  std::uint64_t allocations_ = 0;
  Backend backend_ = Backend::kHost;
};

}  // namespace nk
