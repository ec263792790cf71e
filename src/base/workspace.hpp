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
// Memory: a slab grows from zero-on-demand pages (an over-allocated
// std::calloc aligned by hand; glibc serves large blocks from fresh mmap
// pages without a memset), so growing a slab costs no pass over its bytes
// and a page is committed only when a kernel first writes it.  A solve
// that touches five columns of a 201-column FGMRES(100) basis commits five
// columns.  On a first-touch NUMA system the static-scheduled kernel that
// first writes a page also places it on the node of the thread that
// streams it.
#pragma once

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

namespace nk {

class SolverWorkspace {
 public:
  /// Slab alignment: one cache line.  The SELL/SpMM SIMD kernels and the
  /// F16C bulk converters read solver buffers with 32-byte vector loads;
  /// default operator-new only guarantees 16, so slabs carry their own
  /// (over-)alignment — which also keeps hot per-column panels from
  /// straddling cache lines at their starts.
  static constexpr std::size_t kSlabAlign = 64;

  /// Typed view of the slab registered under `key`, grown to hold at least
  /// `n` elements.  Newly grown bytes are zero (and uncommitted until first
  /// written); reused bytes keep whatever the previous user left, so a
  /// consumer writes every element before it reads it.
  template <class T>
  std::span<T> get(std::string_view key, std::size_t n) {
    static_assert(alignof(T) <= kSlabAlign, "slab alignment covers cache-line-aligned types");
    auto [it, inserted] = slabs_.try_emplace(std::string(key));
    Slab& slab = it->second;
    const std::size_t need = n * sizeof(T);
    if (slab.size < need) {
      Slab grown(need);
      if (slab.size > 0) std::memcpy(grown.data, slab.data, slab.size);
      slab = std::move(grown);
      ++allocations_;
    }
    return {reinterpret_cast<T*>(slab.data), n};
  }

  /// Number of slab growths since construction/release; flat across two
  /// identical setup()+solve() rounds ⇒ the second round allocated nothing.
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

  /// Distinct keys currently held.
  [[nodiscard]] std::size_t buffers() const { return slabs_.size(); }

  /// Total bytes of slab capacity (reserved; a page is committed when it is
  /// first written).
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
  /// Defaults to host so legacy/direct construction paths stay
  /// byte-identical.
  [[nodiscard]] Backend backend() const { return backend_; }
  void set_backend(Backend be) { backend_ = be; }

 private:
  /// One zero-on-demand block: `raw` is the calloc'd allocation, `data`
  /// its first kSlabAlign-aligned byte, `size` the usable bytes from there.
  struct Slab {
    Slab() = default;
    explicit Slab(std::size_t bytes)
        : raw(std::calloc(bytes + kSlabAlign - 1, 1)), size(bytes) {
      if (raw == nullptr) throw std::bad_alloc();
      const auto addr = reinterpret_cast<std::uintptr_t>(raw.get());
      data = static_cast<std::byte*>(raw.get()) + (-addr & (kSlabAlign - 1));
    }
    struct Free {
      void operator()(void* p) const noexcept { std::free(p); }
    };
    std::unique_ptr<void, Free> raw;
    std::byte* data = nullptr;
    std::size_t size = 0;
  };

  // std::map: stable iteration for bytes(), no rehash cost on lookup-heavy
  // use, and key count is small (a handful of buffers per solver level).
  std::map<std::string, Slab, std::less<>> slabs_;
  std::uint64_t allocations_ = 0;
  Backend backend_ = Backend::kHost;
};

}  // namespace nk
