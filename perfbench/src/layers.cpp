// Per-layer measurements of the traced run, taken from outside each layer:
// kernel passes through nk::kern::Kernels and the preconditioner's apply
// handles on the workload's own operands (at 1 thread and at the run's
// thread count), plus the krylov/core/tune figures derived from the
// per-pair solve records.
#include "backend/kernels.hpp"
#include "bench.hpp"
#include "core/registry.hpp"
#include "core/spec.hpp"
#include "core/tune/features.hpp"
#include "core/tune/perf_db.hpp"
#include "core/tune/shortlist.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nkb {
namespace {

void set_threads(int t) {
#ifdef _OPENMP
  omp_set_num_threads(t);
#else
  (void)t;
#endif
}

/// Median seconds per call of `f`: calls are grouped into batches of at
/// least ~50 µs, and at least 3 batches and `min_s` seconds are timed.
template <class F>
double seconds_per_call(F&& f, double min_s) {
  f();  // first touch / lazy set-up stays out of the timing
  int batch = 1;
  for (;;) {
    const double t0 = now_s();
    for (int i = 0; i < batch; ++i) f();
    if (now_s() - t0 >= 50e-6 || batch >= (1 << 20)) break;
    batch *= 4;
  }
  std::vector<double> per;
  const double start = now_s();
  while (per.size() < 3 || now_s() - start < min_s) {
    const double t0 = now_s();
    for (int i = 0; i < batch; ++i) f();
    per.push_back((now_s() - t0) / batch);
  }
  return median(per);
}

constexpr double kMinKernelSeconds = 0.01;

}  // namespace

void KernelPasses::time(const std::string& name, double bytes, const std::function<void()>& f) {
  Acc& a = acc_[name];
  set_threads(1);
  a.t1 += seconds_per_call(f, kMinKernelSeconds);
  set_threads(threads_);
  a.tn += seconds_per_call(f, kMinKernelSeconds);
  a.bytes += bytes;
}

void KernelPasses::add(const nk::PreparedProblem& p) {
  using nk::half;
  const nk::kern::Kernels kx;
  const auto& a64 = p.a->csr_fp64();
  const auto n = static_cast<std::size_t>(a64.nrows);
  const double nnz = static_cast<double>(a64.nnz());
  const double rows = static_cast<double>(n);
  const double structure = nnz * 4.0 + (rows + 1.0) * 4.0;
  const auto a32 = nk::cast_matrix<float>(a64);
  const auto a16 = nk::cast_matrix<half>(a64);

  std::vector<double> x64(n, 1.0), y64(n), z64(n);
  std::vector<float> x32(n, 1.0f), y32(n), z32(n);
  std::vector<half> x16(n, static_cast<half>(1.0f)), y16(n), z16(n);

  // sparse: CSR SpMV per storage precision (fp16 values with fp32 vectors,
  // as the nested solvers use them), and the daemon's batched SpMM.
  time("sparse.spmv_csr_fp64", nnz * 8 + structure + rows * 16,
       [&] { kx.spmv(a64, std::span<const double>(x64), std::span<double>(y64)); });
  time("sparse.spmv_csr_fp32", nnz * 4 + structure + rows * 8,
       [&] { kx.spmv(a32, std::span<const float>(x32), std::span<float>(y32)); });
  time("sparse.spmv_csr_fp16", nnz * 2 + structure + rows * 8,
       [&] { kx.spmv(a16, std::span<const float>(x32), std::span<float>(y32)); });
  {
    constexpr int k = 4;
    std::vector<double> X(n * k, 1.0), Y(n * k);
    const auto ld = static_cast<std::ptrdiff_t>(n);
    time("sparse.spmm_csr_fp64_k4", nnz * 8 + structure + rows * 16 * k,
         [&] { kx.spmm(a64, X.data(), ld, Y.data(), ld, k); });
  }

  // precond: the primary block-Jacobi factorization (built at the run's
  // thread count, which sets its block count) and one apply per storage
  // precision.
  set_threads(threads_);
  const double t0 = now_s();
  auto m = nk::registry().make_precond(nk::PrecondSpec::parse("bj"), p);
  precond_setup_s_ += now_s() - t0;
  {
    auto h64 = m->make_apply_fp64(nk::Prec::FP64);
    auto h32 = m->make_apply_fp32(nk::Prec::FP32);
    auto h16 = m->make_apply_fp16(nk::Prec::FP16);
    time("precond.apply_fp64", 0,
         [&] { h64->apply(std::span<const double>(x64), std::span<double>(z64)); });
    time("precond.apply_fp32", 0,
         [&] { h32->apply(std::span<const float>(x32), std::span<float>(z32)); });
    time("precond.apply_fp16", 0,
         [&] { h16->apply(std::span<const half>(x16), std::span<half>(z16)); });
  }

  // base: BLAS-1 per precision, the fp16->fp32 level bridge, and the
  // k=8 block dot of Arnoldi orthogonalisation.
  volatile double sink = 0.0;
  time("base.dot_fp64", rows * 16,
       [&] { sink = kx.dot(std::span<const double>(x64), std::span<const double>(y64)); });
  time("base.dot_fp32", rows * 8,
       [&] { sink = kx.dot(std::span<const float>(x32), std::span<const float>(y32)); });
  time("base.dot_fp16", rows * 4,
       [&] { sink = kx.dot(std::span<const half>(x16), std::span<const half>(y16)); });
  time("base.axpy_fp64", rows * 24,
       [&] { kx.axpy(1e-3, std::span<const double>(x64), std::span<double>(z64)); });
  time("base.axpy_fp32", rows * 12,
       [&] { kx.axpy(1e-3f, std::span<const float>(x32), std::span<float>(z32)); });
  time("base.axpy_fp16", rows * 6,
       [&] { kx.axpy(1e-3f, std::span<const half>(x16), std::span<half>(z16)); });
  time("base.convert_fp16_fp32", rows * 6,
       [&] { kx.convert(std::span<const half>(x16), std::span<float>(y32)); });
  {
    constexpr int k = 8;
    const auto ld = static_cast<std::ptrdiff_t>(n);
    std::vector<double> V64(n * k, 0.5);
    std::vector<half> V16(n * k, static_cast<half>(0.5f));
    double out64[k];
    float out16[k];
    time("base.dot_many_fp64_k8", rows * 8 * (k + 1),
         [&] { kx.dot_many(V64.data(), ld, k, std::span<const double>(x64), out64); });
    time("base.dot_many_fp16_k8", rows * 2 * (k + 1),
         [&] { kx.dot_many(V16.data(), ld, k, std::span<const half>(x16), out16); });
    sink = out64[0] + out16[0];
  }
  (void)sink;
}

void KernelPasses::write(Metrics& layer) const {
  for (const auto& [name, a] : acc_) {
    layer[name + ".us"] = {a.tn * 1e6, "us"};
    layer[name + ".par_eff"] = {a.t1 / (threads_ * a.tn), "ratio"};
    if (name.rfind("sparse.", 0) == 0) layer[name + ".gbps"] = {a.bytes / a.tn * 1e-9, "GB/s"};
  }
  layer["precond.setup_s"] = {precond_setup_s_, "s"};
}

WorkingSet working_set(const nk::PreparedProblem& p) {
  // Computed, not measured: CSR values + 32-bit indices for the matrix and
  // for ILU(0)/IC(0) factors (same pattern as A), plus 4 solver vectors.
  const auto& a = p.a->csr_fp64();
  const double nnz = static_cast<double>(a.nnz());
  const double n = static_cast<double>(a.nrows);
  WorkingSet w;
  w.matrix = p.name;
  const double value_bytes[3] = {8, 4, 2};
  for (int i = 0; i < 3; ++i)
    w.bytes[i] = 2 * (nnz * (value_bytes[i] + 4) + (n + 1) * 4) + 4 * n * value_bytes[i];
  return w;
}

std::string tuned_spec(const nk::PreparedProblem& p) {
  std::string text;
  return nk::tune::tune_db().lookup(p.fingerprint, text) ? text : std::string();
}

double modeled_unit_cost(const nk::PreparedProblem& p, const std::string& spec_text) {
  if (spec_text.empty()) return 0.0;
  return nk::tune::unit_cost(nk::tune::extract_features(p), nk::SolverSpec::parse(spec_text));
}

void solve_layer_metrics(const WorkloadResult& r, Metrics& layer) {
  layer["core.prepare_s"] = {r.prepare_s, "s"};
  double best_fixed = 0.0, auto_tts = 0.0;
  for (std::size_t m = 0; m < r.pairs.size(); ++m) {
    double best = 0.0;
    for (int s = 0; s < kNumSpecs; ++s) {
      const double t = median(r.pairs[m][s].times);
      if (s == kAutoSpec) auto_tts += t;
      else if (best == 0.0 || t < best) best = t;
    }
    best_fixed += best;
  }
  layer["tune.auto_over_best_tts"] = {auto_tts / best_fixed, "ratio"};

  for (int s = 0; s < kNumSpecs; ++s) {
    double iters = 0, m_applies = 0, spmvs = 0, ctor = 0, modeled = 0, solve_s = 0;
    for (std::size_t m = 0; m < r.pairs.size(); ++m) {
      const PairRecord& pr = r.pairs[m][s];
      const double t = median(pr.solo_times);
      iters += pr.last.iterations;
      m_applies += static_cast<double>(pr.last.precond_invocations);
      spmvs += static_cast<double>(pr.last.spmv_count);
      ctor += pr.ctor_s;
      modeled += pr.unit_cost * static_cast<double>(pr.last.precond_invocations) *
                 static_cast<double>(r.rows[m]);
      solve_s += t;
    }
    const std::string k = kSpecs[s].key;
    layer["krylov." + k + ".iters"] = {iters, "count"};
    layer["krylov." + k + ".m_applies"] = {m_applies, "count"};
    layer["krylov." + k + ".spmvs"] = {spmvs, "count"};
    layer["krylov." + k + ".ms_per_m_apply"] = {solve_s * 1e3 / m_applies, "ms"};
    layer["core." + k + ".session_ctor_s"] = {ctor, "s"};
    layer["core." + k + ".modeled_accesses"] = {modeled, "count"};
    layer["core." + k + ".ns_per_modeled_access"] = {solve_s * 1e9 / modeled, "ns"};
  }
}

}  // namespace nkb
