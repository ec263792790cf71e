// The two solve workloads: fig1_memory_bound (the paper's Figure 1 set on
// HPCG at a size whose fp64 working set exceeds the last-level cache) and
// catalog_cache_resident (Table 2 stand-ins that fit in it).  Both run
// every spec in kSpecs on every matrix through nk::Session, time each
// solve from outside, and check every returned solution in fp64.
//
// Samples of all (matrix, spec) pairs are interleaved in seeded order,
// round after round, so a slow spell of the host lands on a few samples of
// many pairs rather than on every sample of one; each pair reports its
// median.
#include <memory>

#include "base/rng.hpp"
#include "bench.hpp"
#include "core/session.hpp"
#include "core/tune/perf_db.hpp"

namespace nkb {
namespace {

struct SolvePlan {
  std::vector<std::string> matrices;
  int scale = 1;
  int setup_reps = 1;
  /// true: every pair's Session stays alive, gets one untimed warm-up
  /// solve, and is timed over the rounds.  false (fig1, where seven
  /// scale-2 Sessions would need ~5 GB): every sample constructs a
  /// Session, solves once and destroys it; round 0's constructions are
  /// the set-up.
  bool warm = false;
  /// Rounds over all pairs; more run while --seconds lasts.
  int min_rounds = 1;
};

SolvePlan plan_for(const RunConfig& cfg) {
  if (cfg.workload == "fig1_memory_bound") {
    // One matrix and two rounds: a round over the seven specs at this size
    // takes ~19 s, and auto's probes add ~6 s of set-up.
    if (cfg.tiny) return {{"hpcg_4_4_4"}, 1, 1, false, 2};
    return {{"hpcg_6_5_5"}, 2, 1, false, 2};
  }
  if (cfg.tiny) return {{"thermal2", "Transport", "ss"}, -4, 2, true, 2};
  // All five structure classes: SPD diffusion (2-D, 3-D), elasticity-like
  // block SPD, nonsymmetric convection-diffusion (3-D, 2-D), circuit-like
  // graph, and the hard convection-dominated pair.
  return {{"thermal2", "apache2", "audikw_1", "Transport", "t2em", "Freescale1", "ss", "stokes"},
          1, 3, true, 3};
}

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<int> seeded_order(int n, std::uint64_t stream) {
  std::vector<int> o(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) o[i] = i;
  nk::Xoshiro256 rng(stream);
  for (int i = n - 1; i > 0; --i)
    std::swap(o[i], o[rng.uniform_index(static_cast<std::uint64_t>(i) + 1)]);
  return o;
}

struct TuneTally {
  double cold_ctor_s = 0.0;
  std::uint64_t probes = 0, misses = 0, hits = 0;
};

/// Construct one Session, timed.
std::unique_ptr<nk::Session> make_session(const std::shared_ptr<const nk::PreparedProblem>& p,
                                          int s, int parent, double& seconds) {
  const SpanScope span(p->name + " session_ctor:" + kSpecs[s].text, parent);
  const double t0 = now_s();
  auto sess = std::make_unique<nk::Session>(p, std::string(kSpecs[s].text));
  seconds = now_s() - t0;
  return sess;
}

}  // namespace

WorkloadResult run_solve_workload(const RunConfig& cfg, InputDigest& digest) {
  const SolvePlan plan = plan_for(cfg);
  const int nm = static_cast<int>(plan.matrices.size());
  WorkloadResult r;
  r.matrices = plan.matrices;
  r.pairs.resize(plan.matrices.size());
  r.setup_samples.assign(static_cast<std::size_t>(plan.setup_reps), 0.0);

  std::vector<std::shared_ptr<const nk::PreparedProblem>> probs(nm);
  std::vector<std::array<std::unique_ptr<nk::Session>, kNumSpecs>> sessions(nm);
  std::vector<std::vector<double>> prep_samples(nm);
  std::vector<std::array<std::vector<double>, kNumSpecs>> ctor_samples(nm);
  std::uint64_t req = 0;

  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    const SpanScope span("setup");
    for (int m = 0; m < nm; ++m) {
      for (auto& sess : sessions[m]) sess.reset();
      probs[m].reset();
    }
    // Each repetition starts "auto" from an empty perf-DB, so its probes
    // are part of the set-up being measured.
    nk::tune::tune_db().clear();
    for (int m = 0; m < nm; ++m) {
      const SpanScope prep(plan.matrices[m] + " prepare", span.id());
      const double t0 = now_s();
      probs[m] = std::make_shared<const nk::PreparedProblem>(
          nk::prepare_standin(plan.matrices[m], plan.scale, mix_seed(cfg.seed, 1, m)));
      prep_samples[m].push_back(now_s() - t0);
      r.setup_samples[rep] += prep_samples[m].back();
      if (!plan.warm) continue;
      for (int s = 0; s < kNumSpecs; ++s) {
        double t = 0.0;
        sessions[m][s] = make_session(probs[m], s, span.id(), t);
        ctor_samples[m][s].push_back(t);
        r.setup_samples[rep] += t;
      }
    }
  }
  double largest_nnz = 0.0;
  for (int m = 0; m < nm; ++m) {
    digest.add(probs[m]->b);
    r.rows.push_back(probs[m]->a->size());
    if (const double nnz = static_cast<double>(probs[m]->a->csr_fp64().nnz()); nnz > largest_nnz) {
      largest_nnz = nnz;
      r.largest = working_set(*probs[m]);
    }
  }

  const auto solve_timed = [&](nk::Session& sess, int m, int s, int parent, bool record) {
    const auto& p = *probs[m];
    std::vector<double> x(p.b.size(), 0.0);
    const SpanScope span(p.name + " solve:" + kSpecs[s].text, parent, ++req);
    const double t0 = now_s();
    const nk::SolveResult res = sess.solve(p.b, x);
    const double dt = now_s() - t0;
    r.outcome.check(p.a->csr_fp64(), p.b, x, nk::status_name(res.status), res.final_relres,
                    p.name + " " + kSpecs[s].text);
    if (!record) return;
    PairRecord& pr = r.pairs[m][s];
    pr.times.push_back(dt);
    pr.solo_times.push_back(dt);
    pr.last = res;
    r.request_ms.push_back(dt * 1e3);
    r.measured_s += dt;
  };

  if (plan.warm)
    for (int m = 0; m < nm; ++m)
      for (int s = 0; s < kNumSpecs; ++s) solve_timed(*sessions[m][s], m, s, -1, false);

  double spent = 0.0;
  for (int round = 0;; ++round) {
    const SpanScope span("round");
    const auto order = seeded_order(nm * kNumSpecs, mix_seed(cfg.seed, 2, round));
    // Rounds past the minimum depend on timing, so only the fixed ones
    // enter the digest.
    if (round < plan.min_rounds)
      for (int i : order) digest.add_u64(static_cast<std::uint64_t>(i));
    const double t0 = now_s();
    for (int i : order) {
      const int m = i / kNumSpecs, s = i % kNumSpecs;
      if (plan.warm) {
        solve_timed(*sessions[m][s], m, s, span.id(), true);
        continue;
      }
      // Later rounds' "auto" is answered by the perf-DB round 0 filled.
      double t = 0.0;
      auto sess = make_session(probs[m], s, span.id(), t);
      if (round == 0) {
        ctor_samples[m][s].push_back(t);
        r.setup_samples[0] += t;
      }
      solve_timed(*sess, m, s, span.id(), true);
    }
    const double round_s = now_s() - t0;
    spent += round_s;
    if (round + 1 >= plan.min_rounds && spent + round_s > cfg.seconds) break;
  }
  for (auto& row : sessions)
    for (auto& sess : row) sess.reset();
  // Probes and misses since the last clear: the cold "auto" constructions.
  TuneTally tune;
  tune.probes = nk::tune::tune_db().stats().probes;
  tune.misses = nk::tune::tune_db().stats().misses;

  for (int m = 0; m < nm; ++m) {
    r.prepare_s += median(prep_samples[m]);
    for (int s = 0; s < kNumSpecs; ++s) r.pairs[m][s].ctor_s = median(ctor_samples[m][s]);
    tune.cold_ctor_s += r.pairs[m][kAutoSpec].ctor_s;
  }

  if (cfg.trace) {
    KernelPasses kernels(cfg.threads);
    for (int m = 0; m < nm; ++m) {
      const auto& p = probs[m];
      // A second "auto" Session on the same matrix is answered by the
      // perf-DB the cold one filled (no probes).
      const auto before = nk::tune::tune_db().stats().hits;
      { const nk::Session warm_auto(p, std::string("auto")); }
      tune.hits += nk::tune::tune_db().stats().hits - before;
      for (int s = 0; s < kNumSpecs; ++s) {
        const std::string text = s == kAutoSpec ? tuned_spec(*p) : kSpecs[s].text;
        r.pairs[m][s].unit_cost = modeled_unit_cost(*p, text);
      }
      kernels.add(*p);
    }
    kernels.write(r.layer);
    r.layer["tune.ctor_s"] = {tune.cold_ctor_s, "s"};
    r.layer["tune.probes"] = {static_cast<double>(tune.probes), "count"};
    r.layer["tune.db_misses"] = {static_cast<double>(tune.misses), "count"};
    r.layer["tune.db_hits"] = {static_cast<double>(tune.hits), "count"};
    service_pass(cfg, r.layer, r.outcome);
  }
  return r;
}

}  // namespace nkb
