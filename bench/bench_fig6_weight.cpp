// Figure 6 reproduction: adaptive weight vs static weights
// ω ∈ {0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}.
//
// The paper's point is stability: a well-chosen static ω can win on a
// given matrix, but the static approach is sensitive (it fails outright on
// audikw_1 for every tested ω) while the adaptive scheme is near-best
// everywhere.  Values < 1 mean the adaptive strategy was better.
#include "bench_common.hpp"

using namespace nk;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto cfg = bench::parse_bench_options(
      opt, {"hpcg_5_5_5", "thermal2", "audikw_1", "hpgmp_5_5_5", "atmosmodd"});
  bench::print_header("Figure 6 — adaptive vs static Richardson weight", cfg);

  Table t({"matrix", "omega", "performance-vs-adaptive", "conv-speed-vs-adaptive", "conv"});
  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    auto m = bench::bj_primary(p, cfg);
    auto nested = [&](const NestedConfig& nc) {
      return Session(borrow_problem(p), nc, f3r_termination(cfg.rtol), m).solve();
    };

    const auto adaptive = bench::best_of(cfg.runs, [&] {
      return nested(f3r_config(Prec::FP16));
    });
    t.add_row({name, "adaptive", "1.00", "1.00", adaptive.converged ? "yes" : "NO"});
    if (!adaptive.converged) continue;

    for (double w : {0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}) {
      F3rParams prm;
      prm.adaptive = false;
      prm.fixed_weight = static_cast<float>(w);
      const auto r = bench::best_of(cfg.runs, [&] {
        return nested(f3r_config(Prec::FP16, prm));
      });
      if (!r.converged) {
        t.add_row({name, Table::fmt(w, 1), "-", "-", "NO"});
        continue;
      }
      const double perf = adaptive.seconds / r.seconds;
      const double conv = static_cast<double>(adaptive.precond_invocations) /
                          static_cast<double>(r.precond_invocations);
      t.add_row({name, Table::fmt(w, 1), Table::fmt(perf, 2), Table::fmt(conv, 2),
                 "yes"});
    }
  }
  bench::finish_table(t, cfg);
  std::cout << "expected shape (paper Fig. 6): some static weights match or slightly beat\n"
               "adaptive on easy matrices, but static fails (or lags badly) on sensitive\n"
               "ones while adaptive never does — the stability argument for Algorithm 1.\n";
  return 0;
}
