// Spec-driven solve — the whole descriptor API in one CLI:
//
//   ./solve_spec <matrix> [<spec>] [--scale=N] [--seed=S] [--sell] [--rhs=K]
//
// <matrix> is a Table 2 stand-in name ("hpcg_4_4_4", "ecology2", ...) or a
// Matrix Market file (anything ending in .mtx); <spec> is a solver spec
// string (default "f3r@fp16").  Examples:
//
//   ./solve_spec hpcg_4_4_4 f3r@fp16
//   ./solve_spec ecology2 "fgmres64/bj-ilu0@fp16"
//   ./solve_spec sherman.mtx "ir-gmres8@fp32;rtol=1e-6"
//   ./solve_spec hpcg_4_4_4 "cg/jacobi;wave=4" --rhs=8
//   ./solve_spec ecology2 auto                 (the autotuner picks)
//   ./solve_spec --list
//
// With --rhs=K the spec is solved for K seeded right-hand sides through
// Session::solve_many (one row per column).  --list prints every
// registered solver and preconditioner kind with its registry metadata
// (the strings the SPEC grammar accepts).  Malformed or unknown specs
// exit 2 with the registered kinds listed.
#include <iostream>

#include "base/env.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "core/fingerprint.hpp"
#include "core/session.hpp"
#include "sparse/io_matrix_market.hpp"
#include "sparse/stats.hpp"

namespace {

/// `--list`: the registry's contents as two metadata tables — the
/// discovery surface for "what can a spec string say on this build".
int list_kinds() {
  nk::Registry& reg = nk::registry();
  nk::Table st({"kind", "m?", "default-m", "@prec?", "conf?", "backends", "summary"});
  for (const std::string& kind : reg.solver_kinds()) {
    const nk::SolverKindInfo* info = reg.solver_info(kind);
    std::string backends;
    for (const nk::Backend be : info->backends)
      backends += std::string(backends.empty() ? "" : ",") + nk::backend_name(be);
    st.add_row({kind, info->takes_m ? "yes" : "no",
                info->takes_m ? nk::Table::fmt_int(info->default_m) : "-",
                info->takes_prec ? "yes" : "no", info->conformance ? "yes" : "no",
                backends, info->summary});
  }
  std::cout << "solver kinds:\n";
  st.print(std::cout);

  nk::Table pt({"kind", "conf?", "summary"});
  for (const std::string& kind : reg.precond_kinds()) {
    const nk::PrecondKindInfo* info = reg.precond_info(kind);
    pt.add_row({kind, info->conformance ? "yes" : "no", info->summary});
  }
  std::cout << "\npreconditioner kinds:\n";
  pt.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  nk::require_backend_env_cli();
  nk::Options opt(argc, argv);
  const bool list = opt.get_bool("list", false);
  const std::string spec_flag = opt.get("spec", "f3r@fp16");
  const bool use_sell = opt.get_bool("sell", false);
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int64("seed", 7));
  const int rhs = opt.get_int("rhs", 1);
  const int scale = opt.get_int("scale", 1);
  const bool help = opt.wants_help();
  opt.reject_unknown();
  if (list) return list_kinds();
  if (opt.positional().empty() || help) {
    std::cerr << "usage: solve_spec MATRIX [SPEC] [--scale=1] [--seed=7] [--sell] "
                 "[--rhs=K]\n"
                 "       solve_spec --list\n"
                 "  MATRIX: stand-in name (e.g. hpcg_4_4_4) or a .mtx file\n"
                 "  SPEC:   solver spec string, default f3r@fp16\n"
                 "  --list: print the registered solver/preconditioner kinds\n";
    return help ? 0 : 2;
  }
  const std::string matrix = opt.positional()[0];
  const std::string spec_text = opt.positional().size() > 1 ? opt.positional()[1] : spec_flag;

  const nk::SolverSpec spec = nk::parse_solver_spec_cli("spec", spec_text);

  nk::PreparedProblem p;
  try {
    if (matrix.size() > 4 && matrix.substr(matrix.size() - 4) == ".mtx") {
      nk::CsrMatrix<double> a = nk::read_matrix_market_file(matrix);
      const auto stats = nk::analyze(a);
      p = nk::prepare_problem(matrix, std::move(a), stats.numerically_symmetric, 1.0, 1.0,
                              seed, use_sell);
    } else {
      p = nk::prepare_standin(matrix, scale, seed, use_sell);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  // The grammar cannot know kind-specific value ranges (e.g. SSOR's
  // omega ∈ (0,2)); constructor rejections get the same one-line + exit(2)
  // treatment as parse errors.
  std::vector<nk::SolveResult> results;
  try {
    nk::Session session(std::move(p), spec);
    std::cout << "problem " << session.problem().name
              << ": n=" << session.problem().a->size()
              << ", nnz=" << session.problem().a->csr_fp64().nnz()
              << ", fingerprint=" << nk::fingerprint_hex(session.problem().fingerprint)
              << "\n";
    std::cout << "spec " << spec.to_string() << " -> solver " << session.solver_name()
              << ", M = " << session.precond().name() << "\n";
    if (rhs > 1) {
      const std::vector<double> B = session.make_rhs_batch(rhs);
      std::vector<double> X(B.size(), 0.0);
      results = session.solve_many(std::span<const double>(B), std::span<double>(X), rhs);
    } else {
      results.push_back(session.solve());
    }
  } catch (const std::exception& e) {
    std::cerr << "error: invalid spec '" << spec_text << "' for --spec: " << e.what()
              << "\n";
    return 2;
  }

  nk::Table t({"rhs", "solver", "conv", "outer-its", "restarts", "M-applies", "SpMVs",
               "time[s]", "relres"});
  for (std::size_t c = 0; c < results.size(); ++c) {
    const nk::SolveResult& r = results[c];
    t.add_row({std::to_string(c), r.solver, r.converged ? "yes" : "NO",
               nk::Table::fmt_int(r.iterations), nk::Table::fmt_int(r.restarts),
               nk::Table::fmt_int(static_cast<long long>(r.precond_invocations)),
               nk::Table::fmt_int(static_cast<long long>(r.spmv_count)),
               nk::Table::fmt(r.seconds, 3), nk::Table::fmt_sci(r.final_relres)});
  }
  t.print(std::cout);

  bool all = true;
  for (const auto& r : results) all = all && r.converged;
  return all ? 0 : 1;
}
