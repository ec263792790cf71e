#include "precond/ssor.hpp"

#include <cmath>
#include <stdexcept>

namespace nk {

SsorPrecond::SsorPrecond(const CsrMatrix<double>& a, Config cfg) : FactoredPrecond(a.nrows) {
  if (a.nrows != a.ncols) throw std::invalid_argument("SsorPrecond: matrix must be square");
  if (cfg.omega <= 0.0 || cfg.omega >= 2.0)
    throw std::invalid_argument("SsorPrecond: omega must be in (0, 2)");
  auto f = std::make_shared<SsorData<double>>();
  f->omega = cfg.omega;
  f->pat = block_restrict(a, cfg.nblocks, f->vals);
  for (const index_t p : f->pat->diag_pos) {
    double& d = f->vals[p];
    if (d == 0.0 || !std::isfinite(d)) d = 1.0;
  }
  set_factors(std::move(f));
}

}  // namespace nk
