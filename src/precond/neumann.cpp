#include "precond/neumann.hpp"

#include <cmath>
#include <stdexcept>

namespace nk {

NeumannPrecond::NeumannPrecond(std::shared_ptr<const CsrMatrix<double>> a, Config cfg)
    : FactoredPrecond(a->nrows) {
  if (a->nrows != a->ncols) throw std::invalid_argument("NeumannPrecond: matrix must be square");
  if (cfg.degree < 0) throw std::invalid_argument("NeumannPrecond: degree must be >= 0");
  auto f = std::make_shared<NeumannData<double>>();
  f->n = a->nrows;
  f->degree = cfg.degree;
  f->inv_diag.resize(a->nrows);
  const auto d = a->diagonal();
  for (index_t i = 0; i < a->nrows; ++i)
    f->inv_diag[i] = (d[i] != 0.0 && std::isfinite(d[i])) ? 1.0 / d[i] : 1.0;
  f->a = std::move(a);
  set_factors(std::move(f));
}

}  // namespace nk
