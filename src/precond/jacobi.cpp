#include "precond/jacobi.hpp"

#include <cmath>
#include <stdexcept>

namespace nk {

JacobiPrecond::JacobiPrecond(const CsrMatrix<double>& a) : FactoredPrecond(a.nrows) {
  if (a.nrows != a.ncols) throw std::invalid_argument("JacobiPrecond: matrix must be square");
  auto f = std::make_shared<JacobiFactors<double>>();
  f->n = a.nrows;
  f->inv_diag.resize(a.nrows);
  const std::vector<double> d = a.diagonal();
  for (index_t i = 0; i < a.nrows; ++i)
    f->inv_diag[i] = (d[i] != 0.0 && std::isfinite(d[i])) ? 1.0 / d[i] : 1.0;
  set_factors(std::move(f));
}

}  // namespace nk
