#include "precond/ainv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nk {

namespace {

/// Sparse-vector workspace: dense value array + touched-index list.
struct SparseWork {
  std::vector<double> val;
  std::vector<index_t> touched;
  std::vector<char> mark;

  explicit SparseWork(index_t n) : val(n, 0.0), mark(n, 0) {}

  void add(index_t i, double v) {
    if (!mark[i]) {
      mark[i] = 1;
      touched.push_back(i);
      val[i] = v;
    } else {
      val[i] += v;
    }
  }

  void clear() {
    for (index_t i : touched) {
      val[i] = 0.0;
      mark[i] = 0;
    }
    touched.clear();
  }
};

using Col = std::vector<std::pair<index_t, double>>;  // sparse column (idx, val)

/// Drop small entries: keep `always` unconditionally, drop |v| < tol·max|v|,
/// then cap at max_fill largest-magnitude off-`always` entries.
Col extract_dropped(SparseWork& w, index_t always, double tol, int max_fill) {
  double vmax = 0.0;
  for (index_t i : w.touched) vmax = std::max(vmax, std::abs(w.val[i]));
  const double thresh = tol * vmax;
  Col out;
  out.reserve(w.touched.size());
  for (index_t i : w.touched) {
    if (i == always || std::abs(w.val[i]) >= thresh) out.emplace_back(i, w.val[i]);
  }
  if (max_fill > 0 && static_cast<int>(out.size()) > max_fill + 1) {
    std::nth_element(out.begin(), out.begin() + max_fill, out.end(),
                     [&](const auto& a, const auto& b) {
                       if (a.first == always) return true;  // keep pivot entry
                       if (b.first == always) return false;
                       return std::abs(a.second) > std::abs(b.second);
                     });
    out.resize(max_fill + 1);
    // Ensure the pivot entry survived the cap.
    bool has_pivot = false;
    for (auto& e : out)
      if (e.first == always) { has_pivot = true; break; }
    if (!has_pivot) out.emplace_back(always, w.val[always]);
  }
  std::sort(out.begin(), out.end());
  w.clear();
  return out;
}

CsrMatrix<double> cols_to_csr_rows(const std::vector<Col>& cols, index_t n) {
  // Interpret cols[i] as ROW i (used for Wᵀ storage where row i = wᵢ).
  CsrMatrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) m.row_ptr[i + 1] = static_cast<index_t>(cols[i].size());
  for (index_t i = 0; i < n; ++i) m.row_ptr[i + 1] += m.row_ptr[i];
  m.col_idx.resize(m.row_ptr[n]);
  m.vals.resize(m.row_ptr[n]);
  for (index_t i = 0; i < n; ++i) {
    index_t p = m.row_ptr[i];
    for (const auto& [j, v] : cols[i]) {
      m.col_idx[p] = j;
      m.vals[p] = v;
      ++p;
    }
  }
  return m;
}

}  // namespace

SdAinv::SdAinv(const CsrMatrix<double>& a_in, Config cfg) : FactoredPrecond(a_in.nrows) {
  if (a_in.nrows != a_in.ncols) throw std::invalid_argument("SdAinv: matrix must be square");
  const index_t n = a_in.nrows;

  // α_AINV diagonal boost on a working copy.
  CsrMatrix<double> a = a_in;
  if (cfg.alpha != 1.0) {
    for (index_t i = 0; i < n; ++i)
      for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k)
        if (a.col_idx[k] == i) a.vals[k] *= cfg.alpha;
  }
  const CsrMatrix<double> at = transpose(a);

  // Completed columns zᵢ / wᵢ and their images tᵢ = A zᵢ (scattered by row
  // into trows) and sᵢ = Aᵀ wᵢ (scattered into srows); only rows > i are
  // kept since earlier rows are never revisited by the left-looking sweep.
  std::vector<Col> zcols(n), wcols(n);
  std::vector<Col> trows(n), srows(n);
  std::vector<double> d(n, 1.0);
  SparseWork work(n), image(n);
  int clamped = 0;

  auto build_column = [&](index_t i, const std::vector<Col>& basis, const std::vector<Col>& rows_of_image) {
    // col = eᵢ - Σ_j (image_j[i]/d_j) basis_j
    work.add(i, 1.0);
    for (const auto& [j, coef_num] : rows_of_image[i]) {
      const double coef = coef_num / d[j];
      if (coef == 0.0) continue;
      for (const auto& [r, v] : basis[j]) work.add(r, -coef * v);
    }
    return extract_dropped(work, i, cfg.drop_tol, cfg.max_fill);
  };

  auto image_of = [&](const Col& col, const CsrMatrix<double>& rows_matrix) {
    // image = Σ_k col[k] · (row k of rows_matrix); drop tiny entries.
    for (const auto& [k, v] : col) {
      for (index_t p = rows_matrix.row_ptr[k]; p < rows_matrix.row_ptr[k + 1]; ++p)
        image.add(rows_matrix.col_idx[p], v * rows_matrix.vals[p]);
    }
    return extract_dropped(image, -1, 1e-12, 0);
  };

  for (index_t i = 0; i < n; ++i) {
    // zᵢ = eᵢ - Σ_{j<i} (s_j[i]/d_j) z_j   where s_j = Aᵀ w_j.
    zcols[i] = build_column(i, zcols, srows);
    if (cfg.symmetric) {
      wcols[i] = zcols[i];
    } else {
      // wᵢ = eᵢ - Σ_{j<i} (t_j[i]/d_j) w_j   where t_j = A z_j.
      wcols[i] = build_column(i, wcols, trows);
    }

    // tᵢ = A zᵢ (columns of A = rows of Aᵀ), sᵢ = Aᵀ wᵢ (rows of A).
    const Col ti = image_of(zcols[i], at);
    const Col si = cfg.symmetric ? ti : image_of(wcols[i], a);

    // dᵢ = sᵢ · zᵢ  (= wᵢᵀ A zᵢ).
    double di = 0.0;
    {
      std::size_t p = 0, q = 0;
      while (p < si.size() && q < zcols[i].size()) {
        if (si[p].first < zcols[i][q].first) ++p;
        else if (si[p].first > zcols[i][q].first) ++q;
        else { di += si[p].second * zcols[i][q].second; ++p; ++q; }
      }
    }
    if (std::abs(di) < cfg.pivot_floor || !std::isfinite(di)) {
      di = (di < 0.0 ? -1.0 : 1.0) * cfg.pivot_floor;
      ++clamped;
    }
    d[i] = di;

    // Scatter images to later rows only.
    for (const auto& [r, v] : ti)
      if (r > i) trows[r].emplace_back(i, v);
    if (!cfg.symmetric) {
      for (const auto& [r, v] : si)
        if (r > i) srows[r].emplace_back(i, v);
    } else {
      for (const auto& [r, v] : ti)
        if (r > i) srows[r].emplace_back(i, v);
    }
  }

  auto f = std::make_shared<AinvFactors<double>>();
  f->n = n;
  f->wt = share_pattern(cols_to_csr_rows(wcols, n));             // row i = wᵢᵀ
  f->z = share_pattern(transpose(cols_to_csr_rows(zcols, n)));  // rows of Z from columns zᵢ
  f->inv_d.resize(n);
  for (index_t i = 0; i < n; ++i) f->inv_d[i] = 1.0 / d[i];
  clamped_ = clamped;
  set_factors(std::move(f));
}

}  // namespace nk
