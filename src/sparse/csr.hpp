// Compressed Sparse Row matrix, templated on value type.
//
// The paper stores all matrices in CSR with 32-bit integer index arrays on
// the CPU node; F3R keeps one copy of A per precision level actually used
// (fp64 for the outermost FGMRES, fp32 for the second level, fp16 for the
// third level and the innermost Richardson).  The copies share ONE set of
// indices: a CsrMatrix is its CsrPattern plus values, and a lower-precision
// copy is a CsrValues — values only, over the fp64 matrix's pattern.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "base/blas1.hpp"
#include "base/half.hpp"

namespace nk {

/// The sparsity of a CSR matrix: everything but the values.
struct CsrPattern {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<index_t> row_ptr;  ///< size nrows + 1
  std::vector<index_t> col_idx;  ///< size nnz

  [[nodiscard]] index_t nnz() const { return row_ptr.empty() ? 0 : row_ptr.back(); }

  /// Bytes of the two index arrays.
  [[nodiscard]] std::size_t index_bytes() const {
    return (row_ptr.size() + col_idx.size()) * sizeof(index_t);
  }
};

template <class T>
struct CsrMatrix : CsrPattern {
  using value_type = T;

  std::vector<T> vals;  ///< size nnz

  CsrMatrix() = default;
  CsrMatrix(index_t rows, index_t cols)
      : CsrPattern{rows, cols, std::vector<index_t>(rows + 1, 0), {}} {}

  [[nodiscard]] bool empty() const { return nrows == 0; }

  /// Average nonzeros per row (the paper's nnz/n column of Table 2).
  [[nodiscard]] double nnz_per_row() const {
    return nrows == 0 ? 0.0 : static_cast<double>(nnz()) / static_cast<double>(nrows);
  }

  /// Row `i` as (cols, vals) spans.
  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const {
    return {col_idx.data() + row_ptr[i], static_cast<std::size_t>(row_ptr[i + 1] - row_ptr[i])};
  }
  [[nodiscard]] std::span<const T> row_vals(index_t i) const {
    return {vals.data() + row_ptr[i], static_cast<std::size_t>(row_ptr[i + 1] - row_ptr[i])};
  }

  /// Value at (i, j), or 0 if the entry is not stored.  Rows must be sorted.
  [[nodiscard]] T at(index_t i, index_t j) const {
    const auto cols = row_cols(i);
    auto it = std::lower_bound(cols.begin(), cols.end(), j);
    if (it == cols.end() || *it != j) return static_cast<T>(0);
    return vals[row_ptr[i] + static_cast<index_t>(it - cols.begin())];
  }

  /// Diagonal entries (0 where absent).
  [[nodiscard]] std::vector<T> diagonal() const {
    std::vector<T> d(nrows, static_cast<T>(0));
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(nrows); ++i) {
      for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)
        if (col_idx[k] == static_cast<index_t>(i)) {
          d[i] = vals[k];
          break;
        }
    }
    return d;
  }

  /// Sort the column indices (and values) within every row.
  void sort_rows() {
    std::vector<std::pair<index_t, T>> buf;
    for (index_t i = 0; i < nrows; ++i) {
      const index_t b = row_ptr[i], e = row_ptr[i + 1];
      buf.clear();
      for (index_t k = b; k < e; ++k) buf.emplace_back(col_idx[k], vals[k]);
      std::sort(buf.begin(), buf.end(),
                [](const auto& a, const auto& c) { return a.first < c.first; });
      for (index_t k = b; k < e; ++k) {
        col_idx[k] = buf[k - b].first;
        vals[k] = buf[k - b].second;
      }
    }
  }

  /// True if every row's column indices are strictly increasing.
  [[nodiscard]] bool rows_sorted() const {
    for (index_t i = 0; i < nrows; ++i)
      for (index_t k = row_ptr[i] + 1; k < row_ptr[i + 1]; ++k)
        if (col_idx[k - 1] >= col_idx[k]) return false;
    return true;
  }

  /// Basic structural sanity (monotone row_ptr, in-range columns).
  void validate() const {
    if (static_cast<index_t>(row_ptr.size()) != nrows + 1)
      throw std::invalid_argument("CsrMatrix: row_ptr size mismatch");
    if (col_idx.size() != vals.size()) throw std::invalid_argument("CsrMatrix: col/val mismatch");
    for (index_t i = 0; i < nrows; ++i)
      if (row_ptr[i] > row_ptr[i + 1]) throw std::invalid_argument("CsrMatrix: row_ptr not monotone");
    if (!col_idx.empty())
      for (index_t c : col_idx)
        if (c < 0 || c >= ncols) throw std::invalid_argument("CsrMatrix: column out of range");
  }
};

/// Values at precision T over a shared, immutable pattern: how F3R's fp32
/// and fp16 copies of A (and of the neumann and sd-ainv matrices) are held,
/// so every precision reads the one set of indices.
template <class T>
struct CsrValues {
  using value_type = T;

  std::shared_ptr<const CsrPattern> pat;
  std::vector<T> vals;  ///< size pat->nnz()

  [[nodiscard]] index_t nnz() const { return pat->nnz(); }
};

/// Move a matrix's indices into a shared pattern and keep its values.
template <class T>
CsrValues<T> share_pattern(CsrMatrix<T> a) {
  auto pat = std::make_shared<const CsrPattern>(std::move(static_cast<CsrPattern&>(a)));
  return {std::move(pat), std::move(a.vals)};
}

/// `vals` rounded to Dst over `pat`, which is shared, not copied.
template <class Dst, class Src>
CsrValues<Dst> cast_values(std::shared_ptr<const CsrPattern> pat,
                           const std::vector<Src>& vals) {
  CsrValues<Dst> out{std::move(pat), std::vector<Dst>(vals.size())};
  blas::convert<Src, Dst>(std::span<const Src>(vals), std::span<Dst>(out.vals));
  return out;
}

/// A read-only CSR matrix that owns nothing — what the sparse kernels read,
/// so a CsrMatrix and a value-only CsrValues copy run the same code.
template <class T>
struct CsrView {
  using value_type = T;

  index_t nrows = 0;
  index_t ncols = 0;
  std::span<const index_t> row_ptr;
  std::span<const index_t> col_idx;
  std::span<const T> vals;

  CsrView(const CsrPattern& p, std::span<const T> v)
      : nrows(p.nrows), ncols(p.ncols), row_ptr(p.row_ptr), col_idx(p.col_idx), vals(v) {}
  // Implicit, so either owner passes where a view is expected.
  CsrView(const CsrMatrix<T>& a) : CsrView(a, a.vals) {}
  CsrView(const CsrValues<T>& a) : CsrView(*a.pat, a.vals) {}

  [[nodiscard]] index_t nnz() const { return row_ptr.empty() ? 0 : row_ptr.back(); }
};

/// Value-cast a CSR matrix to another precision into a new, self-contained
/// matrix (indices copied, values rounded).  Solvers keep value-only
/// CsrValues copies instead (cast_values); this is for code that wants an
/// independent CsrMatrix at another precision.
template <class Dst, class Src>
CsrMatrix<Dst> cast_matrix(const CsrMatrix<Src>& a) {
  CsrMatrix<Dst> out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.row_ptr = a.row_ptr;
  out.col_idx = a.col_idx;
  out.vals.resize(a.vals.size());
  blas::convert<Src, Dst>(std::span<const Src>(a.vals), std::span<Dst>(out.vals));
  return out;
}

/// Explicit transpose (used by AINV construction and symmetry checks).
template <class T>
CsrMatrix<T> transpose(const CsrMatrix<T>& a) {
  CsrMatrix<T> at(a.ncols, a.nrows);
  at.col_idx.resize(a.nnz());
  at.vals.resize(a.nnz());
  // Count entries per column.
  std::vector<index_t> cnt(a.ncols + 1, 0);
  for (index_t k = 0; k < a.nnz(); ++k) ++cnt[a.col_idx[k] + 1];
  for (index_t c = 0; c < a.ncols; ++c) cnt[c + 1] += cnt[c];
  at.row_ptr = cnt;
  std::vector<index_t> next(cnt.begin(), cnt.end() - 1);
  for (index_t i = 0; i < a.nrows; ++i)
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const index_t c = a.col_idx[k];
      const index_t dst = next[c]++;
      at.col_idx[dst] = i;
      at.vals[dst] = a.vals[k];
    }
  return at;
}

/// True if the matrix equals its transpose up to `tol` (relative to the
/// largest absolute value involved).  Rows must be sorted.
template <class T>
bool is_symmetric(const CsrMatrix<T>& a, double tol = 0.0) {
  if (a.nrows != a.ncols) return false;
  const CsrMatrix<T> at = transpose(a);
  if (at.row_ptr != a.row_ptr || at.col_idx != a.col_idx) {
    // Pattern could still be symmetric with different intra-row order.
    CsrMatrix<T> s = at;
    s.sort_rows();
    CsrMatrix<T> b = a;
    b.sort_rows();
    if (s.row_ptr != b.row_ptr || s.col_idx != b.col_idx) return false;
    for (std::size_t k = 0; k < b.vals.size(); ++k) {
      const double x = static_cast<double>(b.vals[k]), y = static_cast<double>(s.vals[k]);
      if (std::abs(x - y) > tol * std::max(1.0, std::max(std::abs(x), std::abs(y)))) return false;
    }
    return true;
  }
  for (std::size_t k = 0; k < a.vals.size(); ++k) {
    const double x = static_cast<double>(a.vals[k]), y = static_cast<double>(at.vals[k]);
    if (std::abs(x - y) > tol * std::max(1.0, std::max(std::abs(x), std::abs(y)))) return false;
  }
  return true;
}

}  // namespace nk
