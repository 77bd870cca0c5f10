#include "issa/linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "issa/util/faultpoint.hpp"

namespace issa::linalg {

namespace {

/// Solves A x = b for kColumns right-hand sides at once with the n x n
/// row-major factors in `lu` and the row permutation `perm`; each b[j] is
/// replaced by its x.  Every column goes through exactly the operations of a
/// one-column solve, in the same order, so the columns only share the pass:
/// their dependent divisions overlap instead of running one after the other.
/// `y` holds n * kColumns doubles.
template <std::size_t kColumns>
void solve_columns(const double* lu, std::size_t n, const std::size_t* perm, double* const* b,
                   double* y) {
  // y[i * kColumns + j]: row i of column j.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < kColumns; ++j) y[i * kColumns + j] = b[j][perm[i]];
  }
  // Forward substitution (unit lower).
  for (std::size_t i = 0; i < n; ++i) {
    double acc[kColumns];
    for (std::size_t j = 0; j < kColumns; ++j) acc[j] = y[i * kColumns + j];
    for (std::size_t k = 0; k < i; ++k) {
      const double l = lu[i * n + k];
      for (std::size_t j = 0; j < kColumns; ++j) acc[j] -= l * y[k * kColumns + j];
    }
    for (std::size_t j = 0; j < kColumns; ++j) y[i * kColumns + j] = acc[j];
  }
  // Back substitution (upper).
  for (std::size_t ii = n; ii-- > 0;) {
    double acc[kColumns];
    for (std::size_t j = 0; j < kColumns; ++j) acc[j] = y[ii * kColumns + j];
    for (std::size_t k = ii + 1; k < n; ++k) {
      const double u = lu[ii * n + k];
      for (std::size_t j = 0; j < kColumns; ++j) acc[j] -= u * y[k * kColumns + j];
    }
    const double pivot = lu[ii * n + ii];
    for (std::size_t j = 0; j < kColumns; ++j) y[ii * kColumns + j] = acc[j] / pivot;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < kColumns; ++j) b[j][i] = y[i * kColumns + j];
  }
}

}  // namespace

void LuFactorization::factorize(Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LuFactorization: matrix not square");
  // Injected stand-in for the singular-pivot throw below: same type, same
  // catch paths, but on demand (see util/faultpoint.hpp).
  util::faultpoint::maybe_fail(util::faultpoint::sites::kLuSingularPivot);
  lu_ = nullptr;  // stays unset until the factorization succeeds
  const std::size_t n = a.rows();
  perm_.resize(n);
  y_.resize(n * kMaxColumns);
  std::size_t* perm = perm_.data();
  double* lu = a.data();
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(lu[k * n + k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu[r * n + k]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < kMinPivot) {
      throw std::runtime_error("LuFactorization: singular matrix (pivot " +
                               std::to_string(pivot_mag) + ")");
    }
    if (pivot_row != k) {
      std::swap(perm[k], perm[pivot_row]);
      for (std::size_t c = 0; c < n; ++c) std::swap(lu[k * n + c], lu[pivot_row * n + c]);
    }

    const double inv_pivot = 1.0 / lu[k * n + k];
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu[r * n + k] * inv_pivot;
      lu[r * n + k] = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu[r * n + c] -= factor * lu[k * n + c];
    }
  }
  lu_ = &a;
}

void LuFactorization::solve_in_place(std::span<double> b) const {
  const std::span<double> column[1] = {b};
  solve_in_place(column);
}

void LuFactorization::solve_in_place(std::span<const std::span<double>> columns) const {
  if (lu_ == nullptr) throw std::logic_error("LuFactorization::solve: not factorized");
  const std::size_t n = size();
  for (const std::span<double> b : columns) {
    if (b.size() != n) throw std::invalid_argument("LuFactorization::solve: size mismatch");
  }
  const double* lu = lu_->data();
  for (std::size_t first = 0; first < columns.size(); first += kMaxColumns) {
    double* b[kMaxColumns];
    const std::size_t count = std::min(kMaxColumns, columns.size() - first);
    for (std::size_t j = 0; j < count; ++j) b[j] = columns[first + j].data();
    switch (count) {
      case 1:
        solve_columns<1>(lu, n, perm_.data(), b, y_.data());
        break;
      case 2:
        solve_columns<2>(lu, n, perm_.data(), b, y_.data());
        break;
      default:
        solve_columns<3>(lu, n, perm_.data(), b, y_.data());
        break;
    }
  }
}

}  // namespace issa::linalg
