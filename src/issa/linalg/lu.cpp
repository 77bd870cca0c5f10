#include "issa/linalg/lu.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "issa/util/faultpoint.hpp"

namespace issa::linalg {

LuFactorization::LuFactorization(const Matrix& a, double min_pivot) : owned_(a) {
  factorize(owned_, min_pivot);
}

void LuFactorization::factorize(Matrix& a, double min_pivot) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LuFactorization: matrix not square");
  // Injected stand-in for the singular-pivot throw below: same type, same
  // catch paths, but on demand (see util/faultpoint.hpp).
  util::faultpoint::maybe_fail(util::faultpoint::sites::kLuSingularPivot);
  lu_ = nullptr;  // stays unset until the factorization succeeds
  Matrix& lu = a;
  const std::size_t n = a.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  min_pivot_seen_ = std::numeric_limits<double>::infinity();

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < min_pivot) {
      throw std::runtime_error("LuFactorization: singular matrix (pivot " +
                               std::to_string(pivot_mag) + ")");
    }
    min_pivot_seen_ = std::min(min_pivot_seen_, pivot_mag);
    if (pivot_row != k) {
      std::swap(perm_[k], perm_[pivot_row]);
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(pivot_row, c));
    }

    const double inv_pivot = 1.0 / lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu(r, k) * inv_pivot;
      lu(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu(r, c) -= factor * lu(k, c);
    }
  }
  lu_ = &a;
}

void LuFactorization::solve_in_place(std::span<double> b) const {
  if (lu_ == nullptr) throw std::logic_error("LuFactorization::solve: not factorized");
  const Matrix& lu = *lu_;
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("LuFactorization::solve: size mismatch");

  // Apply permutation (scratch buffer reused across solves).
  std::vector<double>& y = y_;
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];

  // Forward substitution (unit lower).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = y[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution (upper).
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * y[j];
    y[ii] = acc / lu(ii, ii);
  }
  for (std::size_t i = 0; i < n; ++i) b[i] = y[i];
}

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

std::vector<double> solve_linear_system(const Matrix& a, std::span<const double> b) {
  return LuFactorization(a).solve(b);
}

}  // namespace issa::linalg
