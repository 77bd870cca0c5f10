// LU decomposition with partial pivoting, the linear kernel behind every
// Newton iteration of the circuit solver.  One solve pass carries up to
// kMaxColumns right-hand sides, so a transient step solves its Newton update
// and its sensitivity columns with the same factors at once.
#pragma once

#include <span>
#include <vector>

#include "issa/linalg/matrix.hpp"

namespace issa::linalg {

/// LU factorization of a square matrix with row pivoting, computed in the
/// caller's storage and reusable across solves with different right-hand
/// sides.  After the first call at a size no call allocates, which is what
/// lets the circuit solver's Newton loop run without per-iteration heap
/// traffic.
class LuFactorization {
 public:
  /// Smallest pivot magnitude factorize() accepts.
  static constexpr double kMinPivot = 1e-14;
  /// Right-hand sides one solve pass carries; solve_in_place takes more in
  /// passes of this many.
  static constexpr std::size_t kMaxColumns = 3;

  /// Empty factorization; call factorize() before solving.
  LuFactorization() = default;

  // The factorization points into caller-owned storage; copying it would
  // silently alias the other instance's matrix.
  LuFactorization(const LuFactorization&) = delete;
  LuFactorization& operator=(const LuFactorization&) = delete;

  /// Factorizes `a` in place: `a`'s storage is overwritten with the L and U
  /// factors and must stay alive and untouched until the next factorize()
  /// call (or destruction).  Reuses the permutation/scratch buffers, so a
  /// repeat call at the same size performs zero allocations.  Throws
  /// std::invalid_argument on a non-square matrix and std::runtime_error on
  /// a singular one (pivot below kMinPivot); the factorization is then
  /// unusable until the next successful factorize().
  void factorize(Matrix& a);

  std::size_t size() const noexcept { return lu_ == nullptr ? 0 : lu_->rows(); }

  /// Solves A x = b in place: b is replaced by x.
  void solve_in_place(std::span<double> b) const;

  /// Solves A x = b for every column in place, up to kMaxColumns per pass.
  /// Each column's result equals a one-column solve_in_place bit for bit.
  void solve_in_place(std::span<const std::span<double>> columns) const;

 private:
  Matrix* lu_ = nullptr;  // the factored caller storage
  std::vector<std::size_t> perm_;
  mutable std::vector<double> y_;  // solve scratch, reused across solves
};

}  // namespace issa::linalg
