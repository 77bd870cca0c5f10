// Dense row-major matrix sized for MNA systems (tens of unknowns).
#pragma once

#include <cstddef>
#include <vector>

namespace issa::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  /// The entries, row-major.
  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Sets every entry to zero without reallocating.
  void set_zero() noexcept;

  /// Resizes (content becomes all-zero).
  void resize(std::size_t rows, std::size_t cols);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace issa::linalg
