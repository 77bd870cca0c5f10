#include "issa/linalg/matrix.hpp"

#include <algorithm>

namespace issa::linalg {

void Matrix::set_zero() noexcept { std::fill(data_.begin(), data_.end(), 0.0); }

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

}  // namespace issa::linalg
