#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "issa/linalg/lu.hpp"
#include "issa/linalg/matrix.hpp"
#include "issa/util/rng.hpp"

namespace issa::linalg {
namespace {

Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

// y = A x.
std::vector<double> times(const Matrix& a, const std::vector<double>& x) {
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) y[r] += a(r, c) * x[c];
  }
  return y;
}

// Solves A x = b the way the simulator does: factorize a copy of A in place,
// then solve in place.
std::vector<double> solve(const Matrix& a, std::vector<double> b) {
  Matrix factors = a;
  LuFactorization lu;
  lu.factorize(factors);
  lu.solve_in_place(b);
  return b;
}

TEST(Matrix, IdentityAndIndexing) {
  Matrix m = identity(3);
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
}

TEST(Matrix, SetZeroKeepsShape) {
  Matrix m(2, 3);
  m(1, 2) = 4.0;
  m.set_zero();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 0.0);
}

TEST(Lu, SolvesIdentity) {
  const std::vector<double> b = {1, 2, 3, 4};
  const auto x = solve(identity(4), b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto x = solve(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the leading diagonal: fails without row exchanges.
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const auto x = solve(a, {3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  LuFactorization lu;
  EXPECT_THROW(lu.factorize(a), std::runtime_error);
  // A failed factorization leaves nothing to solve with.
  EXPECT_EQ(lu.size(), 0u);
  std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(lu.solve_in_place(b), std::logic_error);
}

TEST(Lu, RejectsNonSquare) {
  Matrix a(2, 3);
  LuFactorization lu;
  EXPECT_THROW(lu.factorize(a), std::invalid_argument);
}

TEST(Lu, ReusableAcrossRhs) {
  Matrix a(3, 3);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(1, 2) = 1;
  a(2, 1) = 1;
  a(2, 2) = 2;
  Matrix factors = a;
  LuFactorization lu;
  lu.factorize(factors);
  for (const double scale : {1.0, -2.0, 0.5}) {
    const std::vector<double> b = {scale, 2 * scale, 3 * scale};
    std::vector<double> x = b;
    lu.solve_in_place(x);
    const auto back = times(a, x);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], b[i], 1e-12);
  }
}

class LuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomTest, RandomSystemsRoundTrip) {
  const auto n = static_cast<std::size_t>(GetParam());
  util::Xoshiro256 rng(static_cast<std::uint64_t>(n) * 7919);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    // Diagonal dominance guarantees non-singularity.
    a(r, r) += static_cast<double>(n);
  }
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.normal();
  const auto x = solve(a, times(a, x_true));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomTest, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Lu, SolveInPlace) {
  Matrix a = identity(2);
  a(0, 1) = 1.0;
  LuFactorization lu;
  lu.factorize(a);
  std::vector<double> b = {3.0, 2.0};
  lu.solve_in_place(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

// The same bits, compared as integers: equal doubles, and NaNs alike.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// A random n x n system whose first row, and every third row after it, has
// small entries and (for n > 1) a zero diagonal, so that most columns pivot.
Matrix pivoting_matrix(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const double scale = r % 3 == 0 ? 1e-3 : 1.0;
    for (std::size_t c = 0; c < n; ++c) a(r, c) = scale * rng.normal();
    if (r % 3 == 0 && n > 1) a(r, r) = 0.0;
  }
  return a;
}

TEST(Lu, DetectsSingularAfterPivoting) {
  // Row 5 is twice row 2 of a 6 x 6 system that pivots: factorize must
  // throw, and leave nothing to solve with.
  constexpr std::size_t n = 6;
  Matrix a = pivoting_matrix(n, 3);
  for (std::size_t c = 0; c < n; ++c) a(5, c) = 2.0 * a(2, c);
  LuFactorization lu;
  EXPECT_THROW(lu.factorize(a), std::runtime_error);
  EXPECT_EQ(lu.size(), 0u);
  std::vector<double> b(n, 1.0);
  EXPECT_THROW(lu.solve_in_place(b), std::logic_error);
}

TEST(Lu, MultiColumnSolveMatchesColumnByColumn) {
  // Five columns take a 3-column pass and a 2-column pass.
  for (const std::size_t n : {2u, 6u, 9u}) {
    Matrix factors = pivoting_matrix(n, 11 * n);
    for (std::size_t r = 0; r < n; ++r) factors(r, r) += 2.0;
    LuFactorization lu;
    lu.factorize(factors);
    util::Xoshiro256 rng(n);
    for (const std::size_t count : {2u, 3u, 5u}) {
      std::vector<std::vector<double>> together(count, std::vector<double>(n));
      for (auto& column : together) {
        for (double& v : column) v = rng.normal();
      }
      std::vector<std::vector<double>> alone = together;
      std::vector<std::span<double>> columns(together.begin(), together.end());
      lu.solve_in_place(columns);
      for (std::size_t j = 0; j < count; ++j) {
        lu.solve_in_place(alone[j]);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(together[j][i]), bits(alone[j][i]))
              << "n = " << n << ", " << count << " columns, column " << j << ", row " << i;
        }
      }
    }
  }
}

TEST(Lu, SolveSizeMismatchThrows) {
  Matrix a = identity(3);
  LuFactorization lu;
  lu.factorize(a);
  std::vector<double> b = {1.0};
  EXPECT_THROW(lu.solve_in_place(b), std::invalid_argument);
}

}  // namespace
}  // namespace issa::linalg
