#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/acquisition.h"
#include "pareto/cells.h"
#include "pareto/hypervolume.h"

namespace cmmfo::core {
namespace {

linalg::Matrix diag2(double a, double b) {
  linalg::Matrix m(2, 2);
  m(0, 0) = a;
  m(1, 1) = b;
  return m;
}

TEST(DrawStdNormals, ShapeAndDeterminism) {
  rng::Rng r1(5), r2(5);
  const auto z1 = drawStdNormals(10, 3, r1);
  const auto z2 = drawStdNormals(10, 3, r2);
  ASSERT_EQ(z1.size(), 10u);
  ASSERT_EQ(z1[0].size(), 3u);
  EXPECT_EQ(z1, z2);
}

TEST(McEipv, NonNegative) {
  rng::Rng rng(1);
  const auto z = drawStdNormals(64, 2, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5}};
  EXPECT_GE(mcEipv({0.9, 0.9}, diag2(0.01, 0.01), front, {1.0, 1.0}, z), 0.0);
}

TEST(McEipv, DeterministicGivenSameNormals) {
  rng::Rng rng(2);
  const auto z = drawStdNormals(32, 2, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5}};
  const double a = mcEipv({0.3, 0.4}, diag2(0.02, 0.02), front, {1.0, 1.0}, z);
  const double b = mcEipv({0.3, 0.4}, diag2(0.02, 0.02), front, {1.0, 1.0}, z);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(McEipv, ZeroCovarianceEqualsHvi) {
  rng::Rng rng(3);
  const auto z = drawStdNormals(16, 2, rng);
  const std::vector<pareto::Point> front = {{0.4, 0.6}, {0.6, 0.4}};
  const pareto::Point ref = {1.0, 1.0};
  const gp::Vec mu = {0.3, 0.3};
  const double e = mcEipv(mu, linalg::Matrix(2, 2), front, ref, z);
  EXPECT_NEAR(e, pareto::hypervolumeImprovement(mu, front, ref), 1e-12);
}

TEST(McEipv, MatchesExactIndependentFormula) {
  // With a diagonal covariance the MC estimate must converge to the exact
  // cell-decomposition value.
  rng::Rng rng(4);
  const auto z = drawStdNormals(60000, 2, rng);
  const std::vector<pareto::Point> front = {{0.2, 0.8}, {0.5, 0.5}, {0.8, 0.2}};
  const pareto::Point ref = {1.0, 1.0};
  const gp::Vec mu = {0.45, 0.35};
  const pareto::Point sigma = {0.15, 0.2};
  const double exact = pareto::exactEipvIndependent(mu, sigma, front, ref);
  const double mc = mcEipv(mu, diag2(sigma[0] * sigma[0], sigma[1] * sigma[1]),
                           front, ref, z);
  EXPECT_NEAR(mc, exact, 0.004);
}

TEST(McEipv, CorrelationChangesValue) {
  // With strong negative correlation between objectives, joint samples
  // spread along the front and dominate more volume than independent ones.
  rng::Rng rng(5);
  const auto z = drawStdNormals(20000, 2, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5}};
  const pareto::Point ref = {1.0, 1.0};
  const gp::Vec mu = {0.55, 0.55};

  linalg::Matrix ind = diag2(0.04, 0.04);
  linalg::Matrix corr = ind;
  corr(0, 1) = corr(1, 0) = -0.038;

  const double e_ind = mcEipv(mu, ind, front, ref, z);
  const double e_corr = mcEipv(mu, corr, front, ref, z);
  EXPECT_GT(std::fabs(e_corr - e_ind) / std::max(e_ind, 1e-12), 0.05);
}

TEST(McEipv, BetterMeanScoresHigher) {
  rng::Rng rng(6);
  const auto z = drawStdNormals(256, 2, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5}};
  const pareto::Point ref = {1.0, 1.0};
  const double good = mcEipv({0.2, 0.2}, diag2(0.01, 0.01), front, ref, z);
  const double bad = mcEipv({0.8, 0.8}, diag2(0.01, 0.01), front, ref, z);
  EXPECT_GT(good, bad);
}

TEST(McEipv, ThreeObjectives) {
  rng::Rng rng(7);
  const auto z = drawStdNormals(128, 3, rng);
  const std::vector<pareto::Point> front = {{0.5, 0.5, 0.5}};
  linalg::Matrix cov(3, 3);
  for (int i = 0; i < 3; ++i) cov(i, i) = 0.01;
  const double e =
      mcEipv({0.3, 0.3, 0.3}, cov, front, {1.0, 1.0, 1.0}, z);
  EXPECT_GT(e, 0.1);  // roughly 0.7^3 - 0.5^3
  EXPECT_LT(e, 0.35);
}

TEST(McEipv, BitsMatchPinnedDigest) {
  // mcEipv must reproduce every bit of the allocating sampler it replaced
  // (the digest was recorded from it), on the three paths it can take: a
  // PD covariance, a singular one (the jitter ladder: rows 0 and 1 are
  // equal and 0.25 = 0.5^2 makes the second pivot exactly 0) and a zero
  // one (the point-mass shortcut).
  const auto mix = [](std::uint64_t h, double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  rng::Rng rng(4242);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t m = 2; m <= 3; ++m) {
    const auto z = drawStdNormals(32, m, rng);
    const pareto::Point ref(m, 1.1);
    for (int trial = 0; trial < 150; ++trial) {
      std::vector<pareto::Point> pts(1 + rng.index(12), pareto::Point(m));
      for (auto& p : pts)
        for (auto& v : p) v = 0.125 * static_cast<double>(rng.uniformInt(0, 8));
      const auto front = pareto::paretoFilter(pts);
      gp::Vec mu(m);
      for (auto& v : mu) v = rng.uniform(-0.2, 1.2);
      linalg::Matrix cov(m, m);
      if (trial % 5 == 1) {
        cov(0, 0) = cov(0, 1) = cov(1, 0) = cov(1, 1) = 0.25;
        if (m == 3) cov(2, 2) = 0.01;
      } else if (trial % 5 != 2) {
        linalg::Matrix a(m, m);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < m; ++j) a(i, j) = rng.normal(0.0, 0.2);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < m; ++j)
            for (std::size_t k = 0; k < m; ++k) cov(i, j) += a(i, k) * a(j, k);
      }
      h = mix(h, mcEipv(mu, cov, front, ref, z));
    }
  }
  EXPECT_EQ(h, 0xe2825500034972e2ULL) << std::hex << h;
}

TEST(ExpectedImprovement, Eq2KnownRegimes) {
  // Far-better incumbent with tiny sigma: EI ~ deterministic improvement.
  EXPECT_NEAR(expectedImprovement(0.0, 1e-13, 5.0, 0.0), 5.0, 1e-9);
  // Mean far above incumbent: essentially zero.
  EXPECT_LT(expectedImprovement(10.0, 0.5, 0.0, 0.0), 1e-8);
  // At the incumbent with unit sigma and no jitter: EI = sigma * phi(0).
  EXPECT_NEAR(expectedImprovement(0.0, 1.0, 0.0, 0.0), 0.3989422804, 1e-6);
}

TEST(ExpectedImprovement, MonotoneInUncertaintyAtIncumbent) {
  const double lo = expectedImprovement(1.0, 0.1, 1.0, 0.0);
  const double hi = expectedImprovement(1.0, 0.5, 1.0, 0.0);
  EXPECT_GT(hi, lo);
}

TEST(ExpectedImprovement, JitterEncouragesExploration) {
  // Jitter shifts the target; EI shrinks for a point at the incumbent.
  EXPECT_LT(expectedImprovement(1.0, 0.2, 1.0, 0.1),
            expectedImprovement(1.0, 0.2, 1.0, 0.0));
}

TEST(CostPenalty, FavorsCheapFidelities) {
  // Eq. 10: PEIPV_i = EIPV_i * T_impl / T_i.
  EXPECT_DOUBLE_EQ(costPenalty(10.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(costPenalty(100.0, 100.0), 1.0);
  EXPECT_GT(costPenalty(1.0, 50.0), costPenalty(25.0, 50.0));
}

}  // namespace
}  // namespace cmmfo::core
