#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "gp/ard_kernels.h"
#include "gp/composite_kernels.h"
#include "linalg/cholesky.h"
#include "rng/rng.h"

namespace cmmfo::gp {
namespace {

Dataset randomPoints(std::size_t n, std::size_t d, rng::Rng& rng) {
  Dataset x(n, Vec(d));
  for (auto& xi : x)
    for (auto& v : xi) v = rng.uniform(-2.0, 2.0);
  return x;
}

/// Factory for the kernel families under test.
KernelPtr makeKernel(const std::string& name, std::size_t dim) {
  if (name == "rbf") return std::make_unique<RbfArd>(dim);
  if (name == "matern") return std::make_unique<Matern52Ard>(dim);
  if (name == "rbf_unit") return std::make_unique<RbfArd>(dim, true);
  if (name == "matern_unit") return std::make_unique<Matern52Ard>(dim, true);
  if (name == "sum")
    return std::make_unique<SumKernel>(std::make_unique<RbfArd>(dim),
                                       std::make_unique<Matern52Ard>(dim));
  if (name == "product")
    return std::make_unique<ProductKernel>(std::make_unique<RbfArd>(dim),
                                           std::make_unique<Matern52Ard>(dim));
  if (name == "subspace") {
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i + 1 < dim; ++i) dims.push_back(i);
    if (dims.empty()) dims.push_back(0);
    return std::make_unique<SubspaceKernel>(
        std::make_unique<Matern52Ard>(dims.size()), dims);
  }
  if (name == "nargp") {
    // The non-linear multi-fidelity composite: k_z over every coordinate
    // plus k_e over all but the last (the lower fidelity's prediction).
    std::vector<std::size_t> xdims;
    for (std::size_t i = 0; i + 1 < dim; ++i) xdims.push_back(i);
    return std::make_unique<SumKernel>(
        std::make_unique<Matern52Ard>(dim),
        std::make_unique<SubspaceKernel>(
            std::make_unique<Matern52Ard>(xdims.size()), xdims));
  }
  ADD_FAILURE() << "unknown kernel " << name;
  return nullptr;
}

class KernelFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelFamilies, GramIsSymmetricPsd) {
  rng::Rng rng(7);
  const auto k = makeKernel(GetParam(), 3);
  const Dataset x = randomPoints(12, 3, rng);
  linalg::Matrix gram = k->gram(x);
  EXPECT_LT(gram.maxAbsDiff(gram.transposed()), 1e-12);
  // PSD: factorizable after adding a whisker of jitter.
  EXPECT_TRUE(linalg::Cholesky::factorizeWithJitter(gram, 1e-10).has_value());
}

TEST_P(KernelFamilies, DiagonalDominatesOffDiagonal) {
  rng::Rng rng(8);
  const auto k = makeKernel(GetParam(), 3);
  const Dataset x = randomPoints(8, 3, rng);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < x.size(); ++j)
      EXPECT_LE(k->eval(x[i], x[j]),
                k->eval(x[i], x[i]) + 1e-12);  // stationary kernels peak at 0
}

TEST_P(KernelFamilies, ParamsRoundTrip) {
  rng::Rng rng(9);
  const auto k = makeKernel(GetParam(), 3);
  Vec p = k->params();
  for (auto& v : p) v += 0.37;
  k->setParams(p);
  const Vec q = k->params();
  ASSERT_EQ(p.size(), q.size());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_DOUBLE_EQ(p[i], q[i]);
}

TEST_P(KernelFamilies, CloneIsIndependent) {
  const auto k = makeKernel(GetParam(), 2);
  auto c = k->clone();
  Vec p = c->params();
  for (auto& v : p) v += 1.0;
  c->setParams(p);
  const Vec x = {0.1, 0.2}, y = {0.6, -0.4};
  EXPECT_NE(k->eval(x, y), c->eval(x, y));
}

TEST_P(KernelFamilies, GramGradMatchesFiniteDifference) {
  rng::Rng rng(10);
  const auto k = makeKernel(GetParam(), 2);
  const Dataset x = randomPoints(6, 2, rng);
  const Vec p0 = k->params();
  const double h = 1e-6;
  for (std::size_t p = 0; p < k->numParams(); ++p) {
    const linalg::Matrix analytic = k->gramGrad(x, p);
    Vec pp = p0, pm = p0;
    pp[p] += h;
    pm[p] -= h;
    k->setParams(pp);
    const linalg::Matrix gp_ = k->gram(x);
    k->setParams(pm);
    const linalg::Matrix gm = k->gram(x);
    k->setParams(p0);
    for (std::size_t i = 0; i < x.size(); ++i)
      for (std::size_t j = 0; j < x.size(); ++j) {
        const double numeric = (gp_(i, j) - gm(i, j)) / (2.0 * h);
        EXPECT_NEAR(analytic(i, j), numeric, 1e-5)
            << GetParam() << " param " << p << " entry " << i << "," << j;
      }
  }
}

TEST_P(KernelFamilies, GramGradTracesMatchPerParameterLoop) {
  // Every family's traces must be bit-for-bit the per-parameter loop the MLE
  // gradient used to run: sum_ij W(i,j) * gramGrad(x, p)(i,j), row-major.
  rng::Rng rng(11);
  const auto k = makeKernel(GetParam(), 4);
  Vec p = k->params();
  for (auto& v : p) v += rng.uniform(-0.5, 0.5);
  k->setParams(p);
  const Dataset x = randomPoints(9, 4, rng);
  linalg::Matrix w(x.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < x.size(); ++j) w(i, j) = rng.uniform(-1.0, 1.0);
  const Vec t = k->gramGradTraces(x, w);
  ASSERT_EQ(t.size(), k->numParams());
  for (std::size_t q = 0; q < k->numParams(); ++q) {
    const linalg::Matrix dk = k->gramGrad(x, q);
    double tr = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      for (std::size_t j = 0; j < x.size(); ++j) tr += w(i, j) * dk(i, j);
    EXPECT_EQ(t[q], tr) << GetParam() << " param " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, KernelFamilies,
                         ::testing::Values("rbf", "matern", "rbf_unit",
                                           "matern_unit", "sum", "product",
                                           "subspace", "nargp"));

TEST(RbfArd, KnownValue) {
  RbfArd k(1);
  k.setLengthscale(0, 1.0);
  k.setSignalStddev(1.0);
  EXPECT_NEAR(k.eval({0.0}, {1.0}), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(k.eval({0.0}, {0.0}), 1.0, 1e-12);
}

TEST(RbfArd, LengthscaleControlsReach) {
  RbfArd k(1);
  k.setLengthscale(0, 0.2);
  const double near = k.eval({0.0}, {0.1});
  k.setLengthscale(0, 5.0);
  const double far = k.eval({0.0}, {0.1});
  EXPECT_LT(near, far);
}

TEST(RbfArd, UnitVarianceHasNoSignalParam) {
  RbfArd k(3, true);
  EXPECT_EQ(k.numParams(), 3u);
  EXPECT_DOUBLE_EQ(k.signalVariance(), 1.0);
  EXPECT_NEAR(k.eval({1, 2, 3}, {1, 2, 3}), 1.0, 1e-12);
}

TEST(Matern52Ard, KnownValueAtUnitDistance) {
  Matern52Ard k(1);
  k.setLengthscale(0, 1.0);
  k.setSignalStddev(1.0);
  const double r = 1.0;
  const double expected =
      (1.0 + std::sqrt(5.0) * r + 5.0 * r * r / 3.0) * std::exp(-std::sqrt(5.0) * r);
  EXPECT_NEAR(k.eval({0.0}, {1.0}), expected, 1e-12);
}

TEST(Matern52Ard, SmoothAtZeroDistance) {
  Matern52Ard k(1);
  // The gradient of the Gram entry at coincident points must be finite and
  // zero (the r factors cancel analytically).
  const Dataset x = {{0.5}, {0.5}};
  const linalg::Matrix g = k.gramGrad(x, 0);
  EXPECT_DOUBLE_EQ(g(0, 1), 0.0);
  EXPECT_TRUE(std::isfinite(g(0, 0)));
}

TEST(Matern52Ard, HeavierTailsThanRbf) {
  Matern52Ard m(1);
  RbfArd r(1);
  // Same unit hyperparameters: Matern decays slower at large distance.
  EXPECT_GT(m.eval({0.0}, {3.0}), r.eval({0.0}, {3.0}));
}

TEST(SubspaceKernel, IgnoresDroppedDimensions) {
  auto inner = std::make_unique<Matern52Ard>(1);
  SubspaceKernel k(std::move(inner), {0});
  EXPECT_DOUBLE_EQ(k.eval({1.0, 99.0}, {1.0, -99.0}),
                   k.eval({1.0, 0.0}, {1.0, 0.0}));
}

TEST(SumKernel, EvaluatesAsSum) {
  auto a = std::make_unique<RbfArd>(1);
  auto b = std::make_unique<RbfArd>(1);
  const double va = a->eval({0.0}, {0.5});
  SumKernel k(std::move(a), std::move(b));
  EXPECT_NEAR(k.eval({0.0}, {0.5}), 2.0 * va, 1e-12);
}

TEST(ProductKernel, EvaluatesAsProduct) {
  auto a = std::make_unique<RbfArd>(1);
  auto b = std::make_unique<Matern52Ard>(1);
  const double va = a->eval({0.0}, {0.5});
  const double vb = b->eval({0.0}, {0.5});
  ProductKernel k(std::move(a), std::move(b));
  EXPECT_NEAR(k.eval({0.0}, {0.5}), va * vb, 1e-12);
}

TEST(CompositeKernel, ParamSplitOrder) {
  auto a = std::make_unique<RbfArd>(2);   // 3 params
  auto b = std::make_unique<RbfArd>(1);   // 2 params
  SumKernel k(std::move(a), std::move(b));
  EXPECT_EQ(k.numParams(), 5u);
  Vec p = k.params();
  p[0] = 1.23;  // first factor's first lengthscale
  p[3] = -0.77; // second factor's lengthscale
  k.setParams(p);
  EXPECT_DOUBLE_EQ(k.params()[0], 1.23);
  EXPECT_DOUBLE_EQ(k.params()[3], -0.77);
}

}  // namespace
}  // namespace cmmfo::gp
