#include <gtest/gtest.h>

#include <cmath>

#include "opt/adam.h"
#include "opt/finite_diff.h"
#include "opt/lbfgs.h"
#include "opt/multistart.h"

namespace cmmfo::opt {
namespace {

// Convex quadratic with minimum at (1, -2, 3).
double quadratic(const std::vector<double>& x, std::vector<double>& g) {
  const std::vector<double> c = {1.0, -2.0, 3.0};
  double f = 0.0;
  g.assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - c[i];
    f += (i + 1) * d * d;
    g[i] = 2.0 * (i + 1) * d;
  }
  return f;
}

double rosenbrock(const std::vector<double>& x, std::vector<double>& g) {
  const double a = 1.0, b = 100.0;
  const double f = (a - x[0]) * (a - x[0]) +
                   b * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0]);
  g.resize(2);
  g[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
  g[1] = 2.0 * b * (x[1] - x[0] * x[0]);
  return f;
}

TEST(Lbfgs, SolvesQuadratic) {
  const auto res = minimizeLbfgs(quadratic, {0.0, 0.0, 0.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
  EXPECT_NEAR(res.x[1], -2.0, 1e-5);
  EXPECT_NEAR(res.x[2], 3.0, 1e-5);
  EXPECT_NEAR(res.value, 0.0, 1e-9);
}

TEST(Lbfgs, SolvesRosenbrock) {
  LbfgsOptions opts;
  opts.max_iters = 500;
  const auto res = minimizeLbfgs(rosenbrock, {-1.2, 1.0}, opts);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 1.0, 1e-3);
}

TEST(Lbfgs, HandlesInfiniteStart) {
  GradObjectiveFn bad = [](const std::vector<double>&, std::vector<double>& g) {
    g = {0.0};
    return std::numeric_limits<double>::infinity();
  };
  const auto res = minimizeLbfgs(bad, {0.0});
  EXPECT_TRUE(std::isinf(res.value));
}

TEST(Lbfgs, RespectsIterationBudget) {
  LbfgsOptions opts;
  opts.max_iters = 3;
  const auto res = minimizeLbfgs(rosenbrock, {-1.2, 1.0}, opts);
  EXPECT_LE(res.iterations, 3);
}

TEST(Adam, SolvesQuadratic) {
  AdamOptions opts;
  opts.max_iters = 2000;
  opts.learning_rate = 0.05;
  const auto res = minimizeAdam(quadratic, {0.0, 0.0, 0.0}, opts);
  EXPECT_NEAR(res.x[0], 1.0, 1e-2);
  EXPECT_NEAR(res.x[1], -2.0, 1e-2);
  EXPECT_NEAR(res.x[2], 3.0, 1e-2);
}

TEST(Adam, StepperMovesAgainstGradient) {
  AdamStepper stepper(1);
  std::vector<double> p = {0.0};
  stepper.step(p, {1.0});
  EXPECT_LT(p[0], 0.0);
}

TEST(FiniteDiff, MatchesAnalyticGradient) {
  const std::vector<double> x = {0.3, -0.7, 1.9};
  EXPECT_LT(gradientCheckError(quadratic, x), 1e-6);
  EXPECT_LT(gradientCheckError(rosenbrock, {0.5, 0.5}), 1e-5);
}

TEST(FiniteDiff, NumericGradientWrapper) {
  ObjectiveFn f = [](const std::vector<double>& x) {
    return std::sin(x[0]) + x[1] * x[1];
  };
  const auto g = finiteDiffGradient(f, {0.0, 3.0});
  EXPECT_NEAR(g[0], 1.0, 1e-5);
  EXPECT_NEAR(g[1], 6.0, 1e-5);
}

TEST(MultiStart, EscapesBadStart) {
  // Double-well along x: f = (x^2 - 1)^2 + small tilt so the global minimum
  // is at x = -1; start near the worse well.
  GradObjectiveFn f = [](const std::vector<double>& x, std::vector<double>& g) {
    const double v = x[0] * x[0] - 1.0;
    g = {4.0 * v * x[0] + 0.1};
    return v * v + 0.1 * x[0];
  };
  rng::Rng rng(3);
  MultiStartOptions ms;
  ms.extra_starts = 10;
  ms.radius = 2.0;
  const auto res = multiStartMinimize(f, {0.9}, rng, ms);
  EXPECT_NEAR(res.x[0], -1.0, 0.1);
}

}  // namespace
}  // namespace cmmfo::opt
