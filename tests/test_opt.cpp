#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "opt/adam.h"
#include "opt/finite_diff.h"
#include "opt/lbfgs.h"
#include "opt/multistart.h"
#include "rng/rng.h"

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

// Double-well along x: f = (x^2 - 1)^2 + small tilt so the global minimum
// is at x = -1.
double doubleWell(const std::vector<double>& x, std::vector<double>& g) {
  const double v = x[0] * x[0] - 1.0;
  g = {4.0 * v * x[0] + 0.1};
  return v * v + 0.1 * x[0];
}

TEST(MultiStart, EscapesBadStart) {
  // Start 0 sits near the worse well; random starts around it find x = -1.
  rng::Rng rng(3);
  std::vector<std::vector<double>> starts = {{0.9}};
  for (int s = 0; s < 10; ++s) starts.push_back({0.9 + rng.uniform(-2.0, 2.0)});
  const auto res = multiStartMinimize(doubleWell, starts);
  EXPECT_NEAR(res.x[0], -1.0, 0.1);
}

TEST(MultiStart, ReducesInStartOrderAndSumsIterations) {
  // Starts 1 and 3 reach the same global well; the lower index must win
  // ties, exactly as a sequential first-strictly-better loop keeps it.
  const std::vector<std::vector<double>> starts = {
      {0.9}, {-1.3}, {1.4}, {-1.3}};
  const OptResult best = multiStartMinimize(doubleWell, starts);
  OptResult seq;
  seq.value = std::numeric_limits<double>::infinity();
  int iters = 0;
  for (const auto& s : starts) {
    const OptResult r = minimizeLbfgs(doubleWell, s);
    iters += r.iterations;
    if (std::isfinite(r.value) && r.value < seq.value) seq = r;
  }
  EXPECT_EQ(best.value, seq.value);
  EXPECT_EQ(best.x, seq.x);
  EXPECT_EQ(best.iterations, iters);
}

TEST(MultiStart, HelperExceptionReachesCaller) {
  // Only start 2 throws, on whichever thread claims it; the caller must
  // see it after every start has finished.
  GradObjectiveFn f = [](const std::vector<double>& x, std::vector<double>& g) {
    if (x[0] > 100.0) throw std::runtime_error("bad start");
    return doubleWell(x, g);
  };
  const std::vector<std::vector<double>> starts = {{0.5}, {-0.5}, {500.0}};
  EXPECT_THROW(multiStartMinimize(f, starts), std::runtime_error);
}

TEST(MultiStart, UsesAtMostMultiStartThreads) {
  // Twelve starts, each slow enough that idle threads would pick up work,
  // still run on no more threads than the cap, and give the same winner.
  std::mutex mu;
  std::set<std::thread::id> ids;
  GradObjectiveFn f = [&](const std::vector<double>& x, std::vector<double>& g) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return doubleWell(x, g);
  };
  std::vector<std::vector<double>> starts;
  for (int s = 0; s < 12; ++s) starts.push_back({-1.5 + 0.25 * s});
  const OptResult r = multiStartMinimize(f, starts);
  EXPECT_GE(multiStartThreads(), 1u);
  EXPECT_LE(ids.size(), multiStartThreads());
  EXPECT_NEAR(r.x[0], -1.0, 0.1);
}

TEST(MultiStart, AllNonFiniteStartsReportInfinity) {
  GradObjectiveFn f = [](const std::vector<double>&, std::vector<double>& g) {
    g = {0.0};
    return std::numeric_limits<double>::infinity();
  };
  const OptResult r = multiStartMinimize(f, {{0.0}, {1.0}});
  EXPECT_FALSE(std::isfinite(r.value));
  EXPECT_TRUE(r.x.empty());
}

}  // namespace
}  // namespace cmmfo::opt
