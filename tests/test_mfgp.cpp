#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "gp/ard_kernels.h"
#include "gp/nonlinear_mf_gp.h"
#include "rng/rng.h"

namespace cmmfo::gp {
namespace {

// The classic NARGP benchmark pair (Perdikaris et al. 2017):
//   f_lo(x)  = sin(8 pi x)
//   f_hi(x)  = (x - sqrt(2)) * f_lo(x)^2
// The high fidelity is a NON-LINEAR transform of the low fidelity, which a
// linear AR(1) model cannot capture but the non-linear model can.
double fLo(double x) { return std::sin(8.0 * std::numbers::pi * x); }
double fHi(double x) { return (x - std::sqrt(2.0)) * fLo(x) * fLo(x); }

NonlinearMfGpOptions fastNargp() {
  NonlinearMfGpOptions o;
  o.gp.mle_restarts = 1;
  o.gp.max_mle_iters = 50;
  o.gp.init_noise = 1e-2;
  return o;
}

std::vector<FidelityData> nargpData(int n_lo, int n_hi) {
  std::vector<FidelityData> data(2);
  for (int i = 0; i < n_lo; ++i) {
    const double x = static_cast<double>(i) / (n_lo - 1);
    data[0].x.push_back({x});
    data[0].y.push_back(fLo(x));
  }
  for (int i = 0; i < n_hi; ++i) {
    const double x = static_cast<double>(i) / (n_hi - 1);
    data[1].x.push_back({x});
    data[1].y.push_back(fHi(x));
  }
  return data;
}

double rmseHighFidelity(const NonlinearMfGp& gp) {
  double se = 0.0;
  int n = 0;
  for (double x = 0.025; x < 1.0; x += 0.05, ++n) {
    const double err = gp.predictHighest({x}).mean - fHi(x);
    se += err * err;
  }
  return std::sqrt(se / n);
}

TEST(NonlinearMfGp, LearnsNonlinearCrossFidelityMap) {
  rng::Rng rng(1);
  NonlinearMfGp gp(1, 2, fastNargp());
  gp.fit(nargpData(41, 15), rng);
  EXPECT_LT(rmseHighFidelity(gp), 0.12);
}

TEST(NonlinearMfGp, BeatsSingleFidelityGpWithScarceHighData) {
  rng::Rng rng(2);
  const auto data = nargpData(41, 15);

  NonlinearMfGp mf(1, 2, fastNargp());
  mf.fit(data, rng);

  GpFitOptions gopts;
  gopts.mle_restarts = 1;
  GpRegressor single(Matern52Ard(1), gopts);
  single.fit(data[1].x, data[1].y, rng);

  double se_single = 0.0;
  int n = 0;
  for (double x = 0.025; x < 1.0; x += 0.05, ++n) {
    const double e = single.predict({x}).mean - fHi(x);
    se_single += e * e;
  }
  const double rmse_single = std::sqrt(se_single / n);
  EXPECT_LT(rmseHighFidelity(mf), rmse_single);
}

TEST(NonlinearMfGp, ThreeLevels) {
  rng::Rng rng(3);
  // Level 2 = linear transform of level 1 (which is nonlinear in level 0).
  std::vector<FidelityData> data(3);
  for (int i = 0; i < 31; ++i) {
    const double x = i / 30.0;
    data[0].x.push_back({x});
    data[0].y.push_back(fLo(x));
  }
  for (int i = 0; i < 15; ++i) {
    const double x = i / 14.0;
    data[1].x.push_back({x});
    data[1].y.push_back(fHi(x));
  }
  for (int i = 0; i < 9; ++i) {
    // Avoid multiples of 1/8, which are zeros of sin(8 pi x) — sampling
    // there would make the level-2 training targets literally constant.
    const double x = (i + 0.45) / 9.0;
    data[2].x.push_back({x});
    data[2].y.push_back(2.0 * fHi(x) + 0.3);
  }
  NonlinearMfGp gp(1, 3, fastNargp());
  gp.fit(data, rng);
  double se = 0.0;
  int n = 0;
  for (double x = 0.05; x < 1.0; x += 0.1, ++n) {
    const double e = gp.predict(2, {x}).mean - (2.0 * fHi(x) + 0.3);
    se += e * e;
  }
  EXPECT_LT(std::sqrt(se / n), 0.25);
}

TEST(NonlinearMfGp, VariancePropagationInflatesUncertainty) {
  rng::Rng rng(4);
  NonlinearMfGpOptions with = fastNargp();
  with.propagate_variance = true;
  NonlinearMfGpOptions without = fastNargp();
  without.propagate_variance = false;

  const auto data = nargpData(21, 7);
  NonlinearMfGp a(1, 2, with), b(1, 2, without);
  a.fit(data, rng);
  rng::Rng rng2(4);
  b.fit(data, rng2);
  // At a point far from high-fidelity data, propagated variance >= plain.
  const double va = a.predictHighest({0.93}).var;
  const double vb = b.predictHighest({0.93}).var;
  EXPECT_GE(va, vb * 0.999);
}

}  // namespace
}  // namespace cmmfo::gp
