// Multi-fidelity GP regression demo on the classic NARGP benchmark pair
// (the structure behind Eq. 5 of the paper):
//
//   f_lo(x) = sin(8 pi x)                 cheap, dense data
//   f_hi(x) = (x - sqrt(2)) * f_lo(x)^2   expensive, scarce data
//
// The high fidelity is a NON-LINEAR transform of the low one. The demo fits
// (a) a plain GP on the scarce high-fidelity data and
// (b) the paper's non-linear multi-fidelity model,
// and prints their predictions side by side. (The linear AR(1) chain that
// FPL18 assumes loses to (b) on this pair; tests/test_surrogate.cpp pins
// that on the optimizer's surrogate.)

#include <cmath>
#include <cstdio>
#include <numbers>

#include "gp/ard_kernels.h"
#include "gp/gp_regressor.h"
#include "gp/nonlinear_mf_gp.h"

using namespace cmmfo;
using namespace cmmfo::gp;

namespace {
double fLo(double x) { return std::sin(8.0 * std::numbers::pi * x); }
double fHi(double x) { return (x - std::sqrt(2.0)) * fLo(x) * fLo(x); }
}  // namespace

int main() {
  rng::Rng rng(1);

  std::vector<FidelityData> data(2);
  for (int i = 0; i < 41; ++i) {
    const double x = i / 40.0;
    data[0].x.push_back({x});
    data[0].y.push_back(fLo(x));
  }
  for (int i = 0; i < 15; ++i) {
    const double x = i / 14.0;
    data[1].x.push_back({x});
    data[1].y.push_back(fHi(x));
  }

  GpFitOptions gopts;
  gopts.mle_restarts = 2;
  GpRegressor single(Matern52Ard(1), gopts);
  single.fit(data[1].x, data[1].y, rng);

  NonlinearMfGpOptions nopts;
  nopts.gp = gopts;
  NonlinearMfGp nonlinear(1, 2, nopts);
  nonlinear.fit(data, rng);

  std::printf("# x     true    single  nonlinear\n");
  double se_s = 0.0, se_n = 0.0;
  int n = 0;
  for (int i = 0; i <= 100; ++i, ++n) {
    const double x = i / 100.0;
    const double t = fHi(x);
    const double ps = single.predict({x}).mean;
    const double pn = nonlinear.predictHighest({x}).mean;
    se_s += (ps - t) * (ps - t);
    se_n += (pn - t) * (pn - t);
    if (i % 5 == 0)
      std::printf("%.2f %8.4f %9.4f %10.4f\n", x, t, ps, pn);
  }
  std::printf("\nRMSE  single-fidelity GP: %.4f\n", std::sqrt(se_s / n));
  std::printf("RMSE  non-linear MF     : %.4f   <- Eq. (5)\n",
              std::sqrt(se_n / n));
  return 0;
}
