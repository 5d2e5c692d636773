#include "core/acquisition.h"

#include <cassert>
#include <cmath>

#include "linalg/cholesky.h"
#include "pareto/hypervolume.h"

namespace cmmfo::core {

std::vector<std::vector<double>> drawStdNormals(std::size_t samples,
                                                std::size_t m, rng::Rng& rng) {
  std::vector<std::vector<double>> z(samples, std::vector<double>(m));
  for (auto& row : z)
    for (auto& v : row) v = rng.normal();
  return z;
}

double mcEipv(const gp::Vec& mu, const linalg::Matrix& cov,
              const std::vector<pareto::Point>& front,
              const pareto::Point& ref,
              const std::vector<std::vector<double>>& std_normals) {
  const std::size_t m = mu.size();
  assert(cov.rows() == m && cov.cols() == m);
  assert(!std_normals.empty() && std_normals[0].size() == m);

  // A (near-)zero covariance is a point mass at mu: answer exactly rather
  // than sampling jitter noise.
  double max_var = 0.0;
  for (std::size_t i = 0; i < m; ++i) max_var = std::max(max_var, cov(i, i));
  if (max_var < 1e-24) return pareto::hypervolumeImprovement(mu, front, ref);

  const auto chol = linalg::Cholesky::factorizeWithJitter(cov, 1e-12);
  if (!chol) return pareto::hypervolumeImprovement(mu, front, ref);

  // Every sample is drawn into the same buffer; hypervolumeImprovement
  // reuses per-thread scratch, so the loop allocates nothing.
  double acc = 0.0;
  gp::Vec y(m);
  for (const auto& z : std_normals) {
    linalg::mvnSample(mu, *chol, z, &y);
    acc += pareto::hypervolumeImprovement(y, front, ref);
  }
  return acc / static_cast<double>(std_normals.size());
}

double costPenalty(double t_this_fidelity, double t_impl) {
  assert(t_this_fidelity > 0.0);
  return t_impl / t_this_fidelity;
}

namespace {
double normPdf(double z) {
  return std::exp(-0.5 * z * z) * 0.3989422804014327;  // 1/sqrt(2 pi)
}
double normCdf(double z) { return 0.5 * std::erfc(-z * 0.70710678118654752); }
}  // namespace

double expectedImprovement(double mu, double sigma, double best, double xi) {
  if (sigma < 1e-12) return std::max(best - xi - mu, 0.0);
  const double lambda = (best - xi - mu) / sigma;
  return sigma * (lambda * normCdf(lambda) + normPdf(lambda));
}

}  // namespace cmmfo::core
