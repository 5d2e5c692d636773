#include "opt/multistart.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <system_error>
#include <thread>

namespace cmmfo::opt {

std::size_t multiStartThreads() {
  static const std::size_t n =
      std::max(1u, std::thread::hardware_concurrency() / 2);
  return n;
}

OptResult multiStartMinimize(const GradObjectiveFn& f,
                             const std::vector<std::vector<double>>& starts,
                             const LbfgsOptions& opts) {
  const std::size_t ns = starts.size();
  std::vector<OptResult> results(ns);
  std::vector<std::exception_ptr> errors(ns);
  const auto run = [&](std::size_t s) {
    try {
      results[s] = minimizeLbfgs(f, starts[s], opts);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };
  // The caller runs start 0; every thread then claims the next unclaimed
  // start until none is left, so a helper that is slow to get a core delays
  // only the starts it claims.
  std::atomic<std::size_t> next{1};
  const auto claimStarts = [&] {
    for (std::size_t s; (s = next.fetch_add(1)) < ns;) run(s);
  };
  {
    // jthread joins on destruction, so every helper is joined before
    // `results` is read. A helper that cannot be launched leaves its share
    // to the threads that run; the start-order reduction makes that
    // invisible in the result.
    std::vector<std::jthread> helpers;
    const std::size_t n_threads = std::min(ns, multiStartThreads());
    try {
      for (std::size_t t = 1; t < n_threads; ++t)
        helpers.emplace_back(claimStarts);
    } catch (const std::system_error&) {
    }
    if (ns > 0) run(0);
    claimStarts();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  OptResult best;
  best.value = std::numeric_limits<double>::infinity();
  int total_iters = 0;
  for (OptResult& r : results) {
    total_iters += r.iterations;
    if (std::isfinite(r.value) && r.value < best.value) best = std::move(r);
  }
  best.iterations = total_iters;
  return best;
}

}  // namespace cmmfo::opt
