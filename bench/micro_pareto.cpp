// google-benchmark microbenchmarks for the Pareto kernels: dominance
// filtering, 2-D/3-D hypervolume, hypervolume improvement and the Fig. 6
// cell decomposition.

#include <benchmark/benchmark.h>

#include "pareto/cells.h"
#include "pareto/dominance.h"
#include "pareto/hypervolume.h"
#include "rng/rng.h"

using namespace cmmfo;
using namespace cmmfo::pareto;

namespace {

std::vector<Point> randomPoints(std::size_t n, std::size_t m,
                                std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<Point> pts(n, Point(m));
  for (auto& p : pts)
    for (auto& v : p) v = rng.uniform();
  return pts;
}

void BM_ParetoFilter(benchmark::State& state) {
  const auto pts = randomPoints(state.range(0), 3, 1);
  for (auto _ : state) benchmark::DoNotOptimize(paretoFilter(pts));
}
BENCHMARK(BM_ParetoFilter)->Arg(64)->Arg(256)->Arg(1024);

void BM_Hypervolume2d(benchmark::State& state) {
  const auto pts = randomPoints(state.range(0), 2, 2);
  const Point ref = {1.1, 1.1};
  for (auto _ : state) benchmark::DoNotOptimize(hypervolume(pts, ref));
}
BENCHMARK(BM_Hypervolume2d)->Arg(32)->Arg(128);

void BM_Hypervolume3d(benchmark::State& state) {
  const auto pts = randomPoints(state.range(0), 3, 3);
  const Point ref = {1.1, 1.1, 1.1};
  for (auto _ : state) benchmark::DoNotOptimize(hypervolume(pts, ref));
}
BENCHMARK(BM_Hypervolume3d)->Arg(32)->Arg(128);

void BM_HviExclusive(benchmark::State& state) {
  const auto front = paretoFilter(randomPoints(state.range(0), 3, 4));
  const Point ref = {1.1, 1.1, 1.1};
  rng::Rng rng(5);
  const Point y = {rng.uniform(), rng.uniform(), rng.uniform()};
  for (auto _ : state)
    benchmark::DoNotOptimize(hypervolumeImprovement(y, front, ref));
}
// 8 and 16 points are the size of the fronts the acquisition scan scores.
BENCHMARK(BM_HviExclusive)->Arg(8)->Arg(16)->Arg(64)->Arg(256);

void BM_CellDecomposition2d(benchmark::State& state) {
  const auto front = paretoFilter(randomPoints(state.range(0), 2, 6));
  const Point ref = {1.1, 1.1};
  for (auto _ : state) benchmark::DoNotOptimize(nonDominatedCells(front, ref));
}
BENCHMARK(BM_CellDecomposition2d)->Arg(16)->Arg(64);

void BM_ExactEipv2d(benchmark::State& state) {
  const auto front = paretoFilter(randomPoints(state.range(0), 2, 7));
  const Point ref = {1.1, 1.1};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exactEipvIndependent({0.4, 0.4}, {0.1, 0.1}, front, ref));
}
BENCHMARK(BM_ExactEipv2d)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
