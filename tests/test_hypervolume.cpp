#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "pareto/hypervolume.h"
#include "rng/rng.h"

namespace cmmfo::pareto {
namespace {

TEST(Hypervolume, SingleBox2d) {
  // Point (1,1) with ref (3,3): box 2x2.
  EXPECT_DOUBLE_EQ(hypervolume({{1, 1}}, {3, 3}), 4.0);
}

TEST(Hypervolume, SingleBox3d) {
  EXPECT_DOUBLE_EQ(hypervolume({{0, 0, 0}}, {2, 3, 4}), 24.0);
}

TEST(Hypervolume, TwoPointStaircase2d) {
  // (1,2) and (2,1) with ref (3,3): union area = 2*1 + 1*2 - 1*1 ... compute:
  // box1 = (3-1)(3-2)=2; box2 = (3-2)(3-1)=2; overlap=(3-2)(3-2)=1 -> 3.
  EXPECT_DOUBLE_EQ(hypervolume({{1, 2}, {2, 1}}, {3, 3}), 3.0);
}

TEST(Hypervolume, DominatedPointAddsNothing) {
  const double base = hypervolume({{1, 1}}, {3, 3});
  EXPECT_DOUBLE_EQ(hypervolume({{1, 1}, {2, 2}}, {3, 3}), base);
}

TEST(Hypervolume, PointOutsideRefIgnored) {
  EXPECT_DOUBLE_EQ(hypervolume({{4, 4}}, {3, 3}), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume({{1, 1}, {5, 0}}, {3, 3}),
                   hypervolume({{1, 1}}, {3, 3}) +
                       0.0);  // (5,0) has a coord beyond ref
}

TEST(Hypervolume, EmptySetIsZero) {
  EXPECT_DOUBLE_EQ(hypervolume({}, {1, 1}), 0.0);
}

TEST(Hypervolume, OneDimensional) {
  EXPECT_DOUBLE_EQ(hypervolume({{2.0}, {4.0}}, {10.0}), 8.0);
}

TEST(Hypervolume, ThreeDStaircase) {
  // Two incomparable boxes in 3-D with a computable overlap.
  // a=(0,1,1), b=(1,0,0), ref=(2,2,2):
  // vol(a)=2*1*1=2, vol(b)=1*2*2=4, overlap=max corner (1,1,1): 1*1*1=1 -> 5.
  EXPECT_DOUBLE_EQ(hypervolume({{0, 1, 1}, {1, 0, 0}}, {2, 2, 2}), 5.0);
}

TEST(Hypervolume, WfgMatches3dSweepOn4d) {
  // Embed a 3-D problem into 4-D with a constant last coordinate: volumes
  // scale by the last-axis extent, exercising the generic WFG recursion.
  const std::vector<Point> pts3 = {{0, 1, 1}, {1, 0, 0}, {0.5, 0.5, 2}};
  std::vector<Point> pts4;
  for (auto p : pts3) {
    p.push_back(1.0);
    pts4.push_back(p);
  }
  const double v3 = hypervolume(pts3, {2, 2, 3});
  const double v4 = hypervolume(pts4, {2, 2, 3, 3});
  EXPECT_NEAR(v4, v3 * 2.0, 1e-9);
}

TEST(Hypervolume, MonotoneInPoints) {
  rng::Rng rng(1);
  for (int t = 0; t < 30; ++t) {
    std::vector<Point> pts;
    for (int i = 0; i < 10; ++i)
      pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    const Point ref = {1.2, 1.2, 1.2};
    const double v1 = hypervolume(pts, ref);
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    const double v2 = hypervolume(pts, ref);
    EXPECT_GE(v2, v1 - 1e-12);
  }
}

TEST(Hypervolume, InvariantToPointOrder) {
  rng::Rng rng(2);
  std::vector<Point> pts;
  for (int i = 0; i < 12; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  const Point ref = {1.1, 1.1, 1.1};
  const double v1 = hypervolume(pts, ref);
  rng.shuffle(pts);
  EXPECT_NEAR(hypervolume(pts, ref), v1, 1e-12);
}

class HviProperty : public ::testing::TestWithParam<int> {};

TEST_P(HviProperty, MatchesDefinitionOnRandomSets) {
  // HVI(y, P) must equal HV(P ∪ {y}) - HV(P) for random sets — this is the
  // identity the MC-EIPV estimator relies on.
  rng::Rng rng(GetParam());
  const int m = 2 + GetParam() % 2;  // 2-D and 3-D
  const Point ref(m, 1.2);
  std::vector<Point> pts;
  for (int i = 0; i < 15; ++i) {
    Point p(m);
    for (auto& v : p) v = rng.uniform();
    pts.push_back(std::move(p));
  }
  for (int t = 0; t < 40; ++t) {
    Point y(m);
    for (auto& v : y) v = rng.uniform(-0.1, 1.3);
    const double direct =
        hypervolume([&] {
          auto all = pts;
          all.push_back(y);
          return all;
        }(), ref) -
        hypervolume(pts, ref);
    EXPECT_NEAR(hypervolumeImprovement(y, pts, ref), direct, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HviProperty, ::testing::Range(1, 9));

TEST(HypervolumeImprovement, EmptyFrontIsFullBox) {
  EXPECT_DOUBLE_EQ(hypervolumeImprovement({1, 1}, {}, {3, 4}), 6.0);
}

TEST(HypervolumeImprovement, DominatedPointIsZero) {
  EXPECT_DOUBLE_EQ(hypervolumeImprovement({2, 2}, {{1, 1}}, {3, 3}), 0.0);
}

TEST(HypervolumeImprovement, OutsideRefIsZero) {
  EXPECT_DOUBLE_EQ(hypervolumeImprovement({3.5, 0.0}, {{1, 1}}, {3, 3}), 0.0);
}

/// FNV-1a over the bit pattern of v (exact: any change in a result's bits
/// changes the digest).
std::uint64_t fnvMix(std::uint64_t h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int b = 0; b < 8; ++b) {
    h ^= (bits >> (8 * b)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(HypervolumeImprovement, BitsMatchPinnedDigest) {
  // The flat kernels must reproduce every bit of the vector-of-Point
  // implementation they replaced (the digest was recorded from it). A
  // coarse grid puts ties, duplicate points and points on the reference
  // point (1.0) into most sets; y also takes off-grid and out-of-box values.
  rng::Rng rng(2026);
  const auto grid = [&rng](int lo, int hi) {
    return 0.125 * static_cast<double>(rng.uniformInt(lo, hi));
  };
  std::uint64_t h = 0xcbf29ce484222325ULL;
  int pairs = 0;
  for (std::size_t m = 2; m <= 4; ++m) {
    const Point ref(m, 1.0);
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t n = rng.index(m == 4 ? 9 : 17);
      std::vector<Point> pts(n, Point(m));
      for (auto& p : pts)
        for (auto& v : p) v = grid(0, 9);
      if (trial % 2 == 1) pts = paretoFilter(pts);
      Point y(m);
      for (auto& v : y)
        v = trial % 3 == 0 ? rng.uniform(-0.1, 1.1) : grid(-1, 9);
      h = fnvMix(h, hypervolumeImprovement(y, pts, ref));
      h = fnvMix(h, hypervolume(pts, ref));
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 1000);
  EXPECT_EQ(h, 0x2d5c7177a7e31c16ULL) << std::hex << h;
}

TEST(ReferencePoint, BeyondAllPoints) {
  const auto ref = referencePoint({{1, 5}, {2, 3}}, 0.1);
  EXPECT_GT(ref[0], 2.0);
  EXPECT_GT(ref[1], 5.0);
}

TEST(ReferencePoint, DegenerateRangeStillStrict) {
  const auto ref = referencePoint({{1, 1}, {1, 2}}, 0.1);
  EXPECT_GT(ref[0], 1.0);  // zero-range dim still gets a strict margin
}

}  // namespace
}  // namespace cmmfo::pareto
