#include "pareto/hypervolume.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

namespace cmmfo::pareto {

namespace {

/// Per-thread scratch of the flat kernels. The acquisition scan calls
/// hypervolumeImprovement tens of millions of times per campaign on fronts
/// of a few dozen points, so the buffers are reused across calls instead of
/// allocated per point. Every point set below is a flat row-major buffer of
/// n rows with stride m = ref.size().
struct HvScratch {
  std::vector<double> in;     // flattened input / limited set
  std::vector<double> clip;   // rows strictly inside the reference box
  std::vector<double> front;  // their non-dominated subset
  std::vector<std::size_t> order;
  std::vector<std::pair<double, double>> stair;
};

HvScratch& scratch() {
  thread_local HvScratch s;
  return s;
}

/// dominates() on flat rows.
bool dominatesRow(const double* a, const double* b, std::size_t m) {
  bool strict = false;
  for (std::size_t d = 0; d < m; ++d) {
    if (a[d] > b[d]) return false;
    if (a[d] < b[d]) strict = true;
  }
  return strict;
}

/// Clip rows to those strictly better than ref in every coordinate and
/// reduce to the non-dominated subset, in input order (the O(n^2) test of
/// nonDominatedIndices). The result is in s.front; returns its row count.
std::size_t clipAndFilter(const double* pts, std::size_t n, const Point& ref,
                          HvScratch& s) {
  const std::size_t m = ref.size();
  s.clip.resize(n * m);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = pts + i * m;
    bool inside = true;
    for (std::size_t d = 0; d < m; ++d)
      if (p[d] >= ref[d]) {
        inside = false;
        break;
      }
    if (inside) std::copy(p, p + m, s.clip.data() + m * kept++);
  }
  s.front.resize(kept * m);
  std::size_t out = 0;
  for (std::size_t i = 0; i < kept; ++i) {
    const double* p = s.clip.data() + i * m;
    bool dominated = false;
    for (std::size_t j = 0; j < kept && !dominated; ++j)
      if (j != i && dominatesRow(s.clip.data() + j * m, p, m))
        dominated = true;
    if (!dominated) std::copy(p, p + m, s.front.data() + m * out++);
  }
  return out;
}

double hv2(const double* pts, std::size_t n, const Point& ref, HvScratch& s) {
  // Sort by first objective ascending (lexicographic, as on Points); the
  // second then descends along the front. Rows that compare equal are
  // equal, so the sorted value sequence is unique.
  s.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.order[i] = i;
  std::sort(s.order.begin(), s.order.end(),
            [pts](std::size_t a, std::size_t b) {
              const double* pa = pts + 2 * a;
              const double* pb = pts + 2 * b;
              return pa[0] < pb[0] || (!(pb[0] < pa[0]) && pa[1] < pb[1]);
            });
  double vol = 0.0;
  double prev_y1 = ref[1];
  for (std::size_t i : s.order) {
    const double* p = pts + 2 * i;
    vol += (ref[0] - p[0]) * (prev_y1 - p[1]);
    prev_y1 = p[1];
  }
  return vol;
}

double hv3(const double* pts, std::size_t n, const Point& ref, HvScratch& s) {
  // Dimension sweep on z: process points by ascending z; between two
  // consecutive z-levels the dominated area in the (x, y) plane is the 2-D
  // hypervolume of the staircase of points already processed. The order
  // of equal-z points is irrelevant: each one after the first adds
  // area * 0, and the staircase they leave is the same set either way.
  s.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.order[i] = i;
  std::sort(s.order.begin(), s.order.end(),
            [pts](std::size_t a, std::size_t b) {
              return pts[3 * a + 2] < pts[3 * b + 2];
            });
  // Maintain the 2-D staircase as a sorted (x asc, y desc) non-dominated
  // set. Its members are pairwise distinct, so inserting in sorted position
  // gives exactly the sequence a full sort would.
  auto& stair = s.stair;
  stair.clear();
  double vol = 0.0;
  double area = 0.0;
  double prev_z = 0.0;
  bool first = true;

  auto staircaseArea = [&]() {
    double a = 0.0;
    double prev_y = ref[1];
    for (const auto& [x, y] : stair) {
      a += (ref[0] - x) * (prev_y - y);
      prev_y = y;
    }
    return a;
  };

  for (std::size_t i : s.order) {
    const double* p = pts + 3 * i;
    if (!first) vol += area * (p[2] - prev_z);
    // Insert (x, y) into the staircase if 2-D non-dominated.
    const double x = p[0], y = p[1];
    bool dominated = false;
    for (const auto& [sx, sy] : stair)
      if (sx <= x && sy <= y) {
        dominated = true;
        break;
      }
    if (!dominated) {
      std::erase_if(stair, [&](const std::pair<double, double>& st) {
        return x <= st.first && y <= st.second;
      });
      const std::pair<double, double> xy(x, y);
      stair.insert(std::lower_bound(stair.begin(), stair.end(), xy), xy);
      area = staircaseArea();
    }
    prev_z = p[2];
    first = false;
  }
  if (!first) vol += area * (ref[2] - prev_z);
  return vol;
}

/// WFG-style recursion for M >= 4: hv(S) over sorted S is the sum over i
/// of the exclusive contribution of S[i] against S[i+1..].
double hvWfg(std::vector<Point> pts, const Point& ref);

double exclusiveWfg(const Point& p, const std::vector<Point>& rest,
                    const Point& ref) {
  double box = 1.0;
  for (std::size_t d = 0; d < ref.size(); ++d) box *= ref[d] - p[d];
  if (rest.empty()) return box;
  // Limit the rest to the region dominated by p: q -> max(q, p).
  std::vector<Point> limited;
  limited.reserve(rest.size());
  for (const auto& q : rest) {
    Point lq(q.size());
    for (std::size_t d = 0; d < q.size(); ++d) lq[d] = std::max(q[d], p[d]);
    limited.push_back(std::move(lq));
  }
  return box - hvWfg(paretoFilter(limited), ref);
}

double hvWfg(std::vector<Point> pts, const Point& ref) {
  if (pts.empty()) return 0.0;
  // Sort to keep the recursion shallow (worse points first shrink fast).
  std::sort(pts.begin(), pts.end(),
            [](const Point& a, const Point& b) { return a.back() > b.back(); });
  double vol = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i)
    vol += exclusiveWfg(pts[i],
                        std::vector<Point>(pts.begin() + i + 1, pts.end()),
                        ref);
  return vol;
}

/// PV_ref of the n flat rows at `pts` (which must not alias s.clip or
/// s.front).
double hypervolumeFlat(const double* pts, std::size_t n, const Point& ref,
                       HvScratch& s) {
  const std::size_t k = clipAndFilter(pts, n, ref, s);
  if (k == 0) return 0.0;
  const std::size_t m = ref.size();
  assert(m >= 1);
  const double* f = s.front.data();
  if (m == 1) {
    double best = f[0];
    for (std::size_t i = 0; i < k; ++i) best = std::min(best, f[i]);
    return ref[0] - best;
  }
  if (m == 2) return hv2(f, k, ref, s);
  if (m == 3) return hv3(f, k, ref, s);
  std::vector<Point> front(k);
  for (std::size_t i = 0; i < k; ++i)
    front[i].assign(f + i * m, f + (i + 1) * m);
  return hvWfg(std::move(front), ref);
}

}  // namespace

double hypervolume(const std::vector<Point>& pts, const Point& ref) {
  HvScratch& s = scratch();
  const std::size_t m = ref.size();
  s.in.resize(pts.size() * m);
  for (std::size_t i = 0; i < pts.size(); ++i)
    std::copy(pts[i].begin(), pts[i].begin() + m, s.in.data() + i * m);
  return hypervolumeFlat(s.in.data(), pts.size(), ref, s);
}

double hypervolumeImprovement(const Point& y, const std::vector<Point>& pts,
                              const Point& ref) {
  // y outside the reference box contributes nothing.
  double box = 1.0;
  for (std::size_t d = 0; d < ref.size(); ++d) {
    if (y[d] >= ref[d]) return 0.0;
    box *= ref[d] - y[d];
  }
  if (pts.empty()) return box;
  // Exclusive volume: box minus what the limited set already covers.
  HvScratch& s = scratch();
  const std::size_t m = ref.size();
  s.in.resize(pts.size() * m);
  double* lim = s.in.data();
  for (const auto& p : pts)
    for (std::size_t d = 0; d < m; ++d) *lim++ = std::max(p[d], y[d]);
  const double covered = hypervolumeFlat(s.in.data(), pts.size(), ref, s);
  return std::max(0.0, box - covered);
}

Point referencePoint(const std::vector<Point>& pts, double margin_frac) {
  assert(!pts.empty());
  const std::size_t m = pts[0].size();
  Point lo = pts[0], hi = pts[0];
  for (const auto& p : pts)
    for (std::size_t d = 0; d < m; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  Point ref(m);
  for (std::size_t d = 0; d < m; ++d) {
    const double range = std::max(hi[d] - lo[d], 1e-12);
    ref[d] = hi[d] + margin_frac * range;
  }
  return ref;
}

}  // namespace cmmfo::pareto
