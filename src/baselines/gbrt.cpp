#include "baselines/gbrt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace cmmfo::baselines {

Gbrt::Gbrt(Options opts) : opts_(opts) {}

double Gbrt::Tree::eval(const std::vector<double>& x) const {
  int idx = 0;
  while (nodes[idx].feature >= 0) {
    idx = x[nodes[idx].feature] <= nodes[idx].threshold ? nodes[idx].left
                                                        : nodes[idx].right;
  }
  return nodes[idx].value;
}

int Gbrt::buildNode(Tree& tree, const std::vector<std::vector<double>>& x,
                    const std::vector<double>& residual,
                    std::vector<std::size_t> rows, int depth) const {
  const int node_idx = static_cast<int>(tree.nodes.size());
  tree.nodes.emplace_back();

  double sum = 0.0;
  for (std::size_t r : rows) sum += residual[r];
  const double mean = sum / static_cast<double>(rows.size());

  auto makeLeaf = [&]() {
    tree.nodes[node_idx].value = mean;
    return node_idx;
  };
  if (depth >= opts_.max_depth ||
      rows.size() < static_cast<std::size_t>(2 * opts_.min_samples_leaf))
    return makeLeaf();

  // Best split: minimize total squared error via sorted prefix scan.
  const std::size_t dim = x[0].size();
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;

  // Raw second moment; SSE of any subset follows from (sum, sum-of-squares).
  double all_sq = 0.0;
  for (std::size_t r : rows) all_sq += residual[r] * residual[r];
  const double n_total = static_cast<double>(rows.size());
  const double sse_parent = all_sq - sum * sum / n_total;

  std::vector<std::size_t> sorted = rows;
  for (std::size_t f = 0; f < dim; ++f) {
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return x[a][f] < x[b][f];
    });
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      const double v = residual[sorted[i]];
      left_sum += v;
      left_sq += v * v;
      if (x[sorted[i]][f] == x[sorted[i + 1]][f]) continue;
      const double n_left = static_cast<double>(i + 1);
      const double n_right = n_total - n_left;
      if (n_left < opts_.min_samples_leaf || n_right < opts_.min_samples_leaf)
        continue;
      const double right_sum = sum - left_sum;
      const double sse_left = left_sq - left_sum * left_sum / n_left;
      const double sse_right =
          (all_sq - left_sq) - right_sum * right_sum / n_right;
      const double gain = sse_parent - sse_left - sse_right;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (x[sorted[i]][f] + x[sorted[i + 1]][f]);
      }
    }
  }

  if (best_feature < 0) return makeLeaf();

  std::vector<std::size_t> left_rows, right_rows;
  for (std::size_t r : rows)
    (x[r][best_feature] <= best_threshold ? left_rows : right_rows).push_back(r);
  if (left_rows.empty() || right_rows.empty()) return makeLeaf();

  tree.nodes[node_idx].feature = best_feature;
  tree.nodes[node_idx].threshold = best_threshold;
  const int l = buildNode(tree, x, residual, std::move(left_rows), depth + 1);
  tree.nodes[node_idx].left = l;
  const int r = buildNode(tree, x, residual, std::move(right_rows), depth + 1);
  tree.nodes[node_idx].right = r;
  return node_idx;
}

Gbrt::Tree Gbrt::buildTree(const std::vector<std::vector<double>>& x,
                           const std::vector<double>& residual,
                           const std::vector<std::size_t>& rows) const {
  Tree tree;
  buildNode(tree, x, residual, rows, 0);
  return tree;
}

void Gbrt::fit(const std::vector<std::vector<double>>& x,
               const std::vector<double>& y, rng::Rng& rng) {
  assert(!x.empty() && x.size() == y.size());
  trees_.clear();
  double sum = 0.0;
  for (double v : y) sum += v;
  base_ = sum / static_cast<double>(y.size());

  std::vector<double> pred(y.size(), base_);
  std::vector<double> residual(y.size());
  for (int t = 0; t < opts_.num_trees; ++t) {
    for (std::size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];

    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < y.size(); ++i)
      if (rng.uniform() < opts_.subsample) rows.push_back(i);
    if (rows.size() < static_cast<std::size_t>(2 * opts_.min_samples_leaf))
      for (std::size_t i = 0; i < y.size(); ++i) rows.push_back(i);

    Tree tree = buildTree(x, residual, rows);
    for (std::size_t i = 0; i < y.size(); ++i)
      pred[i] += opts_.learning_rate * tree.eval(x[i]);
    trees_.push_back(std::move(tree));
  }
}

double Gbrt::predict(const std::vector<double>& x) const {
  double p = base_;
  for (const auto& t : trees_) p += opts_.learning_rate * t.eval(x);
  return p;
}

std::vector<double> Gbrt::predictBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<double> p(xs.size(), base_);
  for (const auto& t : trees_)
    for (std::size_t c = 0; c < xs.size(); ++c)
      p[c] += opts_.learning_rate * t.eval(xs[c]);
  return p;
}

}  // namespace cmmfo::baselines
