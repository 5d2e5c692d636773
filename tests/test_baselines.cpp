#include <gtest/gtest.h>

#include <cmath>

#include "baselines/methods.h"
#include "bench_suite/benchmarks.h"
#include "exp/harness.h"

namespace cmmfo::baselines {
namespace {

TEST(Mlp, FitsLinearFunction) {
  rng::Rng rng(1);
  MlpOptions opts;
  opts.epochs = 1500;
  Mlp net(2, opts);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(3.0 * x.back()[0] - 2.0 * x.back()[1] + 1.0);
  }
  net.fit(x, y, rng);
  double se = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = net.predict(x[i]) - y[i];
    se += e * e;
  }
  EXPECT_LT(std::sqrt(se / x.size()), 0.15);
}

TEST(Mlp, FitsNonlinearFunction) {
  rng::Rng rng(2);
  MlpOptions opts;
  opts.epochs = 3000;
  Mlp net(1, opts);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double v = i / 49.0;
    x.push_back({v});
    y.push_back(std::sin(6.0 * v));
  }
  net.fit(x, y, rng);
  EXPECT_LT(net.trainingLoss(), 0.05);
}

TEST(Mlp, HandlesLargeTargetScale) {
  rng::Rng rng(3);
  Mlp net(1);
  std::vector<std::vector<double>> x = {{0.0}, {0.5}, {1.0}};
  std::vector<double> y = {1e4, 2e4, 3e4};
  net.fit(x, y, rng);
  EXPECT_NEAR(net.predict({0.5}), 2e4, 2.5e3);
}

TEST(Gbrt, FitsStepFunction) {
  rng::Rng rng(4);
  Gbrt model;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    const double v = i / 59.0;
    x.push_back({v});
    y.push_back(v < 0.5 ? 1.0 : 5.0);
  }
  model.fit(x, y, rng);
  EXPECT_NEAR(model.predict({0.2}), 1.0, 0.3);
  EXPECT_NEAR(model.predict({0.8}), 5.0, 0.3);
}

TEST(Gbrt, FitsAdditiveFunction) {
  rng::Rng rng(5);
  GbrtOptions opts;
  opts.num_trees = 300;
  Gbrt model(opts);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(2.0 * x.back()[0] + std::sin(5.0 * x.back()[1]));
  }
  model.fit(x, y, rng);
  double se = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = model.predict(x[i]) - y[i];
    se += e * e;
  }
  EXPECT_LT(std::sqrt(se / x.size()), 0.25);
}

TEST(Gbrt, DepthZeroIsConstantModel) {
  rng::Rng rng(6);
  GbrtOptions opts;
  opts.max_depth = 0;
  Gbrt model(opts);
  std::vector<std::vector<double>> x = {{0.0}, {1.0}};
  std::vector<double> y = {0.0, 10.0};
  model.fit(x, y, rng);
  EXPECT_NEAR(model.predict({0.0}), model.predict({1.0}), 1e-9);
}

TEST(Gbrt, PredictBatchMatchesPredict) {
  // Tree-major batch prediction must sum each input's trees in the same
  // order as predict(): bitwise equal, including inputs on split
  // thresholds and outside the training range.
  rng::Rng rng(8);
  Gbrt model;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    x.push_back({rng.uniform(), rng.uniform(), 0.25 * rng.uniformInt(0, 4)});
    y.push_back(3.0 * x.back()[0] - x.back()[1] * x.back()[2]);
  }
  model.fit(x, y, rng);
  std::vector<std::vector<double>> probes = x;
  for (int i = 0; i < 40; ++i)
    probes.push_back({rng.uniform(-0.5, 1.5), rng.uniform(), 0.5});
  const std::vector<double> batch = model.predictBatch(probes);
  ASSERT_EQ(batch.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i)
    EXPECT_EQ(batch[i], model.predict(probes[i])) << "probe " << i;
  EXPECT_TRUE(model.predictBatch({}).empty());
}

struct MethodsFixture {
  MethodsFixture() : ctx(bench_suite::makeSpmvCrs()) {}
  exp::BenchmarkContext ctx;
};

TEST(Methods, AnnProposesValidIndices) {
  MethodsFixture f;
  MlpOptions mo;
  mo.epochs = 300;  // keep the test quick
  AnnMethod ann(mo);
  const DseOutcome out = ann.run(f.ctx.space(), f.ctx.sim(), 9);
  EXPECT_FALSE(out.selected.empty());
  for (std::size_t i : out.selected) EXPECT_LT(i, f.ctx.space().size());
  EXPECT_GT(out.tool_seconds, 0.0);
  EXPECT_EQ(out.tool_runs, 48);
}

TEST(Methods, BtProposesValidIndices) {
  MethodsFixture f;
  BtMethod bt;
  const DseOutcome out = bt.run(f.ctx.space(), f.ctx.sim(), 9);
  EXPECT_FALSE(out.selected.empty());
  for (std::size_t i : out.selected) EXPECT_LT(i, f.ctx.space().size());
}

TEST(Methods, Dac19CostsRoughlySevenTimesAnn) {
  // Table I: DAC19's running time is (3+11)/2 = 7x the single-set methods.
  MethodsFixture f;
  MlpOptions mo;
  mo.epochs = 50;
  AnnMethod ann(mo);
  Dac19Method dac(7);
  const double t_ann = ann.run(f.ctx.space(), f.ctx.sim(), 3).tool_seconds;
  const double t_dac = dac.run(f.ctx.space(), f.ctx.sim(), 3).tool_seconds;
  EXPECT_NEAR(t_dac / t_ann, 7.0, 1.5);
}

TEST(Methods, RandomSelectsObservedPareto) {
  MethodsFixture f;
  RandomMethod random(30);
  const DseOutcome out = random.run(f.ctx.space(), f.ctx.sim(), 5);
  EXPECT_FALSE(out.selected.empty());
  EXPECT_LE(out.selected.size(), 30u);
  EXPECT_EQ(out.tool_runs, 30);
}

TEST(Methods, OursAndFpl18UseConfiguredModels) {
  core::OptimizerOptions oo;
  OursMethod ours(oo);
  EXPECT_EQ(ours.options().surrogate.mf, core::MfKind::kNonlinear);
  EXPECT_EQ(ours.options().surrogate.obj, core::ObjModelKind::kCorrelated);
  EXPECT_EQ(ours.name(), "Ours");
  EXPECT_EQ(Fpl18Method().name(), "FPL18");
  EXPECT_EQ(AnnMethod().name(), "ANN");
  EXPECT_EQ(BtMethod().name(), "BT");
  EXPECT_EQ(Dac19Method().name(), "DAC19");
}

TEST(Methods, InvalidDesignsDoNotPoisonAnn) {
  // stencil3d has invalid high-utilization configs; ANN training must not
  // produce NaNs from the 10x-worst penalty rows.
  exp::BenchmarkContext ctx(bench_suite::makeStencil3d());
  MlpOptions mo;
  mo.epochs = 200;
  AnnMethod ann(mo);
  const DseOutcome out = ann.run(ctx.space(), ctx.sim(), 17);
  EXPECT_FALSE(out.selected.empty());
  const double adrs = ctx.adrsOf(out.selected);
  EXPECT_TRUE(std::isfinite(adrs));
}

}  // namespace
}  // namespace cmmfo::baselines
