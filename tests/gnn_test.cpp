// DSS model tests: graph construction rules, parameter-count parity with the
// paper's Table II, full-model finite-difference gradient check, training
// loss descent and reproducibility, serialization round-trip, metric sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "core/dataset.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "gnn/metrics.hpp"
#include "gnn/model_io.hpp"
#include "gnn/trainer.hpp"
#include "la/csr.hpp"
#include "la/vector_ops.hpp"
#include "mesh/geometry.hpp"
#include "thread_sweep.hpp"

namespace {

using namespace ddmgnn;
using la::CooBuilder;
using la::CsrMatrix;
using la::Index;
using mesh::Point2;

/// Small synthetic local problem: SPD grid Laplacian on an nx×ny point grid,
/// with the left column marked Dirichlet (identity rows).
struct TinyProblem {
  std::shared_ptr<gnn::GraphTopology> topo;
  std::vector<double> rhs;
};

TinyProblem tiny_problem(int nx, int ny, std::uint64_t seed) {
  const Index n = nx * ny;
  std::vector<Point2> coords(n);
  std::vector<std::uint8_t> dirichlet(n, 0);
  auto id = [&](int i, int j) { return i * ny + j; };
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) {
      coords[id(i, j)] = {0.1 * i, 0.1 * j};
      if (i == 0) dirichlet[id(i, j)] = 1;
    }
  }
  CooBuilder coo(n, n);
  CooBuilder pattern(n, n);  // full grid adjacency = the "mesh" graph
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) {
      const Index u = id(i, j);
      auto link = [&](int i2, int j2) {
        if (i2 < 0 || i2 >= nx || j2 < 0 || j2 >= ny) return;
        pattern.add(u, id(i2, j2), 1.0);
      };
      link(i - 1, j);
      link(i + 1, j);
      link(i, j - 1);
      link(i, j + 1);
      if (dirichlet[u]) {
        coo.add(u, u, 1.0);
        continue;
      }
      double diag = 0.0;
      auto couple = [&](int i2, int j2) {
        if (i2 < 0 || i2 >= nx || j2 < 0 || j2 >= ny) return;
        const Index v = id(i2, j2);
        diag += 1.0;
        if (!dirichlet[v]) coo.add(u, v, -1.0);
      };
      couple(i - 1, j);
      couple(i + 1, j);
      couple(i, j - 1);
      couple(i, j + 1);
      coo.add(u, u, diag + 0.5);
    }
  }
  TinyProblem p;
  const CsrMatrix mesh_pattern = std::move(pattern).build();
  p.topo = gnn::build_topology(std::move(coo).build(), coords, dirichlet,
                               &mesh_pattern);
  Rng rng(seed);
  p.rhs.resize(n);
  for (double& v : p.rhs) v = rng.uniform(-1, 1);
  const double norm = la::norm2(p.rhs);
  for (double& v : p.rhs) v /= norm;
  return p;
}

TEST(Graph, DirichletNodesReceiveNoMessages) {
  const TinyProblem p = tiny_problem(4, 3, 1);
  for (Index e = 0; e < p.topo->num_edges(); ++e) {
    EXPECT_FALSE(p.topo->dirichlet[p.topo->recv[e]]);
  }
  // But Dirichlet nodes do send: at least one edge has a Dirichlet sender.
  bool dirichlet_sender = false;
  for (Index e = 0; e < p.topo->num_edges(); ++e) {
    if (p.topo->dirichlet[p.topo->send[e]]) dirichlet_sender = true;
  }
  EXPECT_TRUE(dirichlet_sender);
}

TEST(Graph, EdgeAttributesAreRelativePositions) {
  const TinyProblem p = tiny_problem(3, 3, 2);
  // Every interior-interior pair appears in both directions with opposite dx.
  for (Index e = 0; e < p.topo->num_edges(); ++e) {
    const float dx = p.topo->attr[3 * e];
    const float dy = p.topo->attr[3 * e + 1];
    const float dist = p.topo->attr[3 * e + 2];
    EXPECT_NEAR(dist, std::hypot(dx, dy), 1e-6);
    EXPECT_NEAR(dist, 0.1f, 1e-6);  // grid spacing
  }
}

TEST(DssModel, ParameterCountsMatchPaperTable2) {
  // Paper Table II "Nb Weights" for the strict architecture (no flag input):
  //   (k̄=5,  d=5)  -> 1755      (k̄=10, d=10) -> 12510
  //   (k̄=20, d=20) -> 94020     (k̄=30, d=10) -> 37530
  struct Row {
    int k, d;
    std::size_t weights;
  };
  for (const Row row : {Row{5, 5, 1755}, Row{10, 10, 12510},
                        Row{20, 20, 94020}, Row{30, 10, 37530},
                        Row{5, 10, 6255}, Row{20, 5, 7020}}) {
    gnn::DssConfig cfg;
    cfg.iterations = row.k;
    cfg.latent = row.d;
    cfg.hidden = row.d;  // paper uses hidden width 10; Table II scales the
                         // MLPs with d (counts only match with hidden = d)
    cfg.dirichlet_flag = false;
    const gnn::DssModel model(cfg, 0);
    EXPECT_EQ(model.num_params(), row.weights)
        << "k=" << row.k << " d=" << row.d;
  }
}

TEST(DssModel, ForwardIsDeterministicAndInputSensitive) {
  const TinyProblem p = tiny_problem(5, 4, 3);
  gnn::DssConfig cfg;
  cfg.iterations = 3;
  cfg.latent = 6;
  cfg.hidden = 8;
  const gnn::DssModel model(cfg, 11);
  gnn::GraphSample s{p.topo, p.rhs};
  gnn::DssWorkspace ws;
  std::vector<float> out1, out2;
  model.forward(s, ws, out1);
  model.forward(s, ws, out2);
  ASSERT_EQ(out1.size(), static_cast<std::size_t>(p.topo->n));
  EXPECT_EQ(out1, out2);
  // Different rhs -> different output.
  gnn::GraphSample s2 = s;
  s2.rhs[3] += 0.5;
  std::vector<float> out3;
  model.forward(s2, ws, out3);
  double diff = 0.0;
  for (std::size_t i = 0; i < out1.size(); ++i)
    diff += std::abs(out1[i] - out3[i]);
  EXPECT_GT(diff, 1e-6);
}

TEST(DssModel, GradientMatchesFiniteDifferences) {
  const TinyProblem p = tiny_problem(4, 3, 5);
  gnn::DssConfig cfg;
  cfg.iterations = 2;
  cfg.latent = 4;
  cfg.hidden = 5;
  cfg.alpha = 0.2f;  // larger alpha -> larger, easier-to-check gradients
  gnn::DssModel model(cfg, 21);
  gnn::GraphSample s{p.topo, p.rhs};
  gnn::DssWorkspace ws;

  std::vector<float> grads(model.num_params(), 0.0f);
  const double loss0 = model.loss_and_gradient(s, ws, grads.data());
  EXPECT_GT(loss0, 0.0);

  auto loss_at = [&]() {
    gnn::DssWorkspace w2;
    std::vector<float> tmp(model.num_params(), 0.0f);
    return model.loss_and_gradient(s, w2, tmp.data());
  };
  Rng rng(31);
  auto params = model.params();
  const double eps = 2e-3;
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 40; ++trial) {
    const auto idx = rng.uniform_index(params.size());
    const float saved = params[idx];
    params[idx] = saved + static_cast<float>(eps);
    const double lp = loss_at();
    params[idx] = saved - static_cast<float>(eps);
    const double lm = loss_at();
    params[idx] = saved;
    const double fd = (lp - lm) / (2 * eps);
    if (std::abs(fd) < 1e-4 && std::abs(grads[idx]) < 1e-4) continue;
    EXPECT_NEAR(grads[idx], fd, 2e-3 + 0.08 * std::abs(fd))
        << "param " << idx;
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(DssModel, LossGradientAccumulates) {
  const TinyProblem p = tiny_problem(3, 3, 7);
  gnn::DssConfig cfg;
  cfg.iterations = 2;
  cfg.latent = 3;
  cfg.hidden = 4;
  const gnn::DssModel model(cfg, 5);
  gnn::GraphSample s{p.topo, p.rhs};
  gnn::DssWorkspace ws;
  std::vector<float> g1(model.num_params(), 0.0f);
  model.loss_and_gradient(s, ws, g1.data());
  std::vector<float> g2(model.num_params(), 0.0f);
  model.loss_and_gradient(s, ws, g2.data());
  model.loss_and_gradient(s, ws, g2.data());  // accumulate twice
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g2[i], 2.0f * g1[i], 1e-4 + 1e-3 * std::abs(g1[i]));
  }
}

TEST(Trainer, LossDecreasesOnTinyDataset) {
  std::vector<gnn::GraphSample> train;
  for (int i = 0; i < 12; ++i) {
    const TinyProblem p = tiny_problem(5, 4, 100 + i);
    train.push_back({p.topo, p.rhs});
  }
  gnn::DssConfig cfg;
  cfg.iterations = 4;
  cfg.latent = 6;
  cfg.hidden = 8;
  cfg.alpha = 0.1f;
  gnn::DssModel model(cfg, 77);
  const double before = gnn::mean_residual_loss(model, train);
  gnn::TrainConfig tc;
  tc.epochs = 30;
  tc.batch_size = 6;
  tc.learning_rate = 5e-3;
  tc.clip_norm = 1.0;
  tc.seed = 9;
  const auto report = gnn::train_dss(model, train, {}, tc);
  EXPECT_EQ(report.epochs_run, 30);
  const double after = gnn::mean_residual_loss(model, train);
  EXPECT_LT(after, 0.7 * before);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
}

// Two trainings with the same seed at the same thread count give the same
// bits: every batch sums each sample into the same per-thread partial, and
// the validation loss the plateau scheduler reads is reduced the same way.
TEST(Trainer, TrainingIsBitwiseReproducibleAtFixedThreadCount) {
  const test::ThreadGuard guard;
  set_num_threads(4);
  core::DatasetConfig dc;
  dc.num_global_problems = 1;
  dc.mesh_target_nodes = 1200;
  dc.subdomain_target_nodes = 150;
  dc.max_samples = 120;
  const core::DssDataset data = core::generate_dataset(dc);
  ASSERT_GE(data.train.size(), 48u);
  ASSERT_FALSE(data.validation.empty());

  gnn::DssConfig mc;
  mc.iterations = 3;
  mc.latent = 6;
  mc.hidden = 8;
  gnn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 48;
  tc.seed = 5;
  const auto train = [&](gnn::DssModel& model) {
    return gnn::train_dss(model, data.train, data.validation, tc);
  };
  gnn::DssModel a(mc, 11);
  gnn::DssModel b(mc, 11);
  const auto ra = train(a);
  const auto rb = train(b);
  ASSERT_EQ(ra.validation_loss.size(), 2u);
  EXPECT_EQ(ra.validation_loss, rb.validation_loss);
  EXPECT_EQ(ra.epoch_loss, rb.epoch_loss);
  ASSERT_EQ(a.num_params(), b.num_params());
  EXPECT_EQ(std::memcmp(a.params().data(), b.params().data(),
                        a.num_params() * sizeof(float)),
            0);
}

TEST(ModelIo, RoundTripPreservesModel) {
  gnn::DssConfig cfg;
  cfg.iterations = 3;
  cfg.latent = 5;
  cfg.hidden = 6;
  cfg.alpha = 0.07f;
  cfg.dirichlet_flag = true;
  const gnn::DssModel model(cfg, 13);
  const std::string path = "test_model_roundtrip.bin";
  gnn::save_model(model, path);
  auto loaded = gnn::load_model(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config().iterations, 3);
  EXPECT_EQ(loaded->config().latent, 5);
  EXPECT_FLOAT_EQ(loaded->config().alpha, 0.07f);
  ASSERT_EQ(loaded->num_params(), model.num_params());
  const auto a = model.params();
  const auto b = loaded->params();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // And identical predictions.
  const TinyProblem p = tiny_problem(4, 4, 51);
  gnn::GraphSample s{p.topo, p.rhs};
  gnn::DssWorkspace ws;
  std::vector<float> o1, o2;
  model.forward(s, ws, o1);
  loaded->forward(s, ws, o2);
  EXPECT_EQ(o1, o2);
  std::filesystem::remove(path);
}

TEST(ModelIo, LoadRejectsMissingOrGarbage) {
  EXPECT_FALSE(gnn::load_model("does_not_exist.bin").has_value());
  const std::string path = "test_model_garbage.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a model";
  }
  EXPECT_FALSE(gnn::load_model(path).has_value());
  std::filesystem::remove(path);
}

TEST(Metrics, EvaluateReportsResidualAndRelativeError) {
  std::vector<gnn::GraphSample> samples;
  for (int i = 0; i < 6; ++i) {
    const TinyProblem p = tiny_problem(5, 5, 200 + i);
    samples.push_back({p.topo, p.rhs});
  }
  gnn::DssConfig cfg;
  cfg.iterations = 3;
  cfg.latent = 5;
  cfg.hidden = 6;
  const gnn::DssModel model(cfg, 3);
  const auto m = gnn::evaluate_dss(model, samples);
  EXPECT_EQ(m.num_samples, 6u);
  EXPECT_GT(m.residual_mean, 0.0);
  EXPECT_GT(m.rel_error_mean, 0.0);
  // Untrained model: prediction ~0 -> RMS residual ≈ ‖c‖/√n = 1/√25,
  // rel error ≈ 1.
  EXPECT_NEAR(m.residual_mean, 0.2, 0.15);
  EXPECT_NEAR(m.rel_error_mean, 1.0, 0.4);
}

}  // namespace
