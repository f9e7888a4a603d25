#include "gnn/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "nn/adam.hpp"

namespace ddmgnn::gnn {

TrainReport train_dss(DssModel& model, const std::vector<GraphSample>& train,
                      const std::vector<GraphSample>& val,
                      const TrainConfig& cfg) {
  DDMGNN_CHECK(!train.empty(), "train_dss: empty training set");
  Timer timer;
  TrainReport report;
  const std::size_t np = model.num_params();
  nn::Adam adam(np, cfg.learning_rate);
  nn::ReduceLrOnPlateau scheduler(cfg.plateau_factor, cfg.plateau_patience);

  const int nthreads = num_threads();
  std::vector<std::vector<float>> thread_grads(
      nthreads, std::vector<float>(np, 0.0f));
  std::vector<DssWorkspace> thread_ws(nthreads);
  std::vector<double> thread_loss(nthreads, 0.0);
  std::vector<float> grads(np);

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle_rng(cfg.seed ^ 0x5851F42D4C957F2Dull);

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    // Fisher-Yates shuffle for stochasticity with a deterministic seed.
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[shuffle_rng.uniform_index(i + 1)]);
    }
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += cfg.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(cfg.batch_size));
      const long bsz = static_cast<long>(end - start);
      for (int t = 0; t < nthreads; ++t) {
        std::fill(thread_grads[t].begin(), thread_grads[t].end(), 0.0f);
        thread_loss[t] = 0.0;
      }
      // Static schedule: which samples sum into which partial depends only
      // on the thread count, so training is reproducible at a fixed count.
#pragma omp parallel for schedule(static) num_threads(nthreads)
      for (long i = 0; i < bsz; ++i) {
        const int tid = omp_get_thread_num();
        const GraphSample& sample = train[order[start + i]];
        thread_loss[tid] += model.loss_and_gradient(
            sample, thread_ws[tid], thread_grads[tid].data());
      }
      // Reduce the partials in thread order 0..T-1.
      std::fill(grads.begin(), grads.end(), 0.0f);
      double batch_loss = 0.0;
      for (int t = 0; t < nthreads; ++t) {
        batch_loss += thread_loss[t];
        const auto& tg = thread_grads[t];
        for (std::size_t j = 0; j < np; ++j) grads[j] += tg[j];
      }
      const float inv_b = 1.0f / static_cast<float>(bsz);
      for (float& g : grads) g *= inv_b;
      nn::clip_global_norm(grads, cfg.clip_norm);
      adam.step(model.params(), grads);
      epoch_loss += batch_loss / static_cast<double>(bsz);
      ++batches;
      if (cfg.wall_clock_budget_s > 0.0 &&
          timer.seconds() > cfg.wall_clock_budget_s) {
        report.budget_exhausted = true;
        break;
      }
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    report.epoch_loss.push_back(epoch_loss);
    if (!val.empty()) {
      report.validation_loss.push_back(mean_residual_loss(model, val));
      scheduler.observe(report.validation_loss.back(), adam);
    } else {
      scheduler.observe(epoch_loss, adam);
    }
    ++report.epochs_run;
    if (cfg.verbose) {
      std::printf("  epoch %3d  train %.5f%s  lr %.2e  (%.1fs)\n", epoch,
                  epoch_loss,
                  val.empty() ? ""
                              : ("  val " +
                                 std::to_string(report.validation_loss.back()))
                                    .c_str(),
                  adam.learning_rate(), timer.seconds());
      std::fflush(stdout);
    }
    if (report.budget_exhausted) break;
  }
  report.seconds = timer.seconds();
  return report;
}

double mean_residual_loss(const DssModel& model,
                          const std::vector<GraphSample>& samples) {
  if (samples.empty()) return 0.0;
  const int nthreads = num_threads();
  std::vector<DssWorkspace> ws(nthreads);
  std::vector<double> acc(nthreads, 0.0);
#pragma omp parallel for schedule(static) num_threads(nthreads)
  for (long i = 0; i < static_cast<long>(samples.size()); ++i) {
    const int tid = omp_get_thread_num();
    acc[tid] += model.final_residual_loss(samples[i], ws[tid]);
  }
  double total = 0.0;
  for (const double a : acc) total += a;
  return total / static_cast<double>(samples.size());
}

}  // namespace ddmgnn::gnn
