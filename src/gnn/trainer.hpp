// Physics-informed training loop for the DSS model (paper §IV-B): Adam with
// lr 1e-2, batch training with global-norm gradient clipping, and a
// ReduceLROnPlateau schedule. Batches are data-parallel across OpenMP threads
// with per-thread gradient buffers, statically scheduled and reduced in thread
// order, so a fixed seed and thread count give bitwise identical training.
//
// Because this repository trains on CPUs instead of the paper's 2×P100, the
// trainer accepts a wall-clock budget: it stops at min(epochs, budget) and
// reports what it did.
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"

namespace ddmgnn::gnn {

struct TrainConfig {
  int epochs = 40;
  int batch_size = 100;          // paper: 100
  double learning_rate = 1e-2;   // paper: 1e-2
  double clip_norm = 1e-2;       // paper: gradient clipping 1e-2
  double plateau_factor = 0.1;   // paper: ReduceLROnPlateau, factor 0.1
  int plateau_patience = 8;
  double wall_clock_budget_s = 0.0;  // 0 = unlimited
  std::uint64_t seed = 0;
  bool verbose = false;
};

struct TrainReport {
  std::vector<double> epoch_loss;       // mean training loss per epoch
  std::vector<double> validation_loss;  // final-decode L_res on val set
  int epochs_run = 0;
  double seconds = 0.0;
  bool budget_exhausted = false;
};

/// Train `model` in place on `train` (validating on `val`, may be empty).
TrainReport train_dss(DssModel& model, const std::vector<GraphSample>& train,
                      const std::vector<GraphSample>& val,
                      const TrainConfig& cfg);

/// Mean final-decode residual loss over a dataset (lower is better).
double mean_residual_loss(const DssModel& model,
                          const std::vector<GraphSample>& samples);

}  // namespace ddmgnn::gnn
