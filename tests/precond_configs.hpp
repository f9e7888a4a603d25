// The preconditioner configurations the registry can build, for tests that
// sweep all of them: every registered name once, and each Schwarz entry (one
// that needs a decomposition) at coarse depth mg_levels 0 (one-level), 1
// (Nicolaides two-level) and 2 (smoothed-aggregation cycle). Also the served
// ddm-gnn configuration, for the tests that gate serving.
#pragma once

#include <string>
#include <vector>

#include "core/solver_session.hpp"
#include "gnn/dss_model.hpp"
#include "precond/registry.hpp"

namespace ddmgnn::test {

struct PrecondConfig {
  std::string name;
  int mg_levels = 1;

  /// "ddm-lu mg_levels=0"-style tag for assertion messages.
  std::string label() const {
    return name + " mg_levels=" + std::to_string(mg_levels);
  }
};

inline std::vector<PrecondConfig> precond_configs() {
  std::vector<PrecondConfig> out;
  for (const std::string& name : precond::preconditioner_names()) {
    if (!precond::preconditioner_traits(name).needs_decomposition) {
      out.push_back({name, 1});
      continue;
    }
    for (const int levels : {0, 1, 2}) out.push_back({name, levels});
  }
  return out;
}

/// The served ddm-gnn configuration (perfbench's serve-batch-8 sets the same
/// two knobs): adaptive refine-until-contractive setup plus fp32
/// preconditioner applies.
inline core::HybridConfig served_config(const gnn::DssModel& model) {
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";
  cfg.subdomain_target_nodes = 350;
  cfg.rel_tol = 1e-6;
  cfg.max_iterations = 500;
  cfg.track_history = false;
  cfg.model = &model;
  cfg.gnn_adaptive_refinement = true;
  cfg.precond_fp32 = true;
  return cfg;
}

}  // namespace ddmgnn::test
