// The preconditioner configurations the registry can build, for tests that
// sweep all of them: every registered name once, and each Schwarz entry (one
// that needs a decomposition) at coarse depth mg_levels 0 (one-level), 1
// (Nicolaides two-level) and 2 (smoothed-aggregation cycle).
#pragma once

#include <string>
#include <vector>

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

}  // namespace ddmgnn::test
