#include "gnn/metrics.hpp"

#include <cmath>
#include <map>
#include <memory>

#include "common/parallel.hpp"
#include "la/skyline_cholesky.hpp"
#include "la/vector_ops.hpp"

namespace ddmgnn::gnn {

DssMetrics evaluate_dss(const DssModel& model,
                        const std::vector<GraphSample>& samples) {
  DssMetrics out;
  out.num_samples = samples.size();
  if (samples.empty()) return out;

  // Factor each distinct topology once (serial pass; factors are shared).
  std::map<const GraphTopology*, std::shared_ptr<la::SkylineCholesky>> factors;
  for (const auto& s : samples) {
    auto& f = factors[s.topo.get()];
    if (!f) f = std::make_shared<la::SkylineCholesky>(s.topo->a_local);
  }

  std::vector<double> residuals(samples.size());
  std::vector<double> rel_errors(samples.size());
  // Pack the frozen weights once for every sample and thread (the same bits
  // as packing per call).
  DssPackedWeights packed;
  model.pack_weights(packed);
  const int nthreads = num_threads();
  std::vector<DssWorkspace> ws(nthreads);
#pragma omp parallel for schedule(dynamic, 1) num_threads(nthreads)
  for (long i = 0; i < static_cast<long>(samples.size()); ++i) {
    const int tid = omp_get_thread_num();
    const GraphSample& s = samples[i];
    std::vector<float> pred;
    model.forward(s, &packed, ws[tid], pred);
    // RMS residual sqrt(L_res) = ‖A r̂ − c‖₂ / √n — the paper's "Residual"
    // scale in Table II (inputs are normalized, ‖c‖₂ = 1).
    std::vector<double> pred_d(pred.begin(), pred.end());
    std::vector<double> ar = s.topo->a_local.apply(pred_d);
    double acc = 0.0;
    for (std::size_t j = 0; j < ar.size(); ++j) {
      const double r = ar[j] - s.rhs[j];
      acc += r * r;
    }
    residuals[i] = std::sqrt(acc / static_cast<double>(ar.size()));
    // Relative error against the exact local solve.
    const auto exact = factors.at(s.topo.get())->solve(s.rhs);
    rel_errors[i] =
        la::dist2(pred_d, exact) / std::max(1e-300, la::norm2(exact));
  }

  auto mean_std = [](const std::vector<double>& v, double& mean, double& sd) {
    mean = 0.0;
    for (const double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    sd = 0.0;
    for (const double x : v) sd += (x - mean) * (x - mean);
    sd = std::sqrt(sd / static_cast<double>(v.size()));
  };
  mean_std(residuals, out.residual_mean, out.residual_std);
  mean_std(rel_errors, out.rel_error_mean, out.rel_error_std);
  return out;
}

}  // namespace ddmgnn::gnn
