#include "mg/vcycle.hpp"

#include <utility>

#include "common/error.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::mg {

VCycle::VCycle(Hierarchy hierarchy) : h_(std::move(hierarchy)) {
  DDMGNN_CHECK(h_.num_coarse_levels() >= 1 && h_.coarsest_factor != nullptr,
               "vcycle: hierarchy has no factored coarsest level");
  for (int l = 0; l + 1 < h_.num_coarse_levels(); ++l) {
    DDMGNN_CHECK(h_.levels[l].lambda_max > 0.0,
                 "vcycle: intermediate level lacks smoother data");
  }
}

void VCycle::smooth(const CoarseLevel& level, std::span<const double> b,
                    std::span<double> x) {
  // Damped Jacobi with the power_iteration_damping weight 1/(1.05·λ̂).
  const std::size_t n = x.size();
  const double d = 1.0 / (1.05 * level.lambda_max);
  std::vector<double> res(n);
  level.A.multiply(x, res);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += d * level.inv_diag[i] * (b[i] - res[i]);
  }
}

void VCycle::cycle(int lvl, std::span<const double> r,
                   std::span<double> e) const {
  const int last = h_.num_coarse_levels() - 1;
  if (lvl == last) {
    obs::Span sp("mg.coarse_solve");
    sp.arg("level", static_cast<double>(lvl + 1));
    la::copy(r, e);
    h_.coarsest_factor->solve_inplace(e);
    return;
  }
  obs::Span sp("mg.level");
  sp.arg("level", static_cast<double>(lvl + 1));
  const CoarseLevel& level = h_.levels[lvl];
  const CoarseLevel& child = h_.levels[lvl + 1];
  const std::size_t n = e.size();

  la::fill(e, 0.0);
  smooth(level, r, e);

  std::vector<double> res(n);
  level.A.multiply(e, res);
  for (std::size_t i = 0; i < n; ++i) res[i] = r[i] - res[i];

  const std::size_t nc = static_cast<std::size_t>(child.A.rows());
  std::vector<double> rc(nc), ec(nc);
  child.R.multiply(res, rc);
  cycle(lvl + 1, rc, ec);
  child.P.multiply(ec, res);  // reuse res as the prolonged correction
  for (std::size_t i = 0; i < n; ++i) e[i] += res[i];

  smooth(level, r, e);
}

void VCycle::apply_add(std::span<const double> r, std::span<double> z) const {
  obs::Span sp("mg.cycle");
  sp.arg("levels", static_cast<double>(h_.num_coarse_levels()));
  const std::size_t n = r.size();
  DDMGNN_CHECK(n == static_cast<std::size_t>(h_.fine_rows) && z.size() == n,
               "vcycle apply_add: size mismatch");
  const CoarseLevel& top = h_.levels[0];
  const std::size_t n0 = static_cast<std::size_t>(top.A.rows());
  std::vector<double> rc(n0), e(n0);
  top.R.multiply(r, rc);
  cycle(0, rc, e);
  std::vector<double> corr(n);
  top.P.multiply(e, corr);
  for (std::size_t i = 0; i < n; ++i) z[i] += corr[i];
}

}  // namespace ddmgnn::mg
