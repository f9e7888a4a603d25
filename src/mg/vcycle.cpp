#include "mg/vcycle.hpp"

#include <utility>

#include "common/error.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::mg {

namespace {

// Chebyshev bounds on the D⁻¹A spectrum from the build-time power-iteration
// estimate: pad the top (the estimate approaches λmax from below), smooth
// down to λmax/30 (the hypre default ratio).
constexpr double kChebUpperPad = 1.1;
constexpr double kChebLowerRatio = 1.0 / 30.0;

}  // namespace

VCycle::VCycle(Hierarchy hierarchy, CycleConfig config)
    : h_(std::move(hierarchy)), cfg_(config) {
  DDMGNN_CHECK(h_.num_coarse_levels() >= 1 && h_.coarsest_factor != nullptr,
               "vcycle: hierarchy has no factored coarsest level");
  DDMGNN_CHECK(cfg_.smooth_steps >= 1, "vcycle: smooth_steps must be >= 1");
  for (int l = 0; l + 1 < h_.num_coarse_levels(); ++l) {
    DDMGNN_CHECK(h_.levels[l].lambda_max > 0.0,
                 "vcycle: intermediate level lacks smoother data");
  }
}

std::string VCycle::name() const {
  return cfg_.w_cycle ? "mg-wcycle" : "mg-vcycle";
}

void VCycle::smooth(const CoarseLevel& level, std::span<const double> b,
                    std::span<double> x) const {
  const std::size_t n = x.size();
  const auto& inv_diag = level.inv_diag;
  std::vector<double> res(n);
  if (cfg_.smoother == Smoother::kJacobi) {
    // Damped Jacobi with the power_iteration_damping weight 1/(1.05·λ̂).
    const double d = 1.0 / (1.05 * level.lambda_max);
    for (int step = 0; step < cfg_.smooth_steps; ++step) {
      level.A.multiply(x, res);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += d * inv_diag[i] * (b[i] - res[i]);
      }
    }
    return;
  }
  // Chebyshev polynomial of degree smooth_steps on [λmax/30, 1.1·λ̂].
  const double lmax = kChebUpperPad * level.lambda_max;
  const double lmin = kChebLowerRatio * lmax;
  const double theta = 0.5 * (lmax + lmin);
  const double delta = 0.5 * (lmax - lmin);
  const double sigma = theta / delta;
  double rho = 1.0 / sigma;
  std::vector<double> d(n);
  level.A.multiply(x, res);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = inv_diag[i] * (b[i] - res[i]) / theta;
  }
  for (int k = 0;; ++k) {
    for (std::size_t i = 0; i < n; ++i) x[i] += d[i];
    if (k + 1 >= cfg_.smooth_steps) break;
    level.A.multiply(x, res);
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    const double c1 = rho_next * rho;
    const double c2 = 2.0 * rho_next / delta;
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = c1 * d[i] + c2 * inv_diag[i] * (b[i] - res[i]);
    }
    rho = rho_next;
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
  if (cfg_.w_cycle && lvl + 1 != last) {
    std::vector<double> rc2(nc), ec2(nc);
    child.A.multiply(ec, rc2);
    for (std::size_t i = 0; i < nc; ++i) rc2[i] = rc[i] - rc2[i];
    cycle(lvl + 1, rc2, ec2);
    for (std::size_t i = 0; i < nc; ++i) ec[i] += ec2[i];
  }
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
