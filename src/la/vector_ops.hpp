// BLAS-1 style kernels on contiguous double vectors, OpenMP-parallel above a
// size threshold. These are the inner kernels of every Krylov iteration
// (Algorithm 1 of the paper), so they are kept allocation-free.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ddmgnn::la {

inline constexpr long kParallelThreshold = 8192;

/// <x, y>. Run-to-run deterministic at every thread count: above the
/// threshold each thread sums its contiguous block of the schedule(static)
/// split and the partials are added in thread order (a reduction clause adds
/// them in arrival order, which varies between runs at 3+ threads). At 1 and
/// 2 threads this is bit for bit the reduction's result.
inline double dot(std::span<const double> x, std::span<const double> y) {
  DDMGNN_CHECK(x.size() == y.size(), "dot: size mismatch");
  const long n = static_cast<long>(x.size());
  double acc = 0.0;
  if (n < kParallelThreshold || num_threads() == 1) {
    for (long i = 0; i < n; ++i) acc += x[i] * y[i];
    return acc;
  }
  constexpr int kMaxTeam = 256;
  double partial[kMaxTeam] = {};
  int team = 1;
#pragma omp parallel num_threads(std::min(num_threads(), kMaxTeam))
  {
    const long t = omp_get_num_threads();
    const long id = omp_get_thread_num();
    // schedule(static): the first n mod t threads take one extra entry.
    const long begin = id * (n / t) + std::min(id, n % t);
    const long end = begin + n / t + (id < n % t ? 1 : 0);
    double s = 0.0;
    for (long i = begin; i < end; ++i) s += x[i] * y[i];
    partial[id] = s;
    if (id == 0) team = static_cast<int>(t);
  }
  for (int i = 0; i < team; ++i) acc += partial[i];
  return acc;
}

/// ||x||_2
inline double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

/// ||x||_inf
inline double norm_inf(std::span<const double> x) {
  double m = 0.0;
  for (const double v : x) m = std::max(m, std::abs(v));
  return m;
}

/// y += a * x
inline void axpy(double a, std::span<const double> x, std::span<double> y) {
  DDMGNN_CHECK(x.size() == y.size(), "axpy: size mismatch");
  const long n = static_cast<long>(x.size());
  parallel_for(n, [&](long i) { y[i] += a * x[i]; }, kParallelThreshold);
}

/// y = x + a * y   (the p-update of CG)
inline void xpay(std::span<const double> x, double a, std::span<double> y) {
  DDMGNN_CHECK(x.size() == y.size(), "xpay: size mismatch");
  const long n = static_cast<long>(x.size());
  parallel_for(n, [&](long i) { y[i] = x[i] + a * y[i]; }, kParallelThreshold);
}

/// w = a*x + b*y
inline void waxpby(double a, std::span<const double> x, double b,
                   std::span<const double> y, std::span<double> w) {
  DDMGNN_CHECK(x.size() == y.size() && x.size() == w.size(),
               "waxpby: size mismatch");
  const long n = static_cast<long>(x.size());
  parallel_for(n, [&](long i) { w[i] = a * x[i] + b * y[i]; },
               kParallelThreshold);
}

/// x *= a
inline void scale(double a, std::span<double> x) {
  const long n = static_cast<long>(x.size());
  parallel_for(n, [&](long i) { x[i] *= a; }, kParallelThreshold);
}

inline void fill(std::span<double> x, double v) {
  const long n = static_cast<long>(x.size());
  parallel_for(n, [&](long i) { x[i] = v; }, kParallelThreshold);
}

inline void copy(std::span<const double> src, std::span<double> dst) {
  DDMGNN_CHECK(src.size() == dst.size(), "copy: size mismatch");
  const long n = static_cast<long>(src.size());
  parallel_for(n, [&](long i) { dst[i] = src[i]; }, kParallelThreshold);
}

/// dst = double(float(src)) — demote every entry through fp32. This is the
/// mixed-precision seam of the Krylov drivers: the residual handed to the
/// preconditioner and the correction it returns are rounded to fp32 while
/// the outer recurrences stay fp64. src and dst may alias.
inline void round_to_float(std::span<const double> src, std::span<double> dst) {
  DDMGNN_CHECK(src.size() == dst.size(), "round_to_float: size mismatch");
  const long n = static_cast<long>(src.size());
  parallel_for(
      n,
      [&](long i) { dst[i] = static_cast<double>(static_cast<float>(src[i])); },
      kParallelThreshold);
}

/// ||x - y||_2
inline double dist2(std::span<const double> x, std::span<const double> y) {
  DDMGNN_CHECK(x.size() == y.size(), "dist2: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace ddmgnn::la
