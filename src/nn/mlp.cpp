#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.hpp"

namespace ddmgnn::nn {

namespace {

/// Row count above which fused_gemm forks a thread team. Below it (small
/// subdomain graphs, per-node update MLPs) fork/join would dominate.
constexpr long kRowParallelGrain = 4096;
/// Rows handed to one worker task.
constexpr long kRowChunk = 1024;

/// One block of rows through the outer-product kernel: y[r,:] = act(x[r,:]·wt
/// (+ b)) for r in [row0, row1). Accumulators live in the output rows (unit
/// stride, simd-friendly), weights are pre-transposed to [in × out] so each
/// input scalar broadcasts against a contiguous weight row. 4-row register
/// blocking amortizes the weight-row loads; per-row results do not depend on
/// where the block boundaries fall.
void fused_gemm_rows(const float* wt, int in, int out, const float* b,
                     bool relu, const Tensor& x, Tensor& y, int row0,
                     int row1) {
  int i = row0;
  for (; i + 4 <= row1; i += 4) {
    const float* x0 = x.row(i);
    const float* x1 = x.row(i + 1);
    const float* x2 = x.row(i + 2);
    const float* x3 = x.row(i + 3);
    float* y0 = y.row(i);
    float* y1 = y.row(i + 1);
    float* y2 = y.row(i + 2);
    float* y3 = y.row(i + 3);
    if (b != nullptr) {
      for (int o = 0; o < out; ++o) {
        y0[o] = b[o];
        y1[o] = b[o];
        y2[o] = b[o];
        y3[o] = b[o];
      }
    } else {
      for (int o = 0; o < out; ++o) y0[o] = y1[o] = y2[o] = y3[o] = 0.0f;
    }
    for (int k = 0; k < in; ++k) {
      const float a0 = x0[k];
      const float a1 = x1[k];
      const float a2 = x2[k];
      const float a3 = x3[k];
      const float* wk = wt + static_cast<std::size_t>(k) * out;
#pragma omp simd
      for (int o = 0; o < out; ++o) {
        y0[o] += a0 * wk[o];
        y1[o] += a1 * wk[o];
        y2[o] += a2 * wk[o];
        y3[o] += a3 * wk[o];
      }
    }
    if (relu) {
#pragma omp simd
      for (int o = 0; o < out; ++o) {
        y0[o] = y0[o] > 0.0f ? y0[o] : 0.0f;
        y1[o] = y1[o] > 0.0f ? y1[o] : 0.0f;
        y2[o] = y2[o] > 0.0f ? y2[o] : 0.0f;
        y3[o] = y3[o] > 0.0f ? y3[o] : 0.0f;
      }
    }
  }
  for (; i < row1; ++i) {
    const float* xi = x.row(i);
    float* yi = y.row(i);
    if (b != nullptr) {
      for (int o = 0; o < out; ++o) yi[o] = b[o];
    } else {
      for (int o = 0; o < out; ++o) yi[o] = 0.0f;
    }
    for (int k = 0; k < in; ++k) {
      const float a = xi[k];
      const float* wk = wt + static_cast<std::size_t>(k) * out;
#pragma omp simd
      for (int o = 0; o < out; ++o) yi[o] += a * wk[o];
    }
    if (relu) {
#pragma omp simd
      for (int o = 0; o < out; ++o) yi[o] = yi[o] > 0.0f ? yi[o] : 0.0f;
    }
  }
}

}  // namespace

void fused_gemm(const float* w, int ldw, int col0, int out, const float* b,
                bool relu, const Tensor& x, Tensor& y) {
  const int in = x.cols;
  DDMGNN_ASSERT(col0 >= 0 && col0 + in <= ldw);
  y.resize(x.rows, out);
  if (x.rows == 0 || out == 0) return;
  // Transposed weight slice [in × out] — tiny (layer widths are O(10)), so a
  // per-call transpose is noise next to the row loop; thread_local keeps the
  // buffer alive across the thousands of calls per solve.
  thread_local std::vector<float> wt;
  wt.resize(static_cast<std::size_t>(in) * out);
  for (int o = 0; o < out; ++o) {
    const float* wo = w + static_cast<std::size_t>(o) * ldw + col0;
    for (int k = 0; k < in; ++k) wt[static_cast<std::size_t>(k) * out + o] = wo[k];
  }
  const float* wtp = wt.data();
  const long rows = x.rows;
  if (rows < kRowParallelGrain) {
    fused_gemm_rows(wtp, in, out, b, relu, x, y, 0, static_cast<int>(rows));
    return;
  }
  const long nchunks = (rows + kRowChunk - 1) / kRowChunk;
  parallel_for(
      nchunks,
      [&](long c) {
        const long r0 = c * kRowChunk;
        const long r1 = std::min(rows, r0 + kRowChunk);
        fused_gemm_rows(wtp, in, out, b, relu, x, y, static_cast<int>(r0),
                        static_cast<int>(r1));
      },
      /*grain=*/1);
}

void Linear::init_xavier(std::span<float> values, Rng& rng) const {
  const double bound = std::sqrt(6.0 / (in_ + out_));
  float* w = values.data() + w_.offset;
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
  float* b = values.data() + b_.offset;
  for (std::size_t i = 0; i < b_.size(); ++i) b[i] = 0.0f;
}

void Linear::forward(const float* params, const Tensor& x, Tensor& y) const {
  DDMGNN_ASSERT(x.cols == in_);
  y.resize(x.rows, out_);
  const float* w = params + w_.offset;
  const float* b = params + b_.offset;
  // Scalar reference kernel; the fast path lives in forward_fused.
  for (int i = 0; i < x.rows; ++i) {
    const float* xi = x.row(i);
    float* yi = y.row(i);
    for (int o = 0; o < out_; ++o) {
      const float* wo = w + static_cast<std::size_t>(o) * in_;
      float acc = b[o];
      for (int k = 0; k < in_; ++k) acc += xi[k] * wo[k];
      yi[o] = acc;
    }
  }
}

void Linear::forward_fused(const float* params, const Tensor& x, Tensor& y,
                           bool relu) const {
  DDMGNN_ASSERT(x.cols == in_);
  fused_gemm(params + w_.offset, in_, 0, out_, params + b_.offset, relu, x, y);
}

void Linear::backward(const float* params, const Tensor& x, const Tensor& dy,
                      Tensor* dx, float* grads) const {
  DDMGNN_ASSERT(x.cols == in_ && dy.cols == out_ && dy.rows == x.rows);
  const float* w = params + w_.offset;
  float* gw = grads + w_.offset;
  float* gb = grads + b_.offset;
  for (int i = 0; i < x.rows; ++i) {
    const float* xi = x.row(i);
    const float* dyi = dy.row(i);
    for (int o = 0; o < out_; ++o) {
      const float g = dyi[o];
      if (g == 0.0f) continue;
      gb[o] += g;
      float* gwo = gw + static_cast<std::size_t>(o) * in_;
      for (int k = 0; k < in_; ++k) gwo[k] += g * xi[k];
    }
  }
  if (dx != nullptr) {
    dx->resize(x.rows, in_);
    for (int i = 0; i < x.rows; ++i) {
      const float* dyi = dy.row(i);
      float* dxi = dx->row(i);
      for (int k = 0; k < in_; ++k) dxi[k] = 0.0f;
      for (int o = 0; o < out_; ++o) {
        const float g = dyi[o];
        if (g == 0.0f) continue;
        const float* wo = w + static_cast<std::size_t>(o) * in_;
        for (int k = 0; k < in_; ++k) dxi[k] += g * wo[k];
      }
    }
  }
}

void Mlp::forward(const float* params, const Tensor& x, Tensor& y,
                  Cache& cache) const {
  l1_.forward(params, x, cache.h_pre);
  cache.h_act.resize(cache.h_pre.rows, cache.h_pre.cols);
  for (std::size_t i = 0; i < cache.h_pre.size(); ++i) {
    const float v = cache.h_pre.d[i];
    cache.h_act.d[i] = v > 0.0f ? v : 0.0f;
  }
  l2_.forward(params, cache.h_act, y);
}

void Mlp::infer(const float* params, const Tensor& x, Tensor& y,
                Tensor& hidden) const {
  l1_.forward_fused(params, x, hidden, /*relu=*/true);
  l2_.forward_fused(params, hidden, y, /*relu=*/false);
}

void Mlp::backward(const float* params, const Tensor& x, const Cache& cache,
                   const Tensor& dy, Tensor* dx, float* grads) const {
  thread_local Tensor dh;  // scratch reused across calls on this thread
  l2_.backward(params, cache.h_act, dy, &dh, grads);
  // ReLU mask.
  for (std::size_t i = 0; i < dh.size(); ++i) {
    if (cache.h_pre.d[i] <= 0.0f) dh.d[i] = 0.0f;
  }
  l1_.backward(params, x, dh, dx, grads);
}

}  // namespace ddmgnn::nn
