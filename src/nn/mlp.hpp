// Linear layers and the paper's MLP shape (one hidden layer, ReLU — §IV-B)
// with hand-derived backpropagation. Forward caches live in caller-provided
// Cache objects so the same model can run on many threads concurrently.
//
// Two forward implementations coexist:
//   - forward(): the scalar reference kernel. Training runs through it (the
//     backward pass consumes its caches) and the DSS reference inference
//     path keeps it selectable for equivalence testing.
//   - forward_fused() / fused_gemm(): the register-blocked, simd-vectorized
//     inference kernel with fused bias and optional fused ReLU, row-parallel
//     above a grain threshold when called outside an OpenMP region. The DSS
//     fast engine's decoder and its three-step test oracle run on these.
//
// Conventions: X is [n × in], W is [out × in] row-major, Y = X·Wᵀ + b.
#pragma once

#include <span>

#include "common/rng.hpp"
#include "nn/param_store.hpp"
#include "nn/tensor.hpp"

namespace ddmgnn::nn {

/// Blocked micro-kernel GEMM: y[r,:] = act(x[r,:] · Wᵀ (+ b)), where W is the
/// column block [col0, col0 + x.cols) of a row-major [out × ldw] weight
/// matrix. Passing a column block lets callers apply a slice of a wider layer
/// directly to a narrower input (the factorized edge-MLP first layer) without
/// materializing the sliced matrix. `b` may be null (no bias). Rows are
/// processed in 4-row register blocks with simd accumulation over unit-stride
/// outputs, and run in parallel above a grain threshold when the caller is
/// not already inside an OpenMP region. Per-row arithmetic order is fixed, so
/// results are identical at any thread count.
void fused_gemm(const float* w, int ldw, int col0, int out, const float* b,
                bool relu, const Tensor& x, Tensor& y);

/// Fully-connected layer over a flat parameter store.
class Linear {
 public:
  Linear() = default;
  Linear(ParameterStore& store, int in, int out)
      : in_(in), out_(out), w_(store.allocate(out, in)),
        b_(store.allocate(1, out)) {}

  int in_dim() const { return in_; }
  int out_dim() const { return out_; }

  /// Raw views into the parameter store (DssModel::pack_weights reads the
  /// layers through them).
  const float* weights(const float* params) const { return params + w_.offset; }
  const float* bias(const float* params) const { return params + b_.offset; }

  /// Xavier-uniform initialization (paper §IV-B).
  void init_xavier(std::span<float> values, Rng& rng) const;

  /// Y = X Wᵀ + b — scalar reference kernel (training + reference path).
  void forward(const float* params, const Tensor& x, Tensor& y) const;

  /// Y = act(X Wᵀ + b) through the blocked micro-kernel (fused_gemm).
  void forward_fused(const float* params, const Tensor& x, Tensor& y,
                     bool relu = false) const;

  /// Given dY: dX = dY·W (if dx != nullptr), dW += dYᵀ·X, db += colsum(dY).
  void backward(const float* params, const Tensor& x, const Tensor& dy,
                Tensor* dx, float* grads) const;

 private:
  int in_ = 0;
  int out_ = 0;
  ParameterStore::Slot w_;
  ParameterStore::Slot b_;
};

/// in -> hidden -> ReLU -> out.
class Mlp {
 public:
  Mlp() = default;
  Mlp(ParameterStore& store, int in, int hidden, int out)
      : l1_(store, in, hidden), l2_(store, hidden, out) {}

  struct Cache {
    Tensor h_pre;  // pre-activation of the hidden layer
    Tensor h_act;  // ReLU output (the input of l2)
  };

  int in_dim() const { return l1_.in_dim(); }
  int out_dim() const { return l2_.out_dim(); }

  const Linear& l1() const { return l1_; }
  const Linear& l2() const { return l2_; }

  void init(std::span<float> values, Rng& rng) const {
    l1_.init_xavier(values, rng);
    l2_.init_xavier(values, rng);
  }

  void forward(const float* params, const Tensor& x, Tensor& y,
               Cache& cache) const;

  /// Inference-only forward through the fused kernels: ReLU is folded into
  /// the first GEMM and no pre-activation is kept (so it cannot feed
  /// backward()). `hidden` is caller-owned scratch reused across calls.
  void infer(const float* params, const Tensor& x, Tensor& y,
             Tensor& hidden) const;

  /// dx may be nullptr when input gradients are not needed.
  void backward(const float* params, const Tensor& x, const Cache& cache,
                const Tensor& dy, Tensor* dx, float* grads) const;

 private:
  Linear l1_;
  Linear l2_;
};

}  // namespace ddmgnn::nn
