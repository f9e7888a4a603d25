#include "gnn/dss_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "gnn/dss_kernels.hpp"

namespace ddmgnn::gnn {

DssModel::DssModel(DssConfig cfg, std::uint64_t seed) : cfg_(cfg) {
  DDMGNN_CHECK(cfg_.iterations >= 1 && cfg_.latent >= 1 && cfg_.hidden >= 1,
               "DssModel: bad config");
  blocks_.reserve(cfg_.iterations);
  for (int k = 0; k < cfg_.iterations; ++k) {
    Block b;
    b.phi_fwd = nn::Mlp(store_, cfg_.message_input_dim(), cfg_.hidden,
                        cfg_.latent);
    b.phi_bwd = nn::Mlp(store_, cfg_.message_input_dim(), cfg_.hidden,
                        cfg_.latent);
    b.psi = nn::Mlp(store_, cfg_.update_input_dim(), cfg_.hidden, cfg_.latent);
    b.dec = nn::Mlp(store_, cfg_.latent, cfg_.hidden, 1);
    blocks_.push_back(b);
  }
  store_.finalize();
  Rng rng(seed ^ 0x8BADF00DCAFEBABEull);
  for (const Block& b : blocks_) {
    b.phi_fwd.init(store_.values(), rng);
    b.phi_bwd.init(store_.values(), rng);
    b.psi.init(store_.values(), rng);
    b.dec.init(store_.values(), rng);
  }
}

void DssModel::run_forward(const GraphSample& g, DssWorkspace& ws,
                           bool keep_all_decodes) const {
  const GraphTopology& topo = *g.topo;
  const Index n = topo.n;
  const int d = cfg_.latent;
  const int in_dim = cfg_.node_input_dim();
  const float* p = store_.data();

  ws.h.resize(cfg_.iterations + 1);
  ws.iters.resize(cfg_.iterations);
  ws.h[0].resize(n, d);
  ws.h[0].zero();

  for (int k = 0; k < cfg_.iterations; ++k) {
    const Block& blk = blocks_[k];
    auto& st = ws.iters[k];
    const nn::Tensor& h = ws.h[k];

    build_edge_inputs(topo, h, /*flip=*/false, st.x_fwd);
    blk.phi_fwd.forward(p, st.x_fwd, st.m_fwd, st.c_fwd);
    aggregate_scatter(topo, st.m_fwd, n, st.phi_fwd);

    build_edge_inputs(topo, h, /*flip=*/true, st.x_bwd);
    blk.phi_bwd.forward(p, st.x_bwd, st.m_bwd, st.c_bwd);
    aggregate_scatter(topo, st.m_bwd, n, st.phi_bwd);

    // Ψ input: [h, c (, dirichlet flag), φ→, φ←].
    st.x_psi.resize(n, cfg_.update_input_dim());
    for (Index i = 0; i < n; ++i) {
      float* row = st.x_psi.row(i);
      const float* hi = h.row(i);
      for (int kk = 0; kk < d; ++kk) row[kk] = hi[kk];
      row[d] = static_cast<float>(g.rhs[i]);
      if (in_dim == 2) row[d + 1] = topo.dirichlet[i] ? 1.0f : 0.0f;
      const float* pf = st.phi_fwd.row(i);
      const float* pb = st.phi_bwd.row(i);
      for (int kk = 0; kk < d; ++kk) row[d + in_dim + kk] = pf[kk];
      for (int kk = 0; kk < d; ++kk) row[d + in_dim + d + kk] = pb[kk];
    }
    blk.psi.forward(p, st.x_psi, st.u, st.c_psi);

    ws.h[k + 1].resize(n, d);
    for (std::size_t i = 0; i < ws.h[k].size(); ++i) {
      ws.h[k + 1].d[i] = ws.h[k].d[i] + cfg_.alpha * st.u.d[i];
    }
    if (keep_all_decodes || k == cfg_.iterations - 1) {
      blk.dec.forward(p, ws.h[k + 1], st.rhat, st.c_dec);
    }
  }
}

void DssModel::pack_weights(DssPackedWeights& out) const {
  const int d = cfg_.latent;
  const int h = cfg_.hidden;
  const int nin = cfg_.node_input_dim();
  const int ldw = cfg_.message_input_dim();   // edge MLP input: 2d + 3
  const int ldpsi = cfg_.update_input_dim();  // Ψ input: d + nin + 2d
  const float* p = store_.data();
  out.latent = d;
  out.hidden = h;
  out.node_inputs = nin;
  out.alpha = cfg_.alpha;
  out.blocks.resize(cfg_.iterations);
  const auto at = [](const float* m, int ld, int r, int c) {
    return m[static_cast<std::size_t>(r) * ld + c];
  };
  for (int k = 0; k < cfg_.iterations; ++k) {
    const Block& blk = blocks_[k];
    DssPackedWeights::Block& pb = out.blocks[k];
    const nn::Mlp* phi[2] = {&blk.phi_fwd, &blk.phi_bwd};

    // Projection: column block q of the d × 4h matrix is W_recv→, W_recv←,
    // W_send→, W_send← (transposed); b₁ rides on the receiver half.
    pb.proj.assign(static_cast<std::size_t>(d) * 4 * h, 0.0f);
    pb.proj_bias.assign(static_cast<std::size_t>(4) * h, 0.0f);
    for (int dir = 0; dir < 2; ++dir) {
      const float* w1 = phi[dir]->l1().weights(p);
      const float* b1 = phi[dir]->l1().bias(p);
      for (int o = 0; o < h; ++o) {
        for (int c = 0; c < d; ++c) {
          pb.proj[static_cast<std::size_t>(c) * 4 * h + dir * h + o] =
              at(w1, ldw, o, c);
          pb.proj[static_cast<std::size_t>(c) * 4 * h + (2 + dir) * h + o] =
              at(w1, ldw, o, d + c);
        }
        pb.proj_bias[dir * h + o] = b1[o];
      }
    }

    // Attr rows [dx | dy | dist], each [Φ→ | Φ←]: Φ← sees −dx, −dy.
    pb.attr.resize(static_cast<std::size_t>(3) * 2 * h);
    for (int dir = 0; dir < 2; ++dir) {
      const float* w1 = phi[dir]->l1().weights(p);
      const float sign = dir == 0 ? 1.0f : -1.0f;
      for (int o = 0; o < h; ++o) {
        pb.attr[dir * h + o] = sign * at(w1, ldw, o, 2 * d);
        pb.attr[2 * h + dir * h + o] = sign * at(w1, ldw, o, 2 * d + 1);
        pb.attr[4 * h + dir * h + o] = at(w1, ldw, o, 2 * d + 2);
      }
    }

    // Ψ layer 1 over [h | c | flag | S→ | S←]: the h and node-input columns
    // as they are, the message columns folded through each direction's W₂
    // (Wψ_φ·W₂, composed in double), and deg_j's weight Σ Wψ_φ·b₂.
    const float* wpsi = blk.psi.l1().weights(p);
    const int width = d + nin + 2 * h;
    pb.upd.resize(static_cast<std::size_t>(width) * h);
    pb.upd_deg.resize(h);
    for (int o = 0; o < h; ++o) {
      for (int c = 0; c < d + nin; ++c) {
        pb.upd[static_cast<std::size_t>(c) * h + o] = at(wpsi, ldpsi, o, c);
      }
      double deg_term = 0.0;
      for (int dir = 0; dir < 2; ++dir) {
        const float* w2 = phi[dir]->l2().weights(p);  // d × h
        const float* b2 = phi[dir]->l2().bias(p);
        const int phi_col = d + nin + dir * d;
        for (int m = 0; m < h; ++m) {
          double acc = 0.0;
          for (int q = 0; q < d; ++q) {
            acc += static_cast<double>(at(wpsi, ldpsi, o, phi_col + q)) *
                   static_cast<double>(at(w2, h, q, m));
          }
          const int c = d + nin + dir * h + m;
          pb.upd[static_cast<std::size_t>(c) * h + o] =
              static_cast<float>(acc);
        }
        for (int q = 0; q < d; ++q) {
          deg_term += static_cast<double>(at(wpsi, ldpsi, o, phi_col + q)) *
                      static_cast<double>(b2[q]);
        }
      }
      pb.upd_deg[o] = static_cast<float>(deg_term);
    }
    const float* bpsi = blk.psi.l1().bias(p);
    pb.upd_bias.assign(bpsi, bpsi + h);

    // Ψ layer 2, transposed to h × d.
    const float* wout = blk.psi.l2().weights(p);
    pb.out.resize(static_cast<std::size_t>(h) * d);
    for (int o = 0; o < d; ++o) {
      for (int c = 0; c < h; ++c) {
        pb.out[static_cast<std::size_t>(c) * d + o] = at(wout, h, o, c);
      }
    }
    const float* bout = blk.psi.l2().bias(p);
    pb.out_bias.assign(bout, bout + d);
  }
}

void DssModel::run_forward_fast(const GraphSample& g,
                                const DssPackedWeights& w, DssWorkspace& ws,
                                DssPhaseProfile* profile) const {
  const GraphTopology& topo = *g.topo;
  DDMGNN_CHECK(topo.recv_ptr.size() == static_cast<std::size_t>(topo.n) + 1,
               "DssModel: fast inference requires a finalized topology "
               "(finalize_topology builds the receiver-CSR index)");
  DDMGNN_CHECK(w.blocks.size() == static_cast<std::size_t>(cfg_.iterations) &&
                   w.latent == cfg_.latent && w.hidden == cfg_.hidden &&
                   w.node_inputs == cfg_.node_input_dim(),
               "DssModel: packed weights do not match the model's shape");
  const Index n = topo.n;
  const int d = cfg_.latent;
  const int nin = cfg_.node_input_dim();
  auto& f = ws.fast;

  Timer phase_timer;
  auto tic = [&] {
    if (profile != nullptr) phase_timer.reset();
  };
  auto toc = [&](double DssPhaseProfile::*slot) {
    if (profile != nullptr) profile->*slot += phase_timer.seconds();
  };

  // Node rows [h | c | flag | S→ | S←]: H⁰ = 0 and the node inputs are fixed
  // for the whole forward; every edge pass rewrites S before its update.
  tic();
  f.x.resize(n, w.row_width());
  for (Index i = 0; i < n; ++i) {
    float* row = f.x.row(i);
    for (int c = 0; c < d; ++c) row[c] = 0.0f;
    row[d] = static_cast<float>(g.rhs[i]);
    if (nin == 2) row[d + 1] = topo.dirichlet[i] ? 1.0f : 0.0f;
  }
  toc(&DssPhaseProfile::update);

  for (int k = 0; k < cfg_.iterations; ++k) {
    tic();
    if (k == 0) {
      // H⁰ = 0 ⇒ every projection row is just the bias.
      const std::vector<float>& bias = w.blocks[0].proj_bias;
      f.proj.resize(n, static_cast<int>(bias.size()));
      for (Index i = 0; i < n; ++i) {
        std::copy(bias.begin(), bias.end(), f.proj.row(i));
      }
    } else {
      dss_project(w, k, f.x, f.proj);
    }
    toc(&DssPhaseProfile::projection);

    tic();
    dss_edge_pass(topo, w, k, f.proj, f.x);
    toc(&DssPhaseProfile::aggregate);

    tic();
    dss_update(topo, w, k, f.x, f.scratch);
    toc(&DssPhaseProfile::update);
  }

  tic();
  f.h.resize(n, d);
  for (Index i = 0; i < n; ++i) {
    std::copy(f.x.row(i), f.x.row(i) + d, f.h.row(i));
  }
  blocks_.back().dec.infer(store_.data(), f.h, f.rhat, f.hidden);
  toc(&DssPhaseProfile::decode);
}

void DssModel::forward(const GraphSample& g, const DssPackedWeights* packed,
                       DssWorkspace& ws, std::vector<float>& out,
                       DssPhaseProfile* profile) const {
  if (cfg_.fast_inference) {
    if (packed == nullptr) {
      pack_weights(ws.fast.packed);
      packed = &ws.fast.packed;
    }
    run_forward_fast(g, *packed, ws, profile);
    out.assign(ws.fast.rhat.d.begin(), ws.fast.rhat.d.end());
    return;
  }
  run_forward(g, ws, /*keep_all_decodes=*/false);
  const nn::Tensor& rhat = ws.iters.back().rhat;
  out.assign(rhat.d.begin(), rhat.d.end());
}

void DssModel::forward(const GraphSample& g, DssWorkspace& ws,
                       std::vector<float>& out) const {
  forward(g, /*packed=*/nullptr, ws, out, /*profile=*/nullptr);
}

double DssModel::residual_loss(const GraphTopology& topo,
                               std::span<const double> rhs,
                               const nn::Tensor& rhat,
                               std::vector<double>& residual) const {
  const Index n = topo.n;
  residual.resize(n);
  const auto rp = topo.a_local.row_ptr();
  const auto ci = topo.a_local.col_idx();
  const auto va = topo.a_local.values();
  double loss = 0.0;
  for (Index i = 0; i < n; ++i) {
    double acc = -rhs[i];
    for (la::Offset e = rp[i]; e < rp[i + 1]; ++e) {
      acc += va[e] * static_cast<double>(rhat.d[ci[e]]);
    }
    residual[i] = acc;
    loss += acc * acc;
  }
  return loss / static_cast<double>(n);
}

double DssModel::final_residual_loss(const GraphSample& g,
                                     DssWorkspace& ws) const {
  run_forward(g, ws, /*keep_all_decodes=*/false);
  std::vector<double> residual;
  return residual_loss(*g.topo, g.rhs, ws.iters.back().rhat, residual);
}

double DssModel::loss_and_gradient(const GraphSample& g, DssWorkspace& ws,
                                   float* grads) const {
  const GraphTopology& topo = *g.topo;
  const Index n = topo.n;
  const int d = cfg_.latent;
  const int in_dim = cfg_.node_input_dim();
  const float* p = store_.data();

  run_forward(g, ws, /*keep_all_decodes=*/true);

  // Forward losses (also caches residual vectors for the backward pass).
  double total_loss = 0.0;
  for (int k = 0; k < cfg_.iterations; ++k) {
    total_loss +=
        residual_loss(topo, g.rhs, ws.iters[k].rhat, ws.iters[k].residual);
  }

  // Reverse sweep. dh holds ∂L/∂H^{k+1} entering iteration k.
  ws.dh.resize(n, d);
  ws.dh.zero();
  for (int k = cfg_.iterations - 1; k >= 0; --k) {
    const Block& blk = blocks_[k];
    auto& st = ws.iters[k];

    // Loss at decode k: dL/dr̂ = (2/n)·Aᵀ·residual, then through the decoder
    // into dh (gradients w.r.t. H^{k+1}).
    {
      std::vector<double> at_res(n, 0.0);
      const auto rp = topo.a_local.row_ptr();
      const auto ci = topo.a_local.col_idx();
      const auto va = topo.a_local.values();
      for (Index i = 0; i < n; ++i) {
        const double ri = st.residual[i];
        for (la::Offset e = rp[i]; e < rp[i + 1]; ++e) {
          at_res[ci[e]] += va[e] * ri;
        }
      }
      ws.drhat.resize(n, 1);
      const double scale = 2.0 / static_cast<double>(n);
      for (Index i = 0; i < n; ++i) {
        ws.drhat.d[i] = static_cast<float>(scale * at_res[i]);
      }
      nn::Tensor dh_dec;
      blk.dec.backward(p, ws.h[k + 1], st.c_dec, ws.drhat, &dh_dec, grads);
      for (std::size_t i = 0; i < ws.dh.size(); ++i) {
        ws.dh.d[i] += dh_dec.d[i];
      }
    }

    // ResNet split: H^{k+1} = H^k + α U ⇒ dU = α·dh, identity part -> dh_next.
    ws.du.resize(n, d);
    for (std::size_t i = 0; i < ws.du.size(); ++i) {
      ws.du.d[i] = cfg_.alpha * ws.dh.d[i];
    }
    ws.dh_next = ws.dh;  // identity path

    // Ψ backward.
    blk.psi.backward(p, st.x_psi, st.c_psi, ws.du, &ws.dx_psi, grads);
    // Slice dx_psi = [dH | dc(,dflag) | dφ→ | dφ←].
    ws.dphi_fwd.resize(n, d);
    ws.dphi_bwd.resize(n, d);
    for (Index i = 0; i < n; ++i) {
      const float* row = ws.dx_psi.row(i);
      float* dhn = ws.dh_next.row(i);
      for (int kk = 0; kk < d; ++kk) dhn[kk] += row[kk];
      float* df = ws.dphi_fwd.row(i);
      float* db = ws.dphi_bwd.row(i);
      for (int kk = 0; kk < d; ++kk) df[kk] = row[d + in_dim + kk];
      for (int kk = 0; kk < d; ++kk) db[kk] = row[d + in_dim + d + kk];
    }

    // Message MLPs backward: dM[e] = dφ[recv[e]]; input grads flow to both
    // endpoint latent states.
    const Index ne = topo.num_edges();
    for (const bool flip : {false, true}) {
      const nn::Tensor& dphi = flip ? ws.dphi_bwd : ws.dphi_fwd;
      const nn::Tensor& x_edge = flip ? st.x_bwd : st.x_fwd;
      const nn::Mlp::Cache& cache = flip ? st.c_bwd : st.c_fwd;
      const nn::Mlp& mlp = flip ? blk.phi_bwd : blk.phi_fwd;
      ws.dm.resize(ne, d);
      for (Index e = 0; e < ne; ++e) {
        const float* src = dphi.row(topo.recv[e]);
        float* dst = ws.dm.row(e);
        for (int kk = 0; kk < d; ++kk) dst[kk] = src[kk];
      }
      mlp.backward(p, x_edge, cache, ws.dm, &ws.dx_edge, grads);
      for (Index e = 0; e < ne; ++e) {
        const float* row = ws.dx_edge.row(e);
        float* dr = ws.dh_next.row(topo.recv[e]);
        float* dsnd = ws.dh_next.row(topo.send[e]);
        for (int kk = 0; kk < d; ++kk) dr[kk] += row[kk];
        for (int kk = 0; kk < d; ++kk) dsnd[kk] += row[d + kk];
      }
    }
    std::swap(ws.dh, ws.dh_next);
  }
  return total_loss;
}

}  // namespace ddmgnn::gnn
