#include "gnn/dss_kernels.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::gnn {

namespace {
constexpr long kEdgeGrain = 2048;  // per-edge kernels: rows per fork threshold
constexpr long kNodeGrain = 2048;  // per-node kernels
}  // namespace

void record_phase_profile(const DssPhaseProfile& prof, std::int64_t start_ns,
                          std::int64_t end_ns) {
  if (obs::metrics_enabled()) {
    static obs::Gauge& projection =
        obs::Registry::instance().gauge("dss.projection_seconds");
    static obs::Gauge& gather =
        obs::Registry::instance().gauge("dss.gather_seconds");
    static obs::Gauge& aggregate =
        obs::Registry::instance().gauge("dss.aggregate_seconds");
    static obs::Gauge& update =
        obs::Registry::instance().gauge("dss.update_seconds");
    static obs::Gauge& decode =
        obs::Registry::instance().gauge("dss.decode_seconds");
    projection.add(prof.projection);
    gather.add(prof.gather);
    aggregate.add(prof.aggregate);
    update.add(prof.update);
    decode.add(prof.decode);
  }
  if (!obs::trace_enabled()) return;
  obs::emit_span("dss.forward", start_ns, end_ns - start_ns);
  // The phases are measured independently and the loop interleaves them, so
  // the children are synthesized end-to-end from the forward's start: their
  // positions are schematic, their durations exact.
  struct Child {
    const char* name;
    double seconds;
  };
  const Child children[] = {{"dss.projection", prof.projection},
                            {"dss.gather", prof.gather},
                            {"dss.aggregate", prof.aggregate},
                            {"dss.update", prof.update},
                            {"dss.decode", prof.decode}};
  std::int64_t at = start_ns;
  for (const Child& c : children) {
    const auto dur = static_cast<std::int64_t>(c.seconds * 1e9);
    if (dur <= 0) continue;
    obs::emit_span(c.name, at, dur);
    at += dur;
  }
}

void build_edge_inputs(const GraphTopology& topo, const nn::Tensor& h,
                       bool flip_direction, nn::Tensor& x) {
  const int d = h.cols;
  const Index ne = topo.num_edges();
  x.resize(ne, 2 * d + 3);
  const float sign = flip_direction ? -1.0f : 1.0f;
  for (Index e = 0; e < ne; ++e) {
    float* row = x.row(e);
    const float* hr = h.row(topo.recv[e]);
    const float* hs = h.row(topo.send[e]);
    for (int k = 0; k < d; ++k) row[k] = hr[k];
    for (int k = 0; k < d; ++k) row[d + k] = hs[k];
    const float* a = &topo.attr[static_cast<std::size_t>(e) * 3];
    row[2 * d + 0] = sign * a[0];
    row[2 * d + 1] = sign * a[1];
    row[2 * d + 2] = a[2];
  }
}

void aggregate_scatter(const GraphTopology& topo, const nn::Tensor& m,
                       Index n, nn::Tensor& phi) {
  const int d = m.cols;
  phi.resize(n, d);
  phi.zero();
  for (Index e = 0; e < topo.num_edges(); ++e) {
    float* dst = phi.row(topo.recv[e]);
    const float* src = m.row(e);
    for (int k = 0; k < d; ++k) dst[k] += src[k];
  }
}

void aggregate_segmented(const GraphTopology& topo, const nn::Tensor& m,
                         nn::Tensor& phi) {
  const Index n = topo.n;
  DDMGNN_CHECK(topo.recv_ptr.size() == static_cast<std::size_t>(n) + 1,
               "aggregate_segmented: topology not finalized "
               "(call finalize_topology)");
  const int d = m.cols;
  phi.resize(n, d);
  parallel_for(
      n,
      [&](long j) {
        float* dst = phi.row(static_cast<int>(j));
        for (int k = 0; k < d; ++k) dst[k] = 0.0f;
        const la::Offset lo = topo.recv_ptr[j];
        const la::Offset hi = topo.recv_ptr[j + 1];
        for (la::Offset idx = lo; idx < hi; ++idx) {
          const float* src = m.row(topo.recv_order[idx]);
#pragma omp simd
          for (int k = 0; k < d; ++k) dst[k] += src[k];
        }
      },
      kNodeGrain);
}

void project_attr(const GraphTopology& topo, const float* w, int ldw,
                  int col0, const float* b, float sign, int out,
                  nn::Tensor& y) {
  const Index ne = topo.num_edges();
  y.resize(ne, out);
  if (ne == 0 || out == 0) return;
  // Pre-transpose the three attr weight columns with the direction sign
  // baked into the dx/dy rows, so the edge loop is three fused
  // broadcast-multiply-adds over unit-stride outputs.
  thread_local std::vector<float> wt;
  wt.resize(static_cast<std::size_t>(3) * out);
  for (int o = 0; o < out; ++o) {
    const float* wo = w + static_cast<std::size_t>(o) * ldw + col0;
    wt[o] = sign * wo[0];
    wt[out + o] = sign * wo[1];
    wt[2 * static_cast<std::size_t>(out) + o] = wo[2];
  }
  const float* w0 = wt.data();
  const float* w1 = w0 + out;
  const float* w2 = w1 + out;
  parallel_for(
      ne,
      [&](long e) {
        const float* a = &topo.attr[static_cast<std::size_t>(e) * 3];
        const float a0 = a[0];
        const float a1 = a[1];
        const float a2 = a[2];
        float* row = y.row(static_cast<int>(e));
#pragma omp simd
        for (int o = 0; o < out; ++o) {
          row[o] = b[o] + a0 * w0[o] + a1 * w1[o] + a2 * w2[o];
        }
      },
      kEdgeGrain);
}

void gather_edge_preact(const GraphTopology& topo, const nn::Tensor& p_recv,
                        const nn::Tensor& p_send, const nn::Tensor& attr_proj,
                        nn::Tensor& e_act) {
  const Index ne = topo.num_edges();
  const int out = p_recv.cols;
  DDMGNN_ASSERT(p_send.cols == out && attr_proj.cols == out &&
                attr_proj.rows == ne);
  e_act.resize(ne, out);
  parallel_for(
      ne,
      [&](long e) {
        const float* pr = p_recv.row(topo.recv[e]);
        const float* ps = p_send.row(topo.send[e]);
        const float* ap = attr_proj.row(static_cast<int>(e));
        float* row = e_act.row(static_cast<int>(e));
#pragma omp simd
        for (int o = 0; o < out; ++o) {
          const float v = pr[o] + ps[o] + ap[o];
          row[o] = v > 0.0f ? v : 0.0f;
        }
      },
      kEdgeGrain);
}

namespace {

/// A fused loop's width: kW > 0 fixes d = h = kW at compile time, so the
/// per-row loops unroll and the accumulators stay in registers; kW = 0
/// takes the runtime value. Evaluated inside the loop bodies, so the fixed
/// widths stay constants there.
template <int kW>
constexpr int width(int runtime) {
  return kW > 0 ? kW : runtime;
}

/// The width with a fixed instantiation: the paper's d = h = 10, the shape
/// of every model the tools, examples and benchmarks solve with.
constexpr int kPaperWidth = 10;

bool paper_shape(const DssPackedWeights& w) {
  return w.latent == kPaperWidth && w.hidden == kPaperWidth;
}

template <int kW>
void project_rows(const DssPackedWeights& w, int k, const nn::Tensor& x,
                  nn::Tensor& proj) {
  const int d_rt = w.latent;
  const int h_rt = w.hidden;
  const auto& blk = w.blocks[k];
  const float* wt = blk.proj.data();
  const float* bias = blk.proj_bias.data();
  proj.resize(x.rows, 4 * h_rt);
  parallel_for(
      x.rows,
      [&](long li) {
        const int d = width<kW>(d_rt);
        const int h4 = 4 * width<kW>(h_rt);
        const auto i = static_cast<Index>(li);
        const float* hi = x.row(i);
        float fixed[kW > 0 ? 4 * kW : 1];
        float* acc = kW > 0 ? fixed : proj.row(i);
        for (int o = 0; o < h4; ++o) acc[o] = bias[o];
        for (int c = 0; c < d; ++c) {
          const float a = hi[c];
          const float* wc = wt + static_cast<std::size_t>(c) * h4;
#pragma omp simd
          for (int o = 0; o < h4; ++o) acc[o] += a * wc[o];
        }
        if (kW > 0) std::copy(acc, acc + h4, proj.row(i));
      },
      kNodeGrain);
}

template <int kW>
void edge_pass_rows(const GraphTopology& topo, const DssPackedWeights& w,
                    int k, const nn::Tensor& proj, nn::Tensor& x) {
  const int h_rt = w.hidden;
  const int s_col = w.latent + w.node_inputs;
  const float* wx = w.blocks[k].attr.data();
  const float* wy = wx + 2 * h_rt;
  const float* wd = wy + 2 * h_rt;
  parallel_for(
      topo.n,
      [&](long j) {
        const int h2 = 2 * width<kW>(h_rt);
        // The sums accumulate in the row itself: a stack accumulator here
        // invites the compiler to unroll-and-jam the edge loop into scalar,
        // branching code, several times slower.
        float* s = x.row(static_cast<Index>(j)) + s_col;
        for (int o = 0; o < h2; ++o) s[o] = 0.0f;
        // Every edge in node j's segment has recv[e] == j.
        const float* pr = proj.row(static_cast<Index>(j));
        for (la::Offset idx = topo.recv_ptr[j]; idx < topo.recv_ptr[j + 1];
             ++idx) {
          const Index e = topo.recv_order[idx];
          const float* ps = proj.row(topo.send[e]) + h2;
          const float* a = &topo.attr[static_cast<std::size_t>(e) * 3];
          const float dx = a[0];
          const float dy = a[1];
          const float dist = a[2];
#pragma omp simd
          for (int o = 0; o < h2; ++o) {
            const float v = pr[o] + ps[o] + dx * wx[o] + dy * wy[o] +
                            dist * wd[o];
            s[o] += v > 0.0f ? v : 0.0f;
          }
        }
      },
      kNodeGrain);
}

template <int kW>
void update_rows(const GraphTopology& topo, const DssPackedWeights& w, int k,
                 nn::Tensor& x, nn::Tensor& scratch) {
  const int d_rt = w.latent;
  const int h_rt = w.hidden;
  const int row_width = w.row_width();
  const auto& blk = w.blocks[k];
  const float* upd = blk.upd.data();
  const float* ub = blk.upd_bias.data();
  const float* ug = blk.upd_deg.data();
  const float* vt = blk.out.data();
  const float* vb = blk.out_bias.data();
  const float alpha = w.alpha;
  if (kW == 0) scratch.resize(topo.n, h_rt + d_rt);
  parallel_for(
      topo.n,
      [&](long j) {
        const int d = width<kW>(d_rt);
        const int h = width<kW>(h_rt);
        float* xj = x.row(static_cast<Index>(j));
        float hid_fixed[kW > 0 ? kW : 1];
        float u_fixed[kW > 0 ? kW : 1];
        float* hid = kW > 0 ? hid_fixed : scratch.row(static_cast<Index>(j));
        float* u = kW > 0 ? u_fixed : hid + h;
        // φ's deg_j·b₂ term through the folded weights; exactly 0 at deg 0.
        const auto deg =
            static_cast<float>(topo.recv_ptr[j + 1] - topo.recv_ptr[j]);
        for (int o = 0; o < h; ++o) hid[o] = ub[o] + deg * ug[o];
        for (int c = 0; c < row_width; ++c) {
          const float a = xj[c];
          const float* wc = upd + static_cast<std::size_t>(c) * h;
#pragma omp simd
          for (int o = 0; o < h; ++o) hid[o] += a * wc[o];
        }
        for (int o = 0; o < h; ++o) hid[o] = hid[o] > 0.0f ? hid[o] : 0.0f;
        for (int o = 0; o < d; ++o) u[o] = vb[o];
        for (int c = 0; c < h; ++c) {
          const float a = hid[c];
          const float* vc = vt + static_cast<std::size_t>(c) * d;
#pragma omp simd
          for (int o = 0; o < d; ++o) u[o] += a * vc[o];
        }
        for (int o = 0; o < d; ++o) xj[o] = xj[o] + alpha * u[o];
      },
      kNodeGrain);
}

}  // namespace

std::size_t DssPackedWeights::bytes() const {
  std::size_t floats = 0;
  for (const Block& b : blocks) {
    for (const auto* v : {&b.proj, &b.proj_bias, &b.attr, &b.upd,
                          &b.upd_bias, &b.upd_deg, &b.out, &b.out_bias}) {
      floats += v->size();
    }
  }
  return floats * sizeof(float);
}

void dss_project(const DssPackedWeights& w, int k, const nn::Tensor& x,
                 nn::Tensor& proj) {
  DDMGNN_ASSERT(x.cols == w.row_width());
  if (paper_shape(w)) {
    project_rows<kPaperWidth>(w, k, x, proj);
  } else {
    project_rows<0>(w, k, x, proj);
  }
}

void dss_edge_pass(const GraphTopology& topo, const DssPackedWeights& w,
                   int k, const nn::Tensor& proj, nn::Tensor& x) {
  DDMGNN_CHECK(topo.recv_ptr.size() == static_cast<std::size_t>(topo.n) + 1,
               "dss_edge_pass: topology not finalized "
               "(call finalize_topology)");
  DDMGNN_ASSERT(proj.rows == topo.n && proj.cols == 4 * w.hidden &&
                x.rows == topo.n && x.cols == w.row_width());
  if (paper_shape(w)) {
    edge_pass_rows<kPaperWidth>(topo, w, k, proj, x);
  } else {
    edge_pass_rows<0>(topo, w, k, proj, x);
  }
}

void dss_update(const GraphTopology& topo, const DssPackedWeights& w, int k,
                nn::Tensor& x, nn::Tensor& scratch) {
  DDMGNN_ASSERT(x.rows == topo.n && x.cols == w.row_width());
  if (paper_shape(w)) {
    update_rows<kPaperWidth>(topo, w, k, x, scratch);
  } else {
    update_rows<0>(topo, w, k, x, scratch);
  }
}

}  // namespace ddmgnn::gnn
