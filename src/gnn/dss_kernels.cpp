#include "gnn/dss_kernels.hpp"

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

void fused_layer2_aggregate(const GraphTopology& topo,
                            const nn::Tensor& p_recv,
                            const nn::Tensor& p_send,
                            const nn::Tensor& attr_proj, const float* w2,
                            const float* b2, int out, nn::Tensor& phi) {
  const Index n = topo.n;
  DDMGNN_CHECK(topo.recv_ptr.size() == static_cast<std::size_t>(n) + 1,
               "fused_layer2_aggregate: topology not finalized "
               "(call finalize_topology)");
  const int hid = p_recv.cols;
  DDMGNN_ASSERT(p_send.cols == hid && attr_proj.cols == hid &&
                attr_proj.rows == topo.num_edges());
  // Per-node activation sums (n × hid). Thread-local like fused_gemm's
  // transposed weights: sized by the largest graph this thread has run, and
  // bound to a reference so that forked workers fill the caller's rows.
  thread_local nn::Tensor tls_sums;
  nn::Tensor& sums = tls_sums;
  sums.resize(n, hid);
  // Step 1: sum the ReLU'd activations over each receiver's segment.
  parallel_for(
      n,
      [&](long j) {
        float* acc = sums.row(static_cast<int>(j));
        for (int k = 0; k < hid; ++k) acc[k] = 0.0f;
        // Every edge in node j's segment has recv[e] == j.
        const float* pr = p_recv.row(static_cast<int>(j));
        for (la::Offset idx = topo.recv_ptr[j]; idx < topo.recv_ptr[j + 1];
             ++idx) {
          const Index e = topo.recv_order[idx];
          const float* ps = p_send.row(topo.send[e]);
          const float* ap = attr_proj.row(e);
#pragma omp simd
          for (int k = 0; k < hid; ++k) {
            const float v = pr[k] + ps[k] + ap[k];
            acc[k] += v > 0.0f ? v : 0.0f;
          }
        }
      },
      kNodeGrain);
  // Step 2: W₂ once per node, then deg_j·b₂. A node without incoming edges
  // has a zero sum and no bias term, so φ_j = 0.
  nn::fused_gemm(w2, hid, /*col0=*/0, out, /*b=*/nullptr, /*relu=*/false,
                 sums, phi);
  parallel_for(
      n,
      [&](long j) {
        const auto deg =
            static_cast<float>(topo.recv_ptr[j + 1] - topo.recv_ptr[j]);
        float* y = phi.row(static_cast<int>(j));
        for (int o = 0; o < out; ++o) y[o] += deg * b2[o];
      },
      kNodeGrain);
}

}  // namespace ddmgnn::gnn
