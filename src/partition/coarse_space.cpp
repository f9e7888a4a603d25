#include "partition/coarse_space.hpp"

#include "common/error.hpp"

namespace ddmgnn::partition {

NicolaidesCoarseSpace::NicolaidesCoarseSpace(const la::CsrMatrix& a,
                                             const Decomposition& dec)
    : dec_(&dec) {
  const Index n = a.rows();
  DDMGNN_CHECK(n == dec.num_nodes(), "coarse space: size mismatch");
  const Index k = dec.num_parts;

  // Node -> (part, weight) membership lists (CSR over nodes). Weight is the
  // partition-of-unity value 1/multiplicity — identical for every membership
  // of a node.
  node_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& nodes : dec.subdomains) {
    for (const Index v : nodes) ++node_ptr_[v + 1];
  }
  for (Index v = 0; v < n; ++v) node_ptr_[v + 1] += node_ptr_[v];
  node_part_.resize(node_ptr_[n]);
  node_weight_.resize(node_ptr_[n]);
  {
    std::vector<Offset> cursor(node_ptr_.begin(), node_ptr_.end() - 1);
    for (Index p = 0; p < k; ++p) {
      for (const Index v : dec.subdomains[p]) {
        const Offset dst = cursor[v]++;
        node_part_[dst] = p;
        node_weight_[dst] = dec.inv_multiplicity[v];
      }
    }
  }

  // Coarse operator: single sweep over A's nonzeros,
  //   C[i][j] += w_i(p) · A(p,q) · w_j(q) for all memberships (i of p, j of q).
  coarse_ = la::DenseMatrix(k, k, 0.0);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  for (Index p = 0; p < n; ++p) {
    for (Offset e = rp[p]; e < rp[p + 1]; ++e) {
      const Index q = ci[e];
      const double v = va[e];
      for (Offset mp = node_ptr_[p]; mp < node_ptr_[p + 1]; ++mp) {
        const double wi = node_weight_[mp] * v;
        const Index i = node_part_[mp];
        for (Offset mq = node_ptr_[q]; mq < node_ptr_[q + 1]; ++mq) {
          coarse_(i, node_part_[mq]) += wi * node_weight_[mq];
        }
      }
    }
  }
  factor_ = std::make_unique<la::DenseCholesky>(coarse_);
}

std::vector<double> NicolaidesCoarseSpace::restrict_residual(
    std::span<const double> r) const {
  const Index n = dec_->num_nodes();
  DDMGNN_CHECK(r.size() == static_cast<std::size_t>(n),
               "coarse restrict: size");
  std::vector<double> rc(dec_->num_parts, 0.0);
  for (Index v = 0; v < n; ++v) {
    for (Offset m = node_ptr_[v]; m < node_ptr_[v + 1]; ++m) {
      rc[node_part_[m]] += node_weight_[m] * r[v];
    }
  }
  return rc;
}

void NicolaidesCoarseSpace::apply_add(std::span<const double> r,
                                      std::span<double> z) const {
  std::vector<double> rc = restrict_residual(r);
  factor_->solve_inplace(rc);
  const Index n = dec_->num_nodes();
  for (Index v = 0; v < n; ++v) {
    double acc = 0.0;
    for (Offset m = node_ptr_[v]; m < node_ptr_[v + 1]; ++m) {
      acc += node_weight_[m] * rc[node_part_[m]];
    }
    z[v] += acc;
  }
}

std::size_t NicolaidesCoarseSpace::memory_bytes() const {
  return dense_factor_bytes() +
         static_cast<std::size_t>(coarse_.rows()) * coarse_.cols() *
             sizeof(double) +
         node_ptr_.size() * sizeof(Offset) +
         node_part_.size() * sizeof(Index) +
         node_weight_.size() * sizeof(double);
}

std::size_t NicolaidesCoarseSpace::dense_factor_bytes() const {
  const auto k = static_cast<std::size_t>(dec_->num_parts);
  return k * k * sizeof(double);  // the Cholesky factor of R0 A R0ᵀ
}

}  // namespace ddmgnn::partition
