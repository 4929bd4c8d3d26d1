// Typed property graph: the parallel trainer's Fig-4 graph storage. Edges
// carry user-defined data blobs, mirroring distributed GraphLab's graph
// storage (Low et al., PVLDB 2012); vertices are bare ids.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace cold::engine {

using VertexId = int32_t;
using EdgeId = int64_t;

/// \brief Directed multigraph over vertices [0, num_vertices) whose edges
/// each own an EData payload.
///
/// AddEdge must finish before Finalize(); afterwards the structure is
/// immutable but payloads stay mutable — exactly what a Gibbs sweep needs
/// (fixed topology, evolving latent state).
template <typename EData>
class PropertyGraph {
 public:
  explicit PropertyGraph(int32_t num_vertices) : num_vertices_(num_vertices) {}

  /// Adds a directed edge src->dst with payload `data`; returns its id.
  EdgeId AddEdge(VertexId src, VertexId dst, EData data) {
    assert(!finalized_);
    assert(src >= 0 && src < num_vertices());
    assert(dst >= 0 && dst < num_vertices());
    src_.push_back(src);
    dst_.push_back(dst);
    edge_data_.push_back(std::move(data));
    return static_cast<EdgeId>(src_.size() - 1);
  }

  /// \brief Freezes topology and builds incidence indexes.
  void Finalize() {
    assert(!finalized_);
    size_t n = static_cast<size_t>(num_vertices_);
    out_offsets_.assign(n + 1, 0);
    in_offsets_.assign(n + 1, 0);
    for (size_t e = 0; e < src_.size(); ++e) {
      out_offsets_[static_cast<size_t>(src_[e]) + 1]++;
      in_offsets_[static_cast<size_t>(dst_[e]) + 1]++;
    }
    for (size_t i = 1; i <= n; ++i) {
      out_offsets_[i] += out_offsets_[i - 1];
      in_offsets_[i] += in_offsets_[i - 1];
    }
    out_edges_.resize(src_.size());
    in_edges_.resize(src_.size());
    std::vector<int64_t> oc(out_offsets_.begin(), out_offsets_.end() - 1);
    std::vector<int64_t> ic(in_offsets_.begin(), in_offsets_.end() - 1);
    for (size_t e = 0; e < src_.size(); ++e) {
      out_edges_[static_cast<size_t>(oc[static_cast<size_t>(src_[e])]++)] =
          static_cast<EdgeId>(e);
      in_edges_[static_cast<size_t>(ic[static_cast<size_t>(dst_[e])]++)] =
          static_cast<EdgeId>(e);
    }
    finalized_ = true;
  }

  int32_t num_vertices() const { return num_vertices_; }
  int64_t num_edges() const { return static_cast<int64_t>(src_.size()); }

  VertexId src(EdgeId e) const { return src_[static_cast<size_t>(e)]; }
  VertexId dst(EdgeId e) const { return dst_[static_cast<size_t>(e)]; }

  EData& edge_data(EdgeId e) { return edge_data_[static_cast<size_t>(e)]; }
  const EData& edge_data(EdgeId e) const {
    return edge_data_[static_cast<size_t>(e)];
  }

  /// Edge ids leaving `v` (requires Finalize()).
  std::span<const EdgeId> out_edges(VertexId v) const {
    assert(finalized_);
    size_t b = static_cast<size_t>(out_offsets_[static_cast<size_t>(v)]);
    size_t e = static_cast<size_t>(out_offsets_[static_cast<size_t>(v) + 1]);
    return {out_edges_.data() + b, e - b};
  }

  /// Edge ids entering `v` (requires Finalize()).
  std::span<const EdgeId> in_edges(VertexId v) const {
    assert(finalized_);
    size_t b = static_cast<size_t>(in_offsets_[static_cast<size_t>(v)]);
    size_t e = static_cast<size_t>(in_offsets_[static_cast<size_t>(v) + 1]);
    return {in_edges_.data() + b, e - b};
  }

 private:
  int32_t num_vertices_;
  std::vector<EData> edge_data_;
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  std::vector<int64_t> out_offsets_;
  std::vector<int64_t> in_offsets_;
  std::vector<EdgeId> out_edges_;
  std::vector<EdgeId> in_edges_;
  bool finalized_ = false;
};

}  // namespace cold::engine
