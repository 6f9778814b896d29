#include "graph/graph.h"

#include <algorithm>

namespace simrank {

namespace {

// Walk working sets at or below this many bytes run the fused resident
// loop; larger ones run the batched prefetch loop. Every registry graph
// sits far below the cutoff, where the fused loop wins; on
// MakeRmat(22, 2^25) (155 MB of in-CSR) the batched loop steps 1.4-3.4x
// faster (docs/PERFORMANCE.md, "Walk layout").
constexpr uint64_t kResidentWalkBytes = uint64_t{64} << 20;

// Counting-sort style CSR construction for one direction.
void BuildCsr(Vertex num_vertices, std::span<const Edge> edges, bool reverse,
              std::vector<uint64_t>& offsets, std::vector<Vertex>& targets) {
  offsets.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) {
    const Vertex key = reverse ? e.to : e.from;
    SIMRANK_CHECK_LT(key, num_vertices);
    SIMRANK_CHECK_LT(reverse ? e.from : e.to, num_vertices);
    ++offsets[key + 1];
  }
  for (size_t v = 0; v < num_vertices; ++v) offsets[v + 1] += offsets[v];
  targets.resize(edges.size());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    const Vertex key = reverse ? e.to : e.from;
    const Vertex val = reverse ? e.from : e.to;
    targets[cursor[key]++] = val;
  }
  for (Vertex v = 0; v < num_vertices; ++v) {
    std::sort(targets.begin() + static_cast<ptrdiff_t>(offsets[v]),
              targets.begin() + static_cast<ptrdiff_t>(offsets[v + 1]));
  }
}

}  // namespace

uint64_t InCsrBytes(uint64_t num_vertices, uint64_t num_edges) {
  return (num_vertices + 1) * sizeof(uint64_t) + num_edges * sizeof(Vertex);
}

bool ResidentWalkLayout(uint64_t num_vertices, uint64_t num_edges) {
  return InCsrBytes(num_vertices, num_edges) <= kResidentWalkBytes;
}

namespace internal {
void ForceWalkLoopForTesting(DirectedGraph& graph, bool resident) {
  graph.walk_resident_ = resident;
}
}  // namespace internal

DirectedGraph::DirectedGraph(Vertex num_vertices, std::span<const Edge> edges)
    : num_vertices_(num_vertices) {
  BuildCsr(num_vertices, edges, /*reverse=*/false, out_offsets_, out_targets_);
  BuildCsr(num_vertices, edges, /*reverse=*/true, in_offsets_, in_targets_);
  walk_resident_ = ResidentWalkLayout(num_vertices, NumEdges());
}

bool DirectedGraph::HasEdge(Vertex u, Vertex v) const {
  const auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> DirectedGraph::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (Vertex u = 0; u < num_vertices_; ++u) {
    for (Vertex v : OutNeighbors(u)) edges.push_back({u, v});
  }
  return edges;
}

uint64_t DirectedGraph::MemoryBytes() const {
  return (out_offsets_.capacity() + in_offsets_.capacity()) *
             sizeof(uint64_t) +
         (out_targets_.capacity() + in_targets_.capacity()) * sizeof(Vertex);
}

}  // namespace simrank
