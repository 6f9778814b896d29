#ifndef SIMRANK_TESTS_TEST_HELPERS_H_
#define SIMRANK_TESTS_TEST_HELPERS_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace simrank::testing {

/// Builds a directed graph from an explicit edge list.
inline DirectedGraph GraphFromEdges(Vertex n,
                                    const std::vector<Edge>& edges) {
  GraphBuilder builder;
  builder.ReserveVertices(n);
  for (const Edge& e : edges) builder.AddEdge(e.from, e.to);
  return builder.Build();
}

/// A small, connected, skewed random graph for property tests: BA backbone
/// plus extra random directed edges (so in-degrees differ from
/// out-degrees and some vertices may be reciprocal hubs).
inline DirectedGraph SmallRandomGraph(Vertex n, uint64_t seed,
                                      uint32_t extra_edges = 0) {
  Rng rng(seed);
  DirectedGraph base = MakeBarabasiAlbert(n, 2, rng);
  if (extra_edges == 0) return base;
  GraphBuilder builder;
  builder.ReserveVertices(n);
  for (const Edge& e : base.Edges()) builder.AddEdge(e.from, e.to);
  for (uint32_t i = 0; i < extra_edges; ++i) {
    const Vertex u = rng.UniformIndex(n);
    Vertex v = rng.UniformIndex(n - 1);
    if (v >= u) ++v;
    builder.AddEdge(u, v);
  }
  builder.Deduplicate();
  return builder.Build();
}

/// The paper's Example 1 graph: undirected star with 3 leaves ("claw"),
/// center = vertex 0.
inline DirectedGraph ExampleOneStar() { return MakeStar(3); }

/// Reference answer of a group request, written independently of the
/// engine: each vertex's score is the sum of its scores in the members'
/// rankings (`rank(member)`), added in member order; members and vertices
/// whose sum is not positive are dropped; the best k remain, best-first.
template <typename RankFn>
std::vector<ScoredVertex> MemberOrderVotes(const std::vector<Vertex>& group,
                                           uint32_t k, RankFn rank) {
  std::unordered_map<Vertex, double> sums;
  for (Vertex member : group) {
    for (const ScoredVertex& entry : rank(member)) {
      sums.try_emplace(entry.vertex, 0.0).first->second += entry.score;
    }
  }
  for (Vertex member : group) sums.erase(member);
  std::vector<ScoredVertex> ranked;
  for (const auto& [vertex, sum] : sums) {
    if (sum > 0.0) ranked.push_back({vertex, sum});
  }
  std::sort(ranked.begin(), ranked.end(), ScoredVertexGreater);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace simrank::testing

#endif  // SIMRANK_TESTS_TEST_HELPERS_H_
