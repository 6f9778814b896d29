#include "graph/traversal.h"

#include <algorithm>

namespace simrank {

namespace {

// Direction-optimizing BFS switch rule (Beamer, Asanovic, Patterson,
// "Direction-Optimizing Breadth-First Search", SC'12): a layer runs
// bottom-up once the frontier is growing and its arcs times alpha exceed
// the arcs of the unreached vertices, and goes back to top-down once the
// frontier holds fewer than n / beta vertices. alpha = 14 and beta = 24
// are the paper's tuned values.
constexpr uint64_t kBfsAlphaTopDownToBottomUp = 14;
constexpr uint64_t kBfsBetaBottomUpToTopDown = 24;

// Calls `visit` on v's neighbours along `direction` until it returns true;
// returns whether it did.
template <typename Visit>
bool AnyNeighbor(const DirectedGraph& graph, Vertex v, EdgeDirection direction,
                 Visit&& visit) {
  if (direction != EdgeDirection::kIn) {
    for (Vertex w : graph.OutNeighbors(v)) {
      if (visit(w)) return true;
    }
  }
  if (direction != EdgeDirection::kOut) {
    for (Vertex w : graph.InNeighbors(v)) {
      if (visit(w)) return true;
    }
  }
  return false;
}

// Arcs a top-down step from v examines.
uint64_t Degree(const DirectedGraph& graph, Vertex v, EdgeDirection direction) {
  uint64_t degree = 0;
  if (direction != EdgeDirection::kIn) degree += graph.OutDegree(v);
  if (direction != EdgeDirection::kOut) degree += graph.InDegree(v);
  return degree;
}

// The direction whose neighbours of w are the vertices that reach w along
// `direction`: what a bottom-up step probes.
EdgeDirection Reverse(EdgeDirection direction) {
  if (direction == EdgeDirection::kOut) return EdgeDirection::kIn;
  if (direction == EdgeDirection::kIn) return EdgeDirection::kOut;
  return EdgeDirection::kUndirected;
}

}  // namespace

std::vector<uint32_t> BfsDistances(const DirectedGraph& graph, Vertex source,
                                   EdgeDirection direction,
                                   uint32_t max_distance) {
  BfsWorkspace workspace(graph);
  workspace.Run(source, direction, max_distance);
  std::vector<uint32_t> distances(graph.NumVertices(), kInfiniteDistance);
  for (Vertex v : workspace.Reached()) distances[v] = workspace.Distance(v);
  return distances;
}

BfsWorkspace::BfsWorkspace(const DirectedGraph& graph)
    : graph_(graph),
      distance_(graph.NumVertices(), 0),
      epoch_of_(graph.NumVertices(), 0) {}

void BfsWorkspace::Run(Vertex source, EdgeDirection direction,
                       uint32_t max_distance) {
  SIMRANK_CHECK_LT(source, graph_.NumVertices());
  const Vertex n = graph_.NumVertices();
  const EdgeDirection reverse = Reverse(direction);
  ++epoch_;
  reached_.clear();
  bottom_up_layers_ = 0;
  auto stamp = [&](Vertex w, uint32_t dist) {
    epoch_of_[w] = epoch_;
    distance_[w] = dist;
  };
  stamp(source, 0);
  reached_.push_back(source);
  uint64_t unexplored_edges =
      direction == EdgeDirection::kUndirected ? 2 * graph_.NumEdges()
                                              : graph_.NumEdges();
  // `reached_` doubles as the layer queue: layer `dist` is the slice
  // [layer_begin, layer_end), appended in full before the next is read.
  bool bottom_up = false;
  size_t layer_begin = 0;
  size_t previous_size = 0;
  for (uint32_t dist = 0; dist < max_distance && layer_begin < reached_.size();
       ++dist) {
    const size_t layer_end = reached_.size();
    const size_t layer_size = layer_end - layer_begin;
    // Arcs of the frontier, and of the vertices not reached yet: the work
    // of a top-down and of a bottom-up step respectively.
    uint64_t frontier_edges = 0;
    for (size_t i = layer_begin; i < layer_end; ++i) {
      frontier_edges += Degree(graph_, reached_[i], direction);
    }
    unexplored_edges -= frontier_edges;
    // A shrinking tail stays top-down: a full scan per layer would cost
    // O(n) for each of its small layers.
    if (bottom_up) {
      bottom_up = layer_size * kBfsBetaBottomUpToTopDown >= n;
    } else {
      bottom_up = layer_size > previous_size &&
                  frontier_edges * kBfsAlphaTopDownToBottomUp >
                      unexplored_edges;
    }
    previous_size = layer_size;
    if (bottom_up) {
      ++bottom_up_layers_;
      for (Vertex w = 0; w < n; ++w) {
        if (epoch_of_[w] != epoch_ &&
            AnyNeighbor(graph_, w, reverse, [&](Vertex parent) {
              return epoch_of_[parent] == epoch_;
            })) {
          reached_.push_back(w);
        }
      }
      // Stamped only after the scan, so every stamped vertex a probe meets
      // is a parent on layer `dist`: a nearer one would have reached w in
      // an earlier layer.
      for (size_t i = layer_end; i < reached_.size(); ++i) {
        stamp(reached_[i], dist + 1);
      }
    } else {
      for (size_t i = layer_begin; i < layer_end; ++i) {
        AnyNeighbor(graph_, reached_[i], direction, [&](Vertex w) {
          if (epoch_of_[w] != epoch_) {
            stamp(w, dist + 1);
            reached_.push_back(w);
          }
          return false;
        });
      }
    }
    layer_begin = layer_end;
  }
}

ComponentStats WeaklyConnectedComponents(const DirectedGraph& graph) {
  ComponentStats stats;
  const Vertex n = graph.NumVertices();
  if (n == 0) return stats;
  BfsWorkspace workspace(graph);
  std::vector<bool> assigned(n, false);
  for (Vertex v = 0; v < n; ++v) {
    if (assigned[v]) continue;
    workspace.Run(v, EdgeDirection::kUndirected);
    uint64_t size = 0;
    for (Vertex w : workspace.Reached()) {
      if (!assigned[w]) {
        assigned[w] = true;
        ++size;
      }
    }
    ++stats.num_components;
    stats.largest_size = std::max(stats.largest_size, size);
  }
  return stats;
}

double EstimateAverageDistance(const DirectedGraph& graph,
                               uint32_t num_sources, Rng& rng) {
  const Vertex n = graph.NumVertices();
  if (n < 2) return 0.0;
  BfsWorkspace workspace(graph);
  double sum = 0.0;
  uint64_t count = 0;
  for (uint32_t i = 0; i < num_sources; ++i) {
    const Vertex source = rng.UniformIndex(n);
    workspace.Run(source, EdgeDirection::kUndirected);
    for (Vertex v : workspace.Reached()) {
      if (v == source) continue;
      sum += workspace.Distance(v);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace simrank
