#ifndef SIMRANK_GRAPH_TRAVERSAL_H_
#define SIMRANK_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace simrank {

/// Distance value for unreachable vertices.
inline constexpr uint32_t kInfiniteDistance = static_cast<uint32_t>(-1);

/// Which adjacency a traversal follows.
enum class EdgeDirection {
  kOut,        ///< follow u -> v edges forward
  kIn,         ///< follow edges backward (the SimRank walk direction)
  kUndirected  ///< treat every edge as bidirectional (the distance metric
               ///< used by the L1 bound and Figure 2)
};

/// Single-source BFS distances from `source`, truncated at `max_distance`
/// (vertices farther away report kInfiniteDistance). O(n + m).
std::vector<uint32_t> BfsDistances(const DirectedGraph& graph, Vertex source,
                                   EdgeDirection direction,
                                   uint32_t max_distance = kInfiniteDistance);

/// Reusable BFS workspace for query loops: avoids the O(n) clear between
/// BFS runs by epoch-stamping visited marks. Not thread-safe; use one per
/// thread.
///
/// Run is direction-optimizing: a layer is expanded top-down (each
/// frontier vertex pushes its unreached neighbours) while the frontier is
/// small, and bottom-up (each unreached vertex, scanned in ascending id,
/// probes its reverse-direction neighbours and stops at the first one on
/// the frontier) while it is large. Switch rule (Beamer et al., SC'12): a
/// layer runs bottom-up once the frontier is growing and its arcs times 14
/// exceed the arcs of the unreached vertices, and goes back to top-down
/// once the frontier holds fewer than n / 24 vertices. Both compute every
/// distance exactly.
class BfsWorkspace {
 public:
  explicit BfsWorkspace(const DirectedGraph& graph);

  /// Runs BFS from `source` along `direction`, up to `max_distance`. The
  /// result stays valid until the next Run on this workspace.
  void Run(Vertex source, EdgeDirection direction,
           uint32_t max_distance = kInfiniteDistance);

  /// Distance of v from the last Run's source (kInfiniteDistance if not
  /// reached within the cutoff).
  uint32_t Distance(Vertex v) const {
    return epoch_of_[v] == epoch_ ? distance_[v] : kInfiniteDistance;
  }

  /// Vertices reached by the last Run, in nondecreasing distance order;
  /// the source itself is first. The set and each distance do not depend
  /// on the step direction. Within one distance, a top-down layer lists
  /// vertices in discovery order and a bottom-up layer in ascending id.
  const std::vector<Vertex>& Reached() const { return reached_; }

  /// Layers the last Run expanded bottom-up.
  uint32_t BottomUpLayers() const { return bottom_up_layers_; }

 private:
  const DirectedGraph& graph_;
  std::vector<uint32_t> distance_;
  std::vector<uint32_t> epoch_of_;
  std::vector<Vertex> reached_;
  uint32_t epoch_ = 0;
  uint32_t bottom_up_layers_ = 0;
};

/// Number of weakly connected components and the size of the largest one.
struct ComponentStats {
  uint64_t num_components = 0;
  uint64_t largest_size = 0;
};
ComponentStats WeaklyConnectedComponents(const DirectedGraph& graph);

/// Unbiased estimate of the mean undirected distance between reachable
/// vertex pairs, from `num_sources` sampled BFS runs (the blue baseline of
/// Figure 2).
double EstimateAverageDistance(const DirectedGraph& graph, uint32_t num_sources,
                               Rng& rng);

}  // namespace simrank

#endif  // SIMRANK_GRAPH_TRAVERSAL_H_
