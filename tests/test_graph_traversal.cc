// Tests for BFS distances (all three edge directions), the reusable
// workspace, connected components, and average-distance estimation.

#include "graph/traversal.h"

#include <algorithm>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace simrank {
namespace {

using ::simrank::testing::GraphFromEdges;

// Brute-force reference BFS over an explicit adjacency function: a plain
// FIFO queue, vertices at `max_distance` are reached but not expanded.
std::vector<uint32_t> ReferenceBfs(const DirectedGraph& graph, Vertex source,
                                   EdgeDirection direction,
                                   uint32_t max_distance = kInfiniteDistance) {
  std::vector<uint32_t> dist(graph.NumVertices(), kInfiniteDistance);
  dist[source] = 0;
  std::queue<Vertex> queue;
  queue.push(source);
  auto neighbors = [&](Vertex v) {
    std::vector<Vertex> out;
    if (direction != EdgeDirection::kIn) {
      for (Vertex w : graph.OutNeighbors(v)) out.push_back(w);
    }
    if (direction != EdgeDirection::kOut) {
      for (Vertex w : graph.InNeighbors(v)) out.push_back(w);
    }
    return out;
  };
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop();
    if (dist[v] >= max_distance) continue;
    for (Vertex w : neighbors(v)) {
      if (dist[w] == kInfiniteDistance) {
        dist[w] = dist[v] + 1;
        queue.push(w);
      }
    }
  }
  return dist;
}

TEST(BfsTest, DirectedChainDistances) {
  const DirectedGraph graph = GraphFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto out = BfsDistances(graph, 0, EdgeDirection::kOut);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2, 3}));
  const auto in = BfsDistances(graph, 0, EdgeDirection::kIn);
  EXPECT_EQ(in[0], 0u);
  EXPECT_EQ(in[1], kInfiniteDistance);
  const auto in_from_3 = BfsDistances(graph, 3, EdgeDirection::kIn);
  EXPECT_EQ(in_from_3, (std::vector<uint32_t>{3, 2, 1, 0}));
}

TEST(BfsTest, UndirectedIgnoresOrientation) {
  const DirectedGraph graph = GraphFromEdges(4, {{0, 1}, {2, 1}, {2, 3}});
  const auto dist = BfsDistances(graph, 0, EdgeDirection::kUndirected);
  EXPECT_EQ(dist, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(BfsTest, MaxDistanceTruncates) {
  const DirectedGraph graph = MakePath(10);
  const auto dist = BfsDistances(graph, 0, EdgeDirection::kUndirected, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kInfiniteDistance);
}

TEST(BfsTest, MatchesReferenceOnRandomGraphs) {
  for (uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    const DirectedGraph graph = testing::SmallRandomGraph(120, seed, 80);
    for (EdgeDirection direction :
         {EdgeDirection::kOut, EdgeDirection::kIn,
          EdgeDirection::kUndirected}) {
      const auto expected = ReferenceBfs(graph, 5, direction);
      const auto actual = BfsDistances(graph, 5, direction);
      EXPECT_EQ(actual, expected) << "seed=" << seed;
    }
  }
}

TEST(BfsWorkspaceTest, ReachedIsSortedByDistance) {
  const DirectedGraph graph = testing::SmallRandomGraph(200, 40, 100);
  BfsWorkspace workspace(graph);
  workspace.Run(0, EdgeDirection::kUndirected);
  uint32_t last = 0;
  for (Vertex v : workspace.Reached()) {
    const uint32_t d = workspace.Distance(v);
    EXPECT_GE(d, last);
    last = d;
  }
  EXPECT_EQ(workspace.Reached().front(), 0u);
}

TEST(BfsWorkspaceTest, ReuseAcrossSourcesIsClean) {
  const DirectedGraph graph = MakePath(6);
  BfsWorkspace workspace(graph);
  workspace.Run(0, EdgeDirection::kUndirected);
  EXPECT_EQ(workspace.Distance(5), 5u);
  workspace.Run(5, EdgeDirection::kUndirected, 2);
  EXPECT_EQ(workspace.Distance(5), 0u);
  EXPECT_EQ(workspace.Distance(3), 2u);
  // Vertices beyond the cutoff must not leak distances from the prior run.
  EXPECT_EQ(workspace.Distance(0), kInfiniteDistance);
}

TEST(BfsWorkspaceTest, ManyEpochsStayConsistent) {
  const DirectedGraph graph = testing::SmallRandomGraph(50, 41);
  BfsWorkspace workspace(graph);
  for (int round = 0; round < 300; ++round) {
    const Vertex source = static_cast<Vertex>(round % 50);
    workspace.Run(source, EdgeDirection::kUndirected);
    EXPECT_EQ(workspace.Distance(source), 0u);
  }
}

// The vertex with the most arcs in either direction.
Vertex Hub(const DirectedGraph& graph) {
  Vertex hub = 0;
  for (Vertex v = 1; v < graph.NumVertices(); ++v) {
    if (graph.OutDegree(v) + graph.InDegree(v) >
        graph.OutDegree(hub) + graph.InDegree(hub)) {
      hub = v;
    }
  }
  return hub;
}

// Disjoint union of `a` and `b` (b's ids shifted past a's) plus `isolated`
// vertices with no arcs at the end.
DirectedGraph DisjointUnion(const DirectedGraph& a, const DirectedGraph& b,
                            Vertex isolated) {
  std::vector<Edge> edges = a.Edges();
  for (const Edge& e : b.Edges()) {
    edges.push_back({e.from + a.NumVertices(), e.to + a.NumVertices()});
  }
  return GraphFromEdges(a.NumVertices() + b.NumVertices() + isolated, edges);
}

struct BfsCase {
  const char* name;
  DirectedGraph graph;
  std::vector<Vertex> sources;
};

// Property: for every graph, direction, horizon and source, one reused
// direction-optimizing workspace agrees with the queue reference on every
// distance and on the reached set, and lists Reached() source first in
// nondecreasing distance.
TEST(BfsWorkspaceTest, MatchesReferenceForEveryDirectionAndHorizon) {
  Rng rng(46);
  RmatParams social;
  social.undirected = true;
  std::vector<BfsCase> cases;
  cases.push_back({"rmat-social", MakeRmat(10, 6000, rng, social), {}});
  cases.push_back({"rmat-web", MakeRmat(10, 8000, rng), {}});
  cases.push_back({"erdos-renyi", MakeErdosRenyi(600, 2400, rng), {}});
  cases.push_back({"path", MakePath(64), {}});
  cases.push_back({"star", MakeStar(300), {}});
  cases.push_back(
      {"union", DisjointUnion(MakeRmat(8, 1500, rng), MakePath(20), 5), {}});
  for (uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    cases.push_back({"ba+arcs", testing::SmallRandomGraph(120, seed, 80), {}});
  }
  cases.push_back({"ba+arcs", testing::SmallRandomGraph(200, 40, 100), {}});
  for (BfsCase& c : cases) {
    const Vertex n = c.graph.NumVertices();
    c.sources = {0, Hub(c.graph), n - 1};
    for (int i = 0; i < 12; ++i) c.sources.push_back(rng.UniformIndex(n));
  }
  const std::vector<uint32_t> horizons = {0, 1, 2, 3, 11, kInfiniteDistance};
  uint64_t bottom_up_layers = 0;
  for (const BfsCase& c : cases) {
    BfsWorkspace workspace(c.graph);
    for (EdgeDirection direction :
         {EdgeDirection::kOut, EdgeDirection::kIn,
          EdgeDirection::kUndirected}) {
      for (uint32_t horizon : horizons) {
        for (Vertex source : c.sources) {
          SCOPED_TRACE(::testing::Message()
                       << c.name << " direction=" << static_cast<int>(direction)
                       << " horizon=" << horizon << " source=" << source);
          const std::vector<uint32_t> expected =
              ReferenceBfs(c.graph, source, direction, horizon);
          workspace.Run(source, direction, horizon);
          bottom_up_layers += workspace.BottomUpLayers();
          std::vector<Vertex> expected_set;
          for (Vertex v = 0; v < c.graph.NumVertices(); ++v) {
            ASSERT_EQ(workspace.Distance(v), expected[v]) << "vertex " << v;
            if (expected[v] != kInfiniteDistance) expected_set.push_back(v);
          }
          const std::vector<Vertex>& reached = workspace.Reached();
          ASSERT_FALSE(reached.empty());
          EXPECT_EQ(reached.front(), source);
          for (size_t i = 1; i < reached.size(); ++i) {
            ASSERT_LE(workspace.Distance(reached[i - 1]),
                      workspace.Distance(reached[i]));
          }
          std::vector<Vertex> reached_set = reached;
          std::sort(reached_set.begin(), reached_set.end());
          ASSERT_EQ(reached_set, expected_set);
        }
      }
    }
  }
  EXPECT_GT(bottom_up_layers, 0u);
}

// The switch rule sends a growing frontier bottom-up once its arcs dwarf
// the unreached ones: from a star's centre or an R-MAT hub that happens
// within two layers.
TEST(BfsWorkspaceTest, HubSourcesRunBottomUpLayers) {
  Rng rng(47);
  const DirectedGraph star = MakeStar(300);
  const DirectedGraph web = MakeRmat(10, 8000, rng);
  BfsWorkspace star_workspace(star);
  star_workspace.Run(0, EdgeDirection::kUndirected);
  EXPECT_GE(star_workspace.BottomUpLayers(), 1u);
  BfsWorkspace web_workspace(web);
  web_workspace.Run(Hub(web), EdgeDirection::kUndirected, 11);
  EXPECT_GE(web_workspace.BottomUpLayers(), 1u);
  // A path's frontier never grows, so even its last layers stay top-down.
  const DirectedGraph path = MakePath(64);
  BfsWorkspace path_workspace(path);
  path_workspace.Run(0, EdgeDirection::kUndirected);
  EXPECT_EQ(path_workspace.BottomUpLayers(), 0u);
}

TEST(ComponentsTest, CountsComponents) {
  // Two components: {0,1,2} chain and {3,4} pair, vertex 5 isolated.
  const DirectedGraph graph = GraphFromEdges(6, {{0, 1}, {1, 2}, {3, 4}});
  const ComponentStats stats = WeaklyConnectedComponents(graph);
  EXPECT_EQ(stats.num_components, 3u);
  EXPECT_EQ(stats.largest_size, 3u);
}

TEST(ComponentsTest, ConnectedGraphIsOneComponent) {
  Rng rng(42);
  const DirectedGraph graph = MakeBarabasiAlbert(300, 2, rng);
  const ComponentStats stats = WeaklyConnectedComponents(graph);
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_EQ(stats.largest_size, 300u);
}

TEST(ComponentsTest, EmptyGraph) {
  const ComponentStats stats = WeaklyConnectedComponents(DirectedGraph());
  EXPECT_EQ(stats.num_components, 0u);
}

TEST(AverageDistanceTest, PathGraphMatchesClosedForm) {
  // Full sources on a path: mean distance of an n-path is (n+1)/3.
  const Vertex n = 30;
  const DirectedGraph graph = MakePath(n);
  Rng rng(43);
  const double estimate = EstimateAverageDistance(graph, 200, rng);
  EXPECT_NEAR(estimate, (n + 1.0) / 3.0, 1.0);
}

TEST(AverageDistanceTest, CompleteGraphIsOne) {
  const DirectedGraph graph = MakeComplete(20);
  Rng rng(44);
  EXPECT_NEAR(EstimateAverageDistance(graph, 10, rng), 1.0, 1e-9);
}

TEST(AverageDistanceTest, TrivialGraphsReturnZero) {
  Rng rng(45);
  EXPECT_EQ(EstimateAverageDistance(DirectedGraph(1, {}), 5, rng), 0.0);
}

}  // namespace
}  // namespace simrank
