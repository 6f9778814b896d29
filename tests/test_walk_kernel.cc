// Batched walk-kernel coverage: scalar equivalence (the kernel must
// consume the RNG stream exactly like the one-walk-at-a-time loop it
// replaced), swap-compaction invariants, slot preservation, bulk
// single-step sampling (including in-place aliasing), and determinism.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "simrank/walk_kernel.h"
#include "test_helpers.h"
#include "util/counter.h"
#include "util/rng.h"

namespace simrank {
namespace {

// 0 -> 1 -> 2 -> 3: vertex 0 has no in-links, so every walk dies there.
DirectedGraph Chain4() {
  return testing::GraphFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
}

// 3-cycle: every vertex has exactly one in-neighbor, walks never die and
// consume no random draws beyond the (bound = 1) fast path.
DirectedGraph Cycle3() {
  return testing::GraphFromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
}

// Ring plus deterministic chords: every vertex has in-degree >= 1 by
// construction, so no walk ever dies (needed by the scalar-equivalence
// test — a death swap-compacts slots and decouples the two streams).
DirectedGraph RingWithChords(Vertex n) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<Vertex>((v + 1) % n)});
    edges.push_back({v, static_cast<Vertex>((v * 7 + 3) % n)});
    edges.push_back({static_cast<Vertex>((v * 13 + 5) % n), v});
  }
  return testing::GraphFromEdges(n, edges);
}

TEST(AdvanceWalksCompactTest, MatchesScalarLoopWhenNoWalkDies) {
  // No in-degree-0 vertices: the kernel draws in slot order, exactly like
  // the scalar RandomInNeighbor loop. More walks than one batch so block
  // boundaries are crossed.
  const DirectedGraph graph = RingWithChords(60);
  constexpr uint32_t kWalks = 300;
  std::vector<Vertex> batched(kWalks, 0);
  std::vector<Vertex> scalar(kWalks, 0);
  Rng batched_rng(99), scalar_rng(99);
  uint32_t live = kWalks;
  for (int step = 0; step < 5; ++step) {
    live = AdvanceWalksCompact(graph, batched, live, batched_rng);
    ASSERT_EQ(live, kWalks);
    for (Vertex& p : scalar) p = graph.RandomInNeighbor(p, scalar_rng);
    EXPECT_EQ(batched, scalar) << "step " << step;
  }
}

TEST(AdvanceWalksCompactTest, CompactsDeadWalksBehindLivePrefix) {
  const DirectedGraph graph = Chain4();
  // Walks from vertex 2 survive exactly 2 steps (2 -> 1 -> 0 -> dead).
  std::vector<Vertex> positions(10, 2);
  Rng rng(7);
  uint32_t live = AdvanceWalksCompact(graph, positions, 10, rng);
  EXPECT_EQ(live, 10u);
  for (Vertex p : positions) EXPECT_EQ(p, 1u);
  live = AdvanceWalksCompact(graph, positions, live, rng);
  EXPECT_EQ(live, 10u);
  for (Vertex p : positions) EXPECT_EQ(p, 0u);
  live = AdvanceWalksCompact(graph, positions, live, rng);
  EXPECT_EQ(live, 0u);
  for (Vertex p : positions) EXPECT_EQ(p, kNoVertex);
}

TEST(AdvanceWalksCompactTest, LivePrefixInvariantOnSkewedGraph) {
  // Star center 0 with leaves: leaves' only in-neighbor is 0, 0's
  // in-neighbors are the leaves, so walks bounce and a subset dies only
  // where in-degree is 0 — extend with a dangling sink to force deaths.
  const DirectedGraph graph = testing::GraphFromEdges(
      6, {{0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 3}, {3, 0}, {4, 5}, {0, 5}});
  std::vector<Vertex> positions(64, 5);
  Rng rng(11);
  uint32_t live = 64;
  for (int step = 0; step < 8 && live > 0; ++step) {
    live = AdvanceWalksCompact(graph, positions, live, rng);
    for (uint32_t i = 0; i < live; ++i) {
      EXPECT_NE(positions[i], kNoVertex) << "slot " << i << " in live prefix";
    }
    for (size_t i = live; i < positions.size(); ++i) {
      EXPECT_EQ(positions[i], kNoVertex) << "slot " << i << " in dead tail";
    }
  }
}

TEST(AdvanceWalksCompactTest, DeterministicForFixedSeed) {
  const DirectedGraph graph = testing::SmallRandomGraph(80, 302, 60);
  std::vector<Vertex> a(200, 3), b(200, 3);
  Rng rng_a(42), rng_b(42);
  uint32_t live_a = 200, live_b = 200;
  for (int step = 0; step < 6; ++step) {
    live_a = AdvanceWalksCompact(graph, a, live_a, rng_a);
    live_b = AdvanceWalksCompact(graph, b, live_b, rng_b);
    EXPECT_EQ(live_a, live_b);
    EXPECT_EQ(a, b);
  }
}

TEST(StepWalksInPlaceTest, PreservesSlotsAndTombstones) {
  const DirectedGraph graph = Chain4();
  // Mixed population: slots 0/2 die one step before slots 1/3.
  std::vector<Vertex> positions = {1, 2, 1, 2};
  Rng rng(5);
  EXPECT_EQ(StepWalksInPlace(graph, positions, rng), 4u);
  EXPECT_EQ(positions, (std::vector<Vertex>{0, 1, 0, 1}));
  EXPECT_EQ(StepWalksInPlace(graph, positions, rng), 2u);
  EXPECT_EQ(positions, (std::vector<Vertex>{kNoVertex, 0, kNoVertex, 0}));
  EXPECT_EQ(StepWalksInPlace(graph, positions, rng), 0u);
  EXPECT_EQ(positions,
            (std::vector<Vertex>{kNoVertex, kNoVertex, kNoVertex, kNoVertex}));
}

TEST(StepWalksInPlaceTest, MatchesScalarLoopIncludingDeadSlots) {
  const DirectedGraph graph = testing::SmallRandomGraph(50, 303, 80);
  std::vector<Vertex> batched(200);
  for (size_t i = 0; i < batched.size(); ++i) {
    // A few tombstones sprinkled in up front: the kernel must skip them
    // without consuming draws, like the scalar loop.
    batched[i] = i % 7 == 0 ? kNoVertex : static_cast<Vertex>(i % 50);
  }
  std::vector<Vertex> scalar = batched;
  Rng batched_rng(17), scalar_rng(17);
  for (int step = 0; step < 4; ++step) {
    StepWalksInPlace(graph, batched, batched_rng);
    for (Vertex& p : scalar) {
      if (p == kNoVertex) continue;
      p = graph.RandomInNeighbor(p, scalar_rng);
    }
    EXPECT_EQ(batched, scalar) << "step " << step;
  }
}

TEST(StepWalksInPlaceTest, CycleNeverDies) {
  const DirectedGraph graph = Cycle3();
  std::vector<Vertex> positions = {0, 1, 2, 0};
  Rng rng(3);
  for (int step = 0; step < 10; ++step) {
    EXPECT_EQ(StepWalksInPlace(graph, positions, rng), 4u);
  }
  // 10 steps around the 3-cycle: 0 -> 2 -> 1 -> 0 -> ... (in-links).
  EXPECT_EQ(positions, (std::vector<Vertex>{2, 0, 1, 2}));
}

TEST(SampleInNeighborsTest, MatchesScalarLoop) {
  const DirectedGraph graph = testing::SmallRandomGraph(70, 304, 90);
  std::vector<Vertex> vertices(graph.NumVertices());
  for (Vertex v = 0; v < graph.NumVertices(); ++v) vertices[v] = v;
  std::vector<Vertex> batched(vertices.size());
  Rng batched_rng(23), scalar_rng(23);
  SampleInNeighbors(graph, vertices, batched_rng, batched.data());
  for (size_t i = 0; i < vertices.size(); ++i) {
    EXPECT_EQ(batched[i], graph.RandomInNeighbor(vertices[i], scalar_rng))
        << "vertex " << i;
  }
}

TEST(SampleInNeighborsTest, DeadInputsAndSinksYieldNoVertex) {
  const DirectedGraph graph = Chain4();
  const std::vector<Vertex> vertices = {0, kNoVertex, 1, 3};
  std::vector<Vertex> out(vertices.size(), 77);
  Rng rng(1);
  SampleInNeighbors(graph, vertices, rng, out.data());
  EXPECT_EQ(out, (std::vector<Vertex>{kNoVertex, kNoVertex, 0, 2}));
}

TEST(SampleInNeighborsTest, InPlaceAliasingIsSafe) {
  const DirectedGraph graph = testing::SmallRandomGraph(90, 305, 100);
  std::vector<Vertex> walk(300);
  for (size_t i = 0; i < walk.size(); ++i) {
    walk[i] = static_cast<Vertex>(i % 90);
  }
  std::vector<Vertex> reference = walk;
  Rng aliased_rng(31), reference_rng(31);
  SampleInNeighbors(graph, walk, aliased_rng, walk.data());
  std::vector<Vertex> separate(reference.size());
  SampleInNeighbors(graph, reference, reference_rng, separate.data());
  EXPECT_EQ(walk, separate);
}

TEST(WalkKernelTest, EmptyInputsAreNoOps) {
  const DirectedGraph graph = Cycle3();
  Rng rng(9);
  std::vector<Vertex> empty;
  EXPECT_EQ(AdvanceWalksCompact(graph, empty, 0, rng), 0u);
  EXPECT_EQ(StepWalksInPlace(graph, empty, rng), 0u);
  SampleInNeighbors(graph, empty, rng, empty.data());
  // The stream must be untouched by no-op calls.
  Rng fresh(9);
  EXPECT_EQ(rng.Next(), fresh.Next());
}

// --- Walk-loop golden tests ----------------------------------------------
//
// The determinism contract: the fused resident loop and the batched
// prefetch loop consume the RNG stream draw-for-draw identically. These
// tests pin each loop in turn (internal::ForceWalkLoopForTesting) against
// the same seed and require bit-equal position streams.

// Runs `steps` counted advances under the graph's current loop and
// returns the concatenated position stream (positions after each step).
std::vector<Vertex> WalkStream(const DirectedGraph& graph, Vertex origin,
                               uint32_t num_walks, int steps, uint64_t seed) {
  std::vector<Vertex> stream;
  std::vector<Vertex> positions(num_walks, origin);
  Rng rng(seed);
  uint32_t live = num_walks;
  for (int s = 0; s < steps && live > 0; ++s) {
    WalkCounter counter(live);
    live = AdvanceWalksCompactCounted(graph, positions, live, rng, counter);
    stream.insert(stream.end(), positions.begin(), positions.end());
    // Fused counting must agree with the surviving positions.
    uint32_t counted = 0;
    counter.ForEach([&](Vertex, uint32_t count) { counted += count; });
    EXPECT_EQ(counted, live) << "step " << s;
  }
  return stream;
}

// The two walk loops, resident first (the reference).
std::vector<bool> LayoutMatrix() { return {true, false}; }

TEST(WalkKernelGoldenTest, AllLayoutsProduceOneStream) {
  const uint32_t n = 400;
  DirectedGraph graph = testing::SmallRandomGraph(n, 31, 600);
  std::vector<Vertex> reference;
  for (const bool resident : LayoutMatrix()) {
    internal::ForceWalkLoopForTesting(graph, resident);
    // Streams for three origins, concatenated: exercises dying walks
    // (low-id BA vertices are hubs, high ids may have in-degree 0).
    std::vector<Vertex> combined;
    for (Vertex origin : {Vertex{0}, Vertex{n / 2}, Vertex{n - 1}}) {
      const auto stream = WalkStream(graph, origin, 333, 8, 12345 + origin);
      combined.insert(combined.end(), stream.begin(), stream.end());
    }
    if (resident) reference = combined;
    EXPECT_EQ(combined, reference) << "resident " << resident;
  }
}

TEST(WalkKernelGoldenTest, StepWalksInPlaceMatchesAcrossLayouts) {
  const uint32_t n = 300;
  DirectedGraph graph = testing::SmallRandomGraph(n, 13, 400);
  std::vector<Vertex> reference;
  for (const bool resident : LayoutMatrix()) {
    internal::ForceWalkLoopForTesting(graph, resident);
    std::vector<Vertex> positions(256);
    for (size_t i = 0; i < positions.size(); ++i) {
      positions[i] = static_cast<Vertex>((i * 7) % n);
    }
    positions[5] = kNoVertex;  // tombstones must stay put
    positions[100] = kNoVertex;
    Rng rng(4242);
    for (int s = 0; s < 6; ++s) StepWalksInPlace(graph, positions, rng);
    if (resident) reference = positions;
    EXPECT_EQ(positions, reference) << "resident " << resident;
    EXPECT_EQ(positions[5], kNoVertex);
    EXPECT_EQ(positions[100], kNoVertex);
  }
}

TEST(WalkKernelGoldenTest, SampleInNeighborsMatchesAcrossLayouts) {
  const uint32_t n = 250;
  DirectedGraph graph = testing::SmallRandomGraph(n, 19, 300);
  std::vector<Vertex> sources(200);
  for (size_t i = 0; i < sources.size(); ++i) {
    sources[i] = static_cast<Vertex>((i * 11) % n);
  }
  std::vector<Vertex> reference;
  for (const bool resident : LayoutMatrix()) {
    internal::ForceWalkLoopForTesting(graph, resident);
    std::vector<Vertex> out(sources.size());
    Rng rng(31337);
    SampleInNeighbors(graph, sources, rng, out.data());
    if (resident) reference = out;
    EXPECT_EQ(out, reference) << "resident " << resident;
  }
}

TEST(WalkKernelLayoutTest, ResidentCutoffIsSixtyFourMebibytes) {
  // The in-CSR is (n+1) * 8 + m * 4 bytes, so sizes move in 4-byte steps
  // per arc: with n + 1 = 2^20 offsets (8 MiB), 14,680,064 arcs fill the
  // 64 MiB budget exactly, and one arc less or more lands 4 bytes on
  // either side of it — the nearest sizes the graph can take.
  const uint64_t n = (uint64_t{1} << 20) - 1;
  const uint64_t m = ((uint64_t{64} << 20) - (n + 1) * 8) / 4;
  ASSERT_EQ(InCsrBytes(n, m), uint64_t{64} << 20);
  EXPECT_TRUE(ResidentWalkLayout(n, m - 1));
  EXPECT_TRUE(ResidentWalkLayout(n, m));
  EXPECT_FALSE(ResidentWalkLayout(n, m + 1));
  // Trading one vertex for two arcs keeps the size: still exactly 64 MiB.
  EXPECT_TRUE(ResidentWalkLayout(n - 1, m + 2));
  EXPECT_FALSE(ResidentWalkLayout(n + 1, m));
  // Small graphs — every registry dataset — run the resident loop.
  EXPECT_TRUE(testing::SmallRandomGraph(100, 7, 300).walk_view().resident);
}

}  // namespace
}  // namespace simrank
