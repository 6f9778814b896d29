// Tests for group requests (aggregated similarity to a set of vertices),
// served through the engine with the result cache off.

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "service/query_engine.h"
#include "simrank/top_k_searcher.h"
#include "test_helpers.h"

namespace simrank {
namespace {

using service::EngineOptions;
using service::QueryEngine;
using service::QueryRequest;
using service::QueryResponse;

SearchOptions Options() {
  SearchOptions options;
  options.k = 8;
  options.threshold = 0.01;
  options.seed = 404;
  return options;
}

std::unique_ptr<QueryEngine> MakeEngine(const DirectedGraph& graph,
                                        const SearchOptions& search) {
  EngineOptions options;
  options.search = search;
  options.num_threads = 2;
  options.enable_cache = false;
  auto engine = QueryEngine::Create(graph, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

QueryResponse RunGroup(QueryEngine& engine, std::vector<Vertex> group) {
  auto response = engine.Query(QueryRequest::ForGroup(std::move(group)));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok()) << response->status.ToString();
  return std::move(response).value();
}

TEST(GroupQueryTest, SingleMemberMatchesPlainQuery) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 1101, 60);
  auto engine = MakeEngine(graph, Options());
  ASSERT_NE(engine, nullptr);
  const auto single = engine->searcher().Query(7).top;
  const auto grouped = RunGroup(*engine, {7}).top;
  ASSERT_EQ(single.size(), grouped.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].vertex, grouped[i].vertex);
    EXPECT_EQ(single[i].score, grouped[i].score);
  }
}

TEST(GroupQueryTest, MembersAreNeverRecommended) {
  const DirectedGraph star = MakeStar(8);
  SearchOptions options = Options();
  options.threshold = 0.0;
  auto engine = MakeEngine(star, options);
  ASSERT_NE(engine, nullptr);
  const QueryResponse response = RunGroup(*engine, {1, 2, 3});
  for (const ScoredVertex& entry : response.top) {
    EXPECT_NE(entry.vertex, 1u);
    EXPECT_NE(entry.vertex, 2u);
    EXPECT_NE(entry.vertex, 3u);
  }
  // The remaining leaves are similar to every member and should rank.
  EXPECT_FALSE(response.top.empty());
}

TEST(GroupQueryTest, SharedCandidateAccumulatesVotes) {
  // Star leaves: every leaf is similar to every other, so on the
  // symmetric star all candidates tie; check instead that the aggregated
  // score of a candidate is the member-order sum of its per-member scores.
  const DirectedGraph star = MakeStar(6);
  SearchOptions options = Options();
  options.threshold = 0.0;
  auto engine = MakeEngine(star, options);
  ASSERT_NE(engine, nullptr);
  const std::vector<Vertex> group = {1, 2};
  const auto grouped = RunGroup(*engine, group).top;
  ASSERT_FALSE(grouped.empty());
  // Candidate leaf 3: sum of Query(1) and Query(2) scores for 3.
  double expected = 0.0;
  for (Vertex member : group) {
    for (const ScoredVertex& entry : engine->searcher().Query(member).top) {
      if (entry.vertex == 3) expected += entry.score;
    }
  }
  double actual = 0.0;
  for (const ScoredVertex& entry : grouped) {
    if (entry.vertex == 3) actual = entry.score;
  }
  EXPECT_EQ(actual, expected);
}

TEST(GroupQueryTest, StatsAreAccumulated) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 1102, 60);
  auto engine = MakeEngine(graph, Options());
  ASSERT_NE(engine, nullptr);
  const std::vector<Vertex> group = {1, 2, 3};
  const QueryResponse response = RunGroup(*engine, group);
  uint64_t individual = 0;
  for (Vertex member : group) {
    individual += engine->searcher().Query(member).stats.candidates_enumerated;
  }
  EXPECT_EQ(response.stats.candidates_enumerated, individual);
}

TEST(GroupQueryTest, RepeatedGroupRequestsAreIdentical) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 1103, 60);
  auto engine = MakeEngine(graph, Options());
  ASSERT_NE(engine, nullptr);
  const auto first = RunGroup(*engine, {1, 2}).top;
  RunGroup(*engine, {50, 51});
  const auto again = RunGroup(*engine, {1, 2}).top;
  ASSERT_EQ(first.size(), again.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].vertex, again[i].vertex);
    EXPECT_EQ(first[i].score, again[i].score);
  }
}

TEST(GroupQueryTest, EmptyGroupIsRejected) {
  const DirectedGraph graph = testing::SmallRandomGraph(50, 1104, 30);
  auto engine = MakeEngine(graph, Options());
  ASSERT_NE(engine, nullptr);
  const auto response = engine->Query(QueryRequest::ForGroup({}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

// At threshold 0 a member may score a vertex exactly 0.0 and a later
// member score it again. The vote merge must still hand each vertex to
// the collector once: no vertex may appear twice in a group answer.
TEST(GroupQueryTest, NoVertexAppearsTwiceAtThresholdZero) {
  Rng rng(5);
  const DirectedGraph graph = MakeErdosRenyi(200, 300, rng);
  SearchOptions options = Options();
  options.threshold = 0.0;
  options.k = 150;
  options.use_index = false;
  auto engine = MakeEngine(graph, options);
  ASSERT_NE(engine, nullptr);
  const Vertex n = graph.NumVertices();
  for (Vertex a = 0; a + 1 < n; a += 3) {
    const std::vector<Vertex> group = {a, a + 1, (a + 57) % n};
    const QueryResponse response = RunGroup(*engine, group);
    std::set<Vertex> seen;
    for (const ScoredVertex& entry : response.top) {
      EXPECT_TRUE(seen.insert(entry.vertex).second)
          << "vertex " << entry.vertex << " listed twice for group {" << a
          << ", " << a + 1 << ", " << (a + 57) % n << "}";
    }
    // And the answer is the member-order vote reference, bit for bit.
    const auto want = testing::MemberOrderVotes(
        group, options.k,
        [&](Vertex member) { return engine->searcher().Query(member).top; });
    EXPECT_EQ(response.top.size(), want.size()) << a;
    for (size_t i = 0; i < std::min(want.size(), response.top.size()); ++i) {
      EXPECT_EQ(response.top[i].vertex, want[i].vertex) << a;
      EXPECT_EQ(response.top[i].score, want[i].score) << a;
    }
  }
}

}  // namespace
}  // namespace simrank
