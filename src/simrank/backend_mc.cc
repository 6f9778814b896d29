#include "simrank/backend_mc.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace simrank {

MonteCarloBackend::MonteCarloBackend(const DirectedGraph& graph,
                                     const SearchOptions& options)
    : searcher_(graph, options) {}

MonteCarloBackend::MonteCarloBackend(TopKSearcher searcher)
    : searcher_(std::move(searcher)) {
  if (searcher_.index_built()) {
    pair_estimator_ = std::make_unique<MonteCarloSimRank>(
        searcher_.graph(), searcher_.options().simrank, searcher_.diagonal());
  }
}

void MonteCarloBackend::Build(ThreadPool* pool) {
  searcher_.BuildIndex(pool);
  if (pair_estimator_ == nullptr) {
    pair_estimator_ = std::make_unique<MonteCarloSimRank>(
        searcher_.graph(), searcher_.options().simrank, searcher_.diagonal());
  }
}

QueryResult MonteCarloBackend::Query(Vertex query,
                                     const QueryOverrides& overrides) const {
  return searcher_.Query(query, overrides);
}

double MonteCarloBackend::Pair(Vertex u, Vertex v) const {
  if (u == v) return 1.0;
  // Algorithm 1 with a pair-derived seed: the same (u, v) always scores
  // identically for a fixed options.seed. The refine budget is scaled up —
  // single-pair calls are rare, so we buy variance down to the level the
  // top-k path reaches via pruning + adaptive refinement.
  const SearchOptions& opts = searcher_.options();
  const uint32_t walks = std::max<uint32_t>(opts.profile_walks,
                                            16 * opts.refine_walks);
  Rng rng(MixSeeds(opts.seed, MixSeeds(0x5EEDFA1ull + u, v)));
  return pair_estimator_->SinglePair(u, v, walks, rng);
}

}  // namespace simrank
