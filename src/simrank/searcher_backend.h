#ifndef SIMRANK_SIMRANK_SEARCHER_BACKEND_H_
#define SIMRANK_SIMRANK_SEARCHER_BACKEND_H_

// The pluggable query-serving backend contract.
//
// The engine originally hard-wired one algorithm — the paper's
// Monte-Carlo walks + bound pruning (TopKSearcher). SearcherBackend
// extracts the backend-agnostic surface of that class (preprocess,
// single-source top-k, pair score, capability and memory reporting) so
// that alternative engines — a SLING-style precomputed index
// (simrank/sling.h), the exact linear-formulation oracle
// (simrank/backend_exact.h), and future PRSim/spectral/sharded points —
// plug into service::QueryEngine behind one interface. Group requests
// are score-sum voting over single-source queries, done once for every
// backend in service::QueryEngine.
//
// Every backend answers the same question ("vertices most similar to u
// under truncated SimRank, scores >= threshold") with a different
// space/time/accuracy tradeoff; SelectBackend() is the stat-driven
// default policy choosing among them (overridable per engine and per
// request at the service layer).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "graph/graph.h"
#include "graph/stats.h"
#include "simrank/top_k_searcher.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace simrank {

/// Identity of a concrete backend implementation. The numeric values are
/// stable: they participate in the result-cache key, the per-query event
/// records and the serialized-index headers.
enum class BackendKind : uint8_t {
  kMonteCarlo = 0,  ///< the paper's MC walks + L1/L2 bound pruning
  kSling = 1,       ///< SLING-style precomputed hitting-probability index
  kExact = 2,       ///< exact linear-formulation oracle (small graphs)
};

inline constexpr size_t kNumBackendKinds = 3;

/// Stable short name ("mc", "sling", "exact"): metric suffixes, JSON
/// fields and the CLI --backend grammar all use these tokens.
std::string_view BackendKindName(BackendKind kind);

/// Parses a BackendKindName token; nullopt for anything else.
std::optional<BackendKind> ParseBackendKind(std::string_view name);

/// A backend request: one concrete kind, or automatic stat-driven
/// selection (SelectBackend over the graph's ComputeGraphStats summary).
/// The concrete values mirror BackendKind so the two convert by cast.
enum class BackendChoice : uint8_t {
  kMonteCarlo = 0,
  kSling = 1,
  kExact = 2,
  kAuto = 255,
};

/// "mc" / "sling" / "exact" / "auto" — the CLI --backend grammar.
std::string_view BackendChoiceName(BackendChoice choice);

/// Parses a BackendChoiceName token; nullopt for anything else.
std::optional<BackendChoice> ParseBackendChoice(std::string_view name);

/// What a backend can and cannot do, reported so callers (engine,
/// contract tests, benches) adapt without switching on the kind.
struct BackendCapabilities {
  /// Build() does real work (an index must be constructed before
  /// queries); false when construction is already query-ready.
  bool needs_build = false;
  /// The preprocess state round-trips through SaveBackendIndex /
  /// LoadBackendIndex.
  bool serializable = false;
  /// Scores are sampling-free: two builds with any seeds agree exactly.
  bool deterministic = false;
  /// Supports the checkpointed all-pairs runner (simrank/all_pairs.h);
  /// today that machinery is tied to the Monte-Carlo kernel.
  bool checkpointed_all_pairs = false;
};

/// One query-serving algorithm over a fixed graph. Implementations are
/// constructed unbuilt, preprocess in Build() (idempotent), and must
/// answer Query/Pair concurrently from any number of threads
/// once built. The graph must outlive the backend.
class SearcherBackend {
 public:
  virtual ~SearcherBackend() = default;

  virtual BackendKind kind() const = 0;
  std::string_view name() const { return BackendKindName(kind()); }
  virtual BackendCapabilities capabilities() const = 0;

  /// Runs the preprocess phase (no-op where capabilities().needs_build is
  /// false). `pool` may be null (serial). Idempotent.
  virtual void Build(ThreadPool* pool = nullptr) = 0;
  virtual bool built() const = 0;

  /// Seconds spent in the last Build() call (0 for build-free backends).
  virtual double preprocess_seconds() const = 0;

  /// Bytes held by the backend's preprocess structures (0 when none).
  virtual uint64_t MemoryBytes() const = 0;

  /// Best-first top-k ranking of `query` (scores >= threshold). Requires
  /// built(). Thread-safe. `overrides` applies the per-request runtime
  /// knobs; backends ignore overrides they have no analog for
  /// (refine_walks on the deterministic backends).
  virtual QueryResult Query(Vertex query,
                            const QueryOverrides& overrides = {}) const = 0;

  /// Single-pair score s(u, v). Thread-safe; requires built().
  virtual double Pair(Vertex u, Vertex v) const = 0;

  virtual const DirectedGraph& graph() const = 0;
  virtual const SearchOptions& options() const = 0;
};

/// Constructs an unbuilt backend of `kind`. `options` must already be
/// validated (engine entry points do; direct callers should call
/// options.Validate() first). The graph must outlive the backend.
std::unique_ptr<SearcherBackend> MakeBackend(BackendKind kind,
                                             const DirectedGraph& graph,
                                             const SearchOptions& options);

/// Every backend kind the build registers, in BackendKind value order —
/// the iteration surface for the parameterized contract tests and the
/// backend-vs-backend benches.
std::span<const BackendKind> RegisteredBackends();

/// Persists a built backend's preprocess state with the durable-write
/// machinery (temp + fsync + rename). InvalidArgument for backends whose
/// capabilities().serializable is false or that are not built.
Status SaveBackendIndex(const SearcherBackend& backend,
                        const std::string& path);

/// Restores a query-ready backend of `kind` from `path`. The file must
/// have been written by SaveBackendIndex for the same kind, graph and
/// parameters (validated, never trusted).
Result<std::unique_ptr<SearcherBackend>> LoadBackendIndex(
    BackendKind kind, const DirectedGraph& graph,
    const SearchOptions& options, const std::string& path);

/// The stat-driven backend-selection policy: thresholds on the graph
/// summary statistics that decide which backend a graph defaults to.
/// Exact wins while per-query O(T^2 m) sparse propagation is cheap;
/// the SLING index wins while its O(n * T / eps)-ish footprint is
/// affordable; the Monte-Carlo engine is the scale fallback (its cost is
/// independent of n). All limits are inclusive.
struct BackendPolicy {
  /// Largest graph served exactly (n and m caps).
  uint64_t exact_max_vertices = 256;
  uint64_t exact_max_edges = 4096;
  /// Largest graph the SLING index is built for by default.
  uint64_t sling_max_vertices = 1u << 17;
  uint64_t sling_max_edges = 1u << 21;

  /// Rejects inconsistent tiers (exact cap above the sling cap).
  Status Validate() const;
};

/// Applies `policy` to `stats`: the backend an "auto" engine serves with.
BackendKind SelectBackend(const GraphStats& stats,
                          const BackendPolicy& policy = {});

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_SEARCHER_BACKEND_H_
