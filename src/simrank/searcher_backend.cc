#include "simrank/searcher_backend.h"

#include <array>
#include <memory>
#include <string>
#include <utility>

#include "simrank/backend_exact.h"
#include "simrank/backend_mc.h"
#include "simrank/serialization.h"
#include "simrank/sling.h"

namespace simrank {

namespace {

constexpr std::array<BackendKind, kNumBackendKinds> kRegisteredBackends = {
    BackendKind::kMonteCarlo,
    BackendKind::kSling,
    BackendKind::kExact,
};

}  // namespace

std::string_view BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMonteCarlo:
      return "mc";
    case BackendKind::kSling:
      return "sling";
    case BackendKind::kExact:
      return "exact";
  }
  return "unknown";
}

std::optional<BackendKind> ParseBackendKind(std::string_view name) {
  for (BackendKind kind : kRegisteredBackends) {
    if (name == BackendKindName(kind)) return kind;
  }
  return std::nullopt;
}

std::string_view BackendChoiceName(BackendChoice choice) {
  if (choice == BackendChoice::kAuto) return "auto";
  return BackendKindName(static_cast<BackendKind>(choice));
}

std::optional<BackendChoice> ParseBackendChoice(std::string_view name) {
  if (name == "auto") return BackendChoice::kAuto;
  if (std::optional<BackendKind> kind = ParseBackendKind(name);
      kind.has_value()) {
    return static_cast<BackendChoice>(*kind);
  }
  return std::nullopt;
}

std::unique_ptr<SearcherBackend> MakeBackend(BackendKind kind,
                                             const DirectedGraph& graph,
                                             const SearchOptions& options) {
  switch (kind) {
    case BackendKind::kMonteCarlo:
      return std::make_unique<MonteCarloBackend>(graph, options);
    case BackendKind::kSling:
      return std::make_unique<SlingBackend>(graph, options);
    case BackendKind::kExact:
      return std::make_unique<ExactBackend>(graph, options);
  }
  return nullptr;
}

std::span<const BackendKind> RegisteredBackends() {
  return kRegisteredBackends;
}

Status SaveBackendIndex(const SearcherBackend& backend,
                        const std::string& path) {
  if (!backend.capabilities().serializable) {
    return Status::InvalidArgument(std::string("backend '") +
                                   std::string(backend.name()) +
                                   "' has no serializable index");
  }
  if (!backend.built()) {
    return Status::InvalidArgument("backend index not built; call Build()");
  }
  switch (backend.kind()) {
    case BackendKind::kMonteCarlo:
      return SaveSearcherIndex(
          static_cast<const MonteCarloBackend&>(backend).searcher(), path);
    case BackendKind::kSling:
      return SaveSlingIndex(static_cast<const SlingBackend&>(backend).index(),
                            path);
    case BackendKind::kExact:
      break;
  }
  return Status::InvalidArgument("backend has no serializable index");
}

Result<std::unique_ptr<SearcherBackend>> LoadBackendIndex(
    BackendKind kind, const DirectedGraph& graph, const SearchOptions& options,
    const std::string& path) {
  switch (kind) {
    case BackendKind::kMonteCarlo: {
      Result<TopKSearcher> searcher = LoadSearcherIndex(graph, options, path);
      if (!searcher.ok()) return searcher.status();
      return {std::make_unique<MonteCarloBackend>(std::move(searcher).value())};
    }
    case BackendKind::kSling: {
      Result<SlingIndex> index = LoadSlingIndex(graph, options, path);
      if (!index.ok()) return index.status();
      return {std::make_unique<SlingBackend>(graph, options,
                                             std::move(index).value())};
    }
    case BackendKind::kExact:
      break;
  }
  return Status::InvalidArgument(
      std::string("backend '") + std::string(BackendKindName(kind)) +
      "' has no serializable index to load");
}

Status BackendPolicy::Validate() const {
  if (exact_max_vertices > sling_max_vertices ||
      exact_max_edges > sling_max_edges) {
    return Status::InvalidArgument(
        "backend policy: exact tier caps must not exceed the sling tier "
        "caps");
  }
  return Status::OK();
}

BackendKind SelectBackend(const GraphStats& stats,
                          const BackendPolicy& policy) {
  if (stats.num_vertices <= policy.exact_max_vertices &&
      stats.num_edges <= policy.exact_max_edges) {
    return BackendKind::kExact;
  }
  if (stats.num_vertices <= policy.sling_max_vertices &&
      stats.num_edges <= policy.sling_max_edges) {
    return BackendKind::kSling;
  }
  return BackendKind::kMonteCarlo;
}

}  // namespace simrank
