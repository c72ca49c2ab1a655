#ifndef SES_ENGINE_REGISTRY_H_
#define SES_ENGINE_REGISTRY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "engine/engine.h"

namespace ses::engine {

/// One row of the engine table, as returned by ListEngines.
struct EngineInfo {
  std::string_view name;
  std::string_view description;
};

// The fixed name → factory table behind every "which engine" decision: the
// CLI's --engine flag, the server, the catalog, the engine-comparison bench
// and the cross-engine equivalence tests all resolve evaluation strategies
// through these functions. The table holds the three built-in engines
// ("parallel", "partitioned", "serial") and never changes at run time.

/// The built-in engines, sorted by name.
std::vector<EngineInfo> ListEngines();

/// True when `name` is a built-in engine. Lets composite evaluators (the
/// multi-pattern catalog, which instantiates one engine per plan) validate
/// the engine choice at construction instead of failing on the first plan
/// registration.
bool HasEngine(std::string_view name);

/// Instantiates the named engine from `plan`. NotFound for an unknown name
/// (the message lists the built-in ones); otherwise whatever the engine's
/// factory returns (e.g. FailedPrecondition when a partition-pure engine is
/// asked to run a non-partitionable plan).
Result<std::unique_ptr<Engine>> CreateEngine(
    std::string_view name, std::shared_ptr<const plan::CompiledPlan> plan,
    EngineOptions options);

}  // namespace ses::engine

#endif  // SES_ENGINE_REGISTRY_H_
