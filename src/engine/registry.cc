#include "engine/registry.h"

#include <string>
#include <utility>

namespace ses::engine {

namespace {

/// One engine: its listed row plus the factory that builds it.
struct EngineEntry {
  EngineInfo info;
  Result<std::unique_ptr<Engine>> (*create)(
      std::shared_ptr<const plan::CompiledPlan>, EngineOptions);
};

/// Sorted by name, so ListEngines needs no sort.
constexpr EngineEntry kEngines[] = {
    {{"parallel",
      "hash-sharded multi-threaded runtime with incremental emission"},
     CreateParallelEngine},
    {{"partitioned",
      "serial partition-pure execution, one automaton bank per key"},
     CreatePartitionedEngine},
    {{"serial", "one global automaton over the whole stream"},
     CreateSerialEngine},
};

const EngineEntry* FindEngine(std::string_view name) {
  for (const EngineEntry& entry : kEngines) {
    if (entry.info.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::vector<EngineInfo> ListEngines() {
  std::vector<EngineInfo> infos;
  for (const EngineEntry& entry : kEngines) infos.push_back(entry.info);
  return infos;
}

Result<std::unique_ptr<Engine>> CreateEngine(
    std::string_view name, std::shared_ptr<const plan::CompiledPlan> plan,
    EngineOptions options) {
  const EngineEntry* entry = FindEngine(name);
  if (entry == nullptr) {
    std::string known;
    for (const EngineEntry& row : kEngines) {
      if (!known.empty()) known += ", ";
      known += row.info.name;
    }
    return Status::NotFound("unknown engine '" + std::string(name) +
                            "' (known engines: " + known + ")");
  }
  return entry->create(std::move(plan), std::move(options));
}

}  // namespace ses::engine
