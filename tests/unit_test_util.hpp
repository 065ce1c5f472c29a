// Hand-built unit descriptions for tests that drive a UnitManager
// directly, below the execution plugin.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "pilot/compute_unit.hpp"
#include "pilot/unit_manager.hpp"

namespace entk::pilot {

/// Wraps a hand-built description the way units hold it: shared and
/// immutable.
inline SharedUnitDescription share_description(UnitDescription description) {
  return std::make_shared<const UnitDescription>(std::move(description));
}

/// The one way tests submit hand-built descriptions: stamps each with
/// the manager's session, as the execution plugin does, shares it and
/// calls UnitManager::submit_units.
inline Result<std::vector<ComputeUnitPtr>> submit_descriptions(
    UnitManager& manager, std::vector<UnitDescription> descriptions) {
  std::vector<SharedUnitDescription> shared;
  shared.reserve(descriptions.size());
  for (auto& description : descriptions) {
    description.session = manager.session();
    shared.push_back(share_description(std::move(description)));
  }
  return manager.submit_units(shared);
}

}  // namespace entk::pilot
