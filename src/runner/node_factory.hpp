// Scheme -> AllocatorNode construction for the World.
#pragma once

#include <memory>

#include "proto/allocator.hpp"
#include "runner/scenario.hpp"

namespace dca::runner {

[[nodiscard]] std::unique_ptr<proto::AllocatorNode> make_node(
    const proto::NodeContext& ctx, Scheme scheme, const ScenarioConfig& config);

/// Instantiates the scenario's allocation policy from the registry. Aborts
/// on unresolvable specs — validate_scenario() rejects those with a proper
/// error first, so reaching the abort means a caller skipped validation.
[[nodiscard]] std::unique_ptr<const proto::AllocationPolicy> make_policy(
    const ScenarioConfig& config);

}  // namespace dca::runner
