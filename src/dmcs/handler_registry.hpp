#pragma once

#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "dmcs/message.hpp"

/// \file handler_registry.hpp
/// Maps handler ids to callable handlers. Handler ids must agree across all
/// processors of a machine (they travel in message headers), so registration
/// is by name and registering the same name twice aborts.

namespace prema::dmcs {

class Node;

/// An active-message handler. Runs on the destination processor with the
/// destination's Node context; may send further messages and charge compute.
using Handler = std::function<void(Node&, Message&&)>;

class HandlerRegistry {
 public:
  /// Register `fn` under `name` and return its id. Aborts on duplicate names:
  /// a machine's handler set must be assembled exactly once.
  HandlerId add(const std::string& name, Handler fn);

  /// The handler registered under `id`; aborts if out of range.
  [[nodiscard]] const Handler& handler(HandlerId id) const;

 private:
  std::vector<Handler> handlers_;        // index = id - 1 (0 is kNoHandler)
  std::unordered_set<std::string> registered_;
};

}  // namespace prema::dmcs
