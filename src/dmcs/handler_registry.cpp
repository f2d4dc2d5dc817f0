#include "dmcs/handler_registry.hpp"

#include <utility>

#include "support/assert.hpp"

namespace prema::dmcs {

HandlerId HandlerRegistry::add(const std::string& name, Handler fn) {
  PREMA_CHECK_MSG(!name.empty(), "handler name must be non-empty");
  const bool fresh = registered_.insert(name).second;
  PREMA_CHECK_MSG(fresh, "duplicate handler registration");
  handlers_.push_back(std::move(fn));
  return static_cast<HandlerId>(handlers_.size());  // ids start at 1
}

const Handler& HandlerRegistry::handler(HandlerId id) const {
  PREMA_CHECK_MSG(id != kNoHandler && id <= handlers_.size(), "bad handler id");
  return handlers_[id - 1];
}

}  // namespace prema::dmcs
