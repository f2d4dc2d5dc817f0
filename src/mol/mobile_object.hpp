#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/byte_buffer.hpp"

/// \file mobile_object.hpp
/// Base class for application data that the runtime may migrate between
/// processors, plus the machine-wide factory registry used to rebuild an
/// object from its wire form on the destination processor.

namespace prema::mol {

/// A migratable unit of application data (a mesh subdomain, a tree node, a
/// chare's state...). Subclasses define how to serialize themselves; the
/// matching factory is registered in the ObjectTypeRegistry under the same
/// type id on every processor.
class MobileObject {
 public:
  virtual ~MobileObject() = default;

  /// Stable type tag used to pick the deserialization factory.
  [[nodiscard]] virtual std::uint32_t type_id() const = 0;

  /// Write the object's full state for migration.
  virtual void serialize(util::ByteWriter& w) const = 0;
};

using ObjectFactory =
    std::function<std::unique_ptr<MobileObject>(util::ByteReader&)>;

/// Maps type ids to factories. Shared by all processors of a machine; must be
/// fully populated before the machine runs (SPMD registration).
class ObjectTypeRegistry {
 public:
  void add(std::uint32_t type_id, ObjectFactory factory) {
    PREMA_CHECK_MSG(factories_.emplace(type_id, std::move(factory)).second,
                    "duplicate mobile-object type id");
  }

  [[nodiscard]] std::unique_ptr<MobileObject> make(std::uint32_t type_id,
                                                   util::ByteReader& r) const {
    auto it = factories_.find(type_id);
    PREMA_CHECK_MSG(it != factories_.end(), "unknown mobile-object type id");
    return it->second(r);
  }

  [[nodiscard]] bool contains(std::uint32_t type_id) const {
    return factories_.find(type_id) != factories_.end();
  }

 private:
  std::unordered_map<std::uint32_t, ObjectFactory> factories_;
};

}  // namespace prema::mol
