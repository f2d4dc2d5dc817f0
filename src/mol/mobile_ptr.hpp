#pragma once

#include <cstdint>
#include <functional>

#include "sim/types.hpp"
#include "support/byte_buffer.hpp"

/// \file mobile_ptr.hpp
/// The Mobile Object Layer's global name: a `mobile_ptr` identifies an
/// application object independently of which processor currently holds it
/// (Chrisochoides et al., "Mobile object layer", 2000). The pair
/// (home processor, index) is unique machine-wide; the home processor keeps
/// the authoritative forwarding directory for the pointers it allocated.

namespace prema::mol {

struct MobilePtr {
  ProcId home = kNoProc;
  std::uint32_t index = 0;

  [[nodiscard]] bool is_null() const { return home == kNoProc; }

  friend bool operator==(const MobilePtr&, const MobilePtr&) = default;
  friend auto operator<=>(const MobilePtr&, const MobilePtr&) = default;
};

inline constexpr MobilePtr kNullMobilePtr{};

/// Wire codec of a MobilePtr: home rank, then index.
inline void put_ptr(util::ByteWriter& w, const MobilePtr& p) {
  w.put<ProcId>(p.home);
  w.put<std::uint32_t>(p.index);
}

inline MobilePtr get_ptr(util::ByteReader& r) {
  MobilePtr p;
  p.home = r.get<ProcId>();
  p.index = r.get<std::uint32_t>();
  return p;
}

}  // namespace prema::mol

template <>
struct std::hash<prema::mol::MobilePtr> {
  std::size_t operator()(const prema::mol::MobilePtr& p) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.home)) << 32) |
        p.index);
  }
};
