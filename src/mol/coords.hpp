#pragma once

#include <cstdint>

#include "mol/mobile_ptr.hpp"

/// \file coords.hpp
/// Value types of the topology view that ilb::PolicyContext exposes to
/// balancing policies. Only Coords carries data today: the MOL keeps one
/// per object (Mol::set_coords) and ships it with the object on migration.
/// CommEdge and ProcTraffic remain as the element types of PolicyContext's
/// defaulted comm_edges() / proc_traffic() views, which no balancer fills.

namespace prema::mol {

/// Spatial position registered by the application for a mobile object. The
/// paper's target applications are mesh refiners; coordinates are whatever
/// embedding the application chooses (element centroid, tile index, ...).
struct Coords {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// One directed object-to-object traffic edge (aggregated counts).
struct CommEdge {
  MobilePtr src;
  MobilePtr dst;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

/// Aggregated traffic sent from one processor toward `proc`.
struct ProcTraffic {
  ProcId proc = kNoProc;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

}  // namespace prema::mol
