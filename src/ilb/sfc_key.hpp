#pragma once

#include <array>
#include <cstdint>

#include "mol/coords.hpp"

/// \file sfc_key.hpp
/// Space-filling-curve keys for the sfc balancing policy: map a 3-D position
/// to a 1-D key whose ordering is the Hilbert curve's traversal order
/// (locality-preserving; Skilling's transposed-form algorithm), at 21 bits
/// per dimension, so a full key fits in 63 bits of a uint64_t.
/// Curve-cut balancing by key prefix-sum follows Eibl & Rüde's SFC scheme
/// (arXiv:1808.00829).

namespace prema::ilb {

/// Bits of resolution per dimension (3*21 = 63 key bits).
inline constexpr int kSfcBitsPerDim = 21;
inline constexpr std::uint32_t kSfcCellMax = (1u << kSfcBitsPerDim) - 1;

/// Hilbert key via Skilling's AxestoTranspose: a 63-bit key whose consecutive
/// values are always face-adjacent cells.
[[nodiscard]] std::uint64_t hilbert_from_cells(std::uint32_t x, std::uint32_t y,
                                               std::uint32_t z);

/// Normalize `c` into the unit cube [0, 1]^3 and take the Hilbert key of its
/// cell. Coordinates outside the cube are clamped to its faces.
[[nodiscard]] std::uint64_t hilbert_key(const mol::Coords& c);

}  // namespace prema::ilb
