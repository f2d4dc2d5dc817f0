#pragma once

#include <array>
#include <cstdint>

#include "mol/coords.hpp"

/// \file sfc_key.hpp
/// Space-filling-curve keys for the sfc balancing policy: map a 3-D position
/// to a 1-D key whose ordering is the curve traversal order. Two curves are
/// provided — Morton (Z-order; cheap bit interleave, some long jumps) and
/// Hilbert (locality-preserving; Skilling's transposed-form algorithm) — at
/// 21 bits per dimension, so a full key fits in 63 bits of a uint64_t.
/// Curve-cut balancing by key prefix-sum follows Eibl & Rüde's SFC scheme
/// (arXiv:1808.00829).

namespace prema::ilb {

/// Bits of resolution per dimension (3*21 = 63 key bits).
inline constexpr int kSfcBitsPerDim = 21;
inline constexpr std::uint32_t kSfcCellMax = (1u << kSfcBitsPerDim) - 1;

/// Axis-aligned box used to normalize application coordinates into the
/// [0, 2^21) integer cell grid. Degenerate extents (max <= min) collapse
/// that axis to cell 0, so 1-D and 2-D embeddings work unchanged.
struct SfcBox {
  mol::Coords min;
  mol::Coords max;
};

/// Morton (Z-order) key: bit i of x lands at key bit 3i, y at 3i+1, z at
/// 3i+2. Cells beyond kSfcCellMax are clamped.
[[nodiscard]] std::uint64_t morton_from_cells(std::uint32_t x, std::uint32_t y,
                                              std::uint32_t z);

/// Hilbert key via Skilling's AxestoTranspose: same 63-bit range as Morton,
/// but consecutive keys are always face-adjacent cells.
[[nodiscard]] std::uint64_t hilbert_from_cells(std::uint32_t x, std::uint32_t y,
                                               std::uint32_t z);

/// Normalize `c` into `box` and take the Morton / Hilbert key of its cell.
[[nodiscard]] std::uint64_t morton_key(const mol::Coords& c, const SfcBox& box);
[[nodiscard]] std::uint64_t hilbert_key(const mol::Coords& c, const SfcBox& box);

}  // namespace prema::ilb
