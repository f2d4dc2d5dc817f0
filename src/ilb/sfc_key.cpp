#include "ilb/sfc_key.hpp"

#include <algorithm>

namespace prema::ilb {

namespace {

/// Map one coordinate into [0, kSfcCellMax]: the unit interval, clamped.
std::uint32_t to_cell(double v) {
  const double f = std::clamp(v, 0.0, 1.0);
  const auto cell = static_cast<std::uint64_t>(f * static_cast<double>(kSfcCellMax + 1ull));
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(cell, kSfcCellMax));
}

}  // namespace

std::uint64_t hilbert_from_cells(std::uint32_t x, std::uint32_t y,
                                 std::uint32_t z) {
  // Skilling, "Programming the Hilbert curve" (AIP Conf. Proc. 707, 2004):
  // transform the axes in place so that interleaving them afterwards yields
  // the Hilbert index (transposed form).
  std::array<std::uint32_t, 3> a{x & kSfcCellMax, y & kSfcCellMax,
                                 z & kSfcCellMax};
  constexpr int b = kSfcBitsPerDim;
  const std::uint32_t m = 1u << (b - 1);

  // Inverse undo: gray-decode the axes top bit down.
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    const std::uint32_t p = q - 1;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if ((a[i] & q) != 0) {
        a[0] ^= p;  // invert
      } else {
        const std::uint32_t t = (a[0] ^ a[i]) & p;
        a[0] ^= t;  // exchange
        a[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (std::size_t i = 1; i < a.size(); ++i) a[i] ^= a[i - 1];
  std::uint32_t t = 0;
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    if ((a[2] & q) != 0) t ^= q - 1;
  }
  for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= t;

  // Interleave the transposed axes MSB-first: key bit (3*(b-1-j) + 2 - i)
  // takes bit (b-1-j) of axis i, axis 0 being the most significant.
  std::uint64_t key = 0;
  for (int j = b - 1; j >= 0; --j) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      key = (key << 1) | ((a[i] >> j) & 1u);
    }
  }
  return key;
}

std::uint64_t hilbert_key(const mol::Coords& c) {
  return hilbert_from_cells(to_cell(c.x), to_cell(c.y), to_cell(c.z));
}

}  // namespace prema::ilb
