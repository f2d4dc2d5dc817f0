#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ilb/policy.hpp"
#include "ilb/sfc_key.hpp"

/// \file sfc.hpp
/// Space-filling-curve curve-cut rebalancing (Eibl & Rüde, arXiv:1808.00829):
/// every object gets a 1-D key from its spatial coordinates (Hilbert order),
/// the global load is prefix-summed along the curve, and the curve is cut
/// into nprocs equal-load segments; each processor then ships its
/// out-of-segment objects to the segment owner. Locality comes for free — a
/// curve segment is a spatially compact blob.
///
/// Distributed realization: processors periodically report a sparse
/// key-bucket load histogram to a coordinator (rank 0); the coordinator
/// checks the per-rank loads, and only when the machine is out of balance
/// merges the histograms, prefix-sums, recuts when the cut improves the
/// imbalance, and broadcasts the cut table. Objects without registered
/// coordinates hash to a deterministic bucket so they still land somewhere
/// stable.

namespace prema::ilb {

class SfcPolicy final : public Policy {
 public:
  /// Number of key buckets in the reported histogram (top bits of the key).
  /// Histograms are sparse sorted vectors, so the wire/memory cost scales
  /// with the number of *occupied* buckets (bounded by the object count),
  /// not with kBuckets — so this can be generous. It must be: each bucket is
  /// an unsplittable cut unit, and the top B bits of an interleaved 3-D key
  /// give only B/3 octree levels of resolution per axis. 10 bits (~3 levels)
  /// collapses a line of objects into ~8 usable cells, merging neighboring
  /// processors' loads into single buckets that no cut can separate; 20 bits
  /// (~6.7 levels) resolves ~100 cells along a line.
  static constexpr int kBucketBits = 20;
  static constexpr std::uint32_t kBuckets = 1u << kBucketBits;

  [[nodiscard]] std::string_view name() const override { return "sfc"; }
  [[nodiscard]] bool wants_topology() const override { return true; }
  void init(PolicyContext& ctx) override;
  void on_poll(PolicyContext& ctx) override;
  void on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                  util::ByteReader& body) override;
  void on_work_arrived(PolicyContext& ctx) override;
  void on_gossip(PolicyContext&, const GossipSummary&) override {}

  /// Bucket index for one object (key top bits; coordless objects hash).
  /// The key is computed once per coordinate: it is reused while
  /// object_coords() keeps returning the coordinates it came from.
  [[nodiscard]] std::uint32_t bucket_of(PolicyContext& ctx,
                                        const mol::MobilePtr& ptr);

  /// One occupied bucket of a load histogram.
  struct Bin {
    std::uint32_t bucket = 0;
    double load = 0.0;
  };

  struct Stats {
    std::uint64_t reports_sent = 0;
    std::uint64_t cuts_broadcast = 0;  ///< coordinator only
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // Tags chosen outside the scalar policies' 1..6 range so stray in-flight
  // messages from a pre-switch policy are recognizably foreign (ignored).
  static constexpr PolicyTag kHist = 20;
  static constexpr PolicyTag kCuts = 21;

  void report(PolicyContext& ctx);
  /// Coordinator: keep `hist` (sorted, one bin per bucket) as `rank`'s latest.
  void store_report(PolicyContext& ctx, ProcId rank, std::vector<Bin> hist);
  void maybe_recut(PolicyContext& ctx);
  void apply_cuts(PolicyContext& ctx);
  /// The rank owning `bucket` under the current cut table.
  [[nodiscard]] ProcId owner_of(std::uint32_t bucket) const;

  Stats stats_;
  double next_report_ = 0.0;
  double next_recut_ = 0.0;  ///< coordinator only
  int idle_reports_ = 0;

  /// Segment start buckets, one per rank, ascending (start_[0] == 0; an
  /// empty segment starts at kBuckets); empty until the first cut table
  /// arrives.
  std::vector<std::uint32_t> start_;

  /// A resident object's bucket and the coordinates it was computed from.
  struct CachedBucket {
    mol::Coords coords;
    std::uint32_t bucket = 0;
  };
  /// Lookup only (never iterated); an entry goes when its object ships.
  std::unordered_map<mol::MobilePtr, CachedBucket> buckets_;

  // -- coordinator state (rank 0 only) -------------------------------------
  /// One rank's latest report.
  struct RankReport {
    std::vector<Bin> hist;  ///< sorted by bucket, one bin per bucket
    double load = 0.0;      ///< hist's loads summed in bucket order
    bool fresh = false;     ///< reported since the last cut
  };
  /// Indexed by rank; sized at the first report.
  std::vector<RankReport> reports_;
};

}  // namespace prema::ilb
