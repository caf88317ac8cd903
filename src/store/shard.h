// Fingerprint-range shard planning for multi-worker searches.
//
// A ShardPlan splits the 64-bit fingerprint `hi` space into N contiguous,
// equal-width ranges. Every worker runs the same generator stream, keeps
// only the candidates whose fingerprint falls in its range, journals into
// its own store file, and a final merge unions the shard stores. Because
// assignment is by content hash, the partition is stable across runs,
// machines, and candidate orderings — the properties systematic coverage
// tracking needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "store/candidate_store.h"
#include "store/fingerprint.h"

namespace nada::store {

class ShardPlan {
 public:
  /// Splits the fingerprint space across `num_shards` workers (>= 1).
  explicit ShardPlan(std::size_t num_shards);

  [[nodiscard]] std::size_t num_shards() const { return num_shards_; }

  /// Which shard owns a fingerprint. In [0, num_shards).
  [[nodiscard]] std::size_t shard_of(const Fingerprint& fp) const;

  /// Inclusive bounds [lo, hi] on Fingerprint::hi for shard `i`. Ranges
  /// are contiguous and cover the whole 64-bit space exactly once.
  struct Range {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    [[nodiscard]] bool operator==(const Range&) const = default;
    /// Membership is on Fingerprint::hi, matching shard_of.
    [[nodiscard]] bool contains(const Fingerprint& fp) const {
      return fp.hi >= lo && fp.hi <= hi;
    }
    /// Number of distinct hi values covered; 0 means the full 2^64 space
    /// (the count does not fit in 64 bits).
    [[nodiscard]] std::uint64_t width() const { return hi - lo + 1; }
    /// A single-hi-value range cannot be split further.
    [[nodiscard]] bool splittable() const { return lo < hi; }
  };
  [[nodiscard]] Range range(std::size_t shard) const;

  /// Partitions indices of `fingerprints` by owning shard (outer size ==
  /// num_shards; each inner vector preserves input order).
  [[nodiscard]] std::vector<std::vector<std::size_t>> partition(
      std::span<const Fingerprint> fingerprints) const;

 private:
  std::size_t num_shards_;
};

/// Splits `parent` at `boundary` into ([lo, boundary-1], [boundary, hi]).
/// The two halves partition the parent exactly: no gap, no overlap, and the
/// union of fingerprints they contain is the parent's set bit-for-bit.
/// Requires parent.lo < boundary <= parent.hi (throws std::invalid_argument
/// otherwise — a boundary at parent.lo would make the left half empty, and
/// a single-hi-value range is not splittable).
[[nodiscard]] std::pair<ShardPlan::Range, ShardPlan::Range> split_range(
    ShardPlan::Range parent, std::uint64_t boundary);

/// split_range at the midpoint: the left half gets ceil(width/2) of the hi
/// values. Requires parent.splittable().
[[nodiscard]] std::pair<ShardPlan::Range, ShardPlan::Range> split_midpoint(
    ShardPlan::Range parent);

/// Reads each shard journal (read-only; throws std::runtime_error when a
/// path is missing or is not a binary journal, std::invalid_argument —
/// before reading anything — when a path does not end in ".nsb") and
/// unions its records into `dest` under dest's scope. Returns the number
/// of records accepted into dest.
std::size_t merge_shard_files(std::span<const std::string> shard_paths,
                              CandidateStore& dest);

/// Crash-tolerant variant for supervised runs: journals of workers that
/// died before their first append may simply not exist, and that is fine —
/// whatever the merged store misses, the driver's funnel pass recomputes
/// (bit-identically, since per-candidate seeds are fingerprint-derived).
/// Missing paths are skipped and counted in `*missing` when non-null;
/// existing journals merge exactly as merge_shard_files.
std::size_t merge_existing_shard_files(std::span<const std::string> paths,
                                       CandidateStore& dest,
                                       std::size_t* missing = nullptr);

}  // namespace nada::store
