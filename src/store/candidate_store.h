// Persistent, content-addressed store of candidate outcomes.
//
// The store is the funnel's memory between runs: an append-only journal
// of per-candidate results keyed by (fingerprint, environment,
// train-config digest). The pipeline checkpoints into it after every
// funnel stage, so
//
//   * a rerun over the same candidate stream skips straight to the
//     recorded results (zero duplicate probes or full trainings),
//   * a run killed mid-funnel resumes from whatever the journal holds —
//     load-on-open tolerates a torn final append (the crash case) by
//     dropping it,
//   * shard stores produced by independent workers merge by union, with
//     the furthest-progressed record winning per fingerprint.
//
// On disk the store is one binary journal (".nsb", docs/STORE_FORMAT.md):
// length-prefixed checksummed frames plus an mmap'd fingerprint->offset
// sidecar ("<journal>.idx"), so open() costs O(index) instead of
// O(records) and lookup() deserializes exactly one frame. Every path
// producer (default paths, shard runners, the supervisor) names ".nsb"
// journals. JSONL is only the lossless export/import format of
// tools/store_convert (store/convert.h); a store path that does not end in
// ".nsb" is refused with a pointer to that tool.
//
// Records carry a Stage marking how far through the funnel the work
// products go; `put` is append-only and monotone (a record never regresses
// the stage already journaled for its fingerprint, and same-stage
// duplicates are not re-appended, so steady-state reruns do not grow the
// file). All public methods are thread-safe: probe/training workers
// checkpoint concurrently from the pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nn/arch.h"
#include "obs/metrics.h"
#include "store/fingerprint.h"
#include "store/mmap_index.h"

namespace nada::store {

struct ScanStats;  // store/record_codec.h

/// How far through the funnel a record's results go.
enum class Stage : int {
  kChecked = 0,  ///< compile + normalization results
  kProbed = 1,   ///< + early-training probe rewards
  kTrained = 2,  ///< + full-scale training scores and curves
};

[[nodiscard]] const char* stage_name(Stage stage);

/// Extension of every store journal.
inline constexpr char kJournalExtension[] = ".nsb";

/// Throws std::invalid_argument unless `path` ends in kJournalExtension.
/// The message names tools/store_convert, which turns a JSONL journal into
/// a store journal. `caller` prefixes the message.
void require_journal_path(const std::string& path, std::string_view caller);

// The store has one format. These three names remain only because the
// benchmark driver (funnelbench/src/funnel_bench.cpp) still calls them to
// name its journals and to report the format: store_format_from_env()
// always returns kBinary and reads no environment variable, and
// journal_extension() returns kJournalExtension.
enum class StoreFormat { kBinary };
[[nodiscard]] StoreFormat store_format_from_env();
[[nodiscard]] const char* journal_extension(StoreFormat format);

/// The work products of one candidate's trip through the funnel. Field for
/// field this mirrors search::CandidateOutcome minus the per-run selection
/// verdict (early_stopped), which depends on the cohort, not the candidate.
struct OutcomeRecord {
  Fingerprint fingerprint;
  Stage stage = Stage::kChecked;
  std::string id;                    ///< generator id of the first sighting
  std::string source;                ///< state source / arch description
  std::optional<nn::ArchSpec> arch;  ///< architecture candidates only
  bool compiled = false;
  std::string compile_error;
  bool normalized = false;
  std::string normalization_error;
  bool early_probed = false;
  std::vector<double> early_rewards;
  bool fully_trained = false;
  double test_score = -1e9;
  double emulation_score = 0.0;
  std::vector<double> curve_epochs;
  std::vector<double> median_curve;
};

/// Scope of a store: results are only comparable within one environment
/// and one training protocol, so both are part of every journal line and
/// are verified at load.
struct StoreScope {
  std::string env;            ///< trace::environment_name of the dataset
  std::string config_digest;  ///< Fingerprint::hex of the funnel config

  [[nodiscard]] bool operator==(const StoreScope&) const = default;
};

class CandidateStore {
 public:
  /// Opens (creating if absent) the journal at `path`, which must end in
  /// ".nsb" (require_journal_path). Records from a different scope or with
  /// corrupt/torn encodings are skipped and counted in
  /// `recovered_line_errors()`; a torn tail is truncated away. The journal
  /// opens through its mmap'd sidecar index when fresh; a stale sidecar
  /// triggers a scan of only the un-indexed tail, a missing/corrupt one a
  /// full rebuild. Throws std::runtime_error on a bad journal header.
  CandidateStore(std::string path, StoreScope scope);
  ~CandidateStore();

  CandidateStore(const CandidateStore&) = delete;
  CandidateStore& operator=(const CandidateStore&) = delete;

  /// Latest-stage record for a fingerprint. Reads exactly one frame from
  /// disk; a frame that fails its checksum is counted in
  /// recovered_line_errors() and reported as a miss.
  [[nodiscard]] std::optional<OutcomeRecord> lookup(
      const Fingerprint& fp) const;

  /// Journals a record. Monotone per fingerprint: ignored entirely when
  /// the indexed record already reached `record.stage`. Appends one frame
  /// and flushes before returning, so a crash after put() never
  /// loses the record; an append that fails (disk full, I/O error) throws
  /// rather than silently dropping durability. Returns true when the
  /// record was accepted.
  bool put(const OutcomeRecord& record);

  /// Number of distinct fingerprints indexed.
  [[nodiscard]] std::size_t size() const;

  /// Snapshot of the latest record per fingerprint, in first-sighting
  /// order. This is the one deliberately O(records) call: it re-scans the
  /// journal (merge paths and tests want the full set; the funnel itself
  /// never calls it).
  [[nodiscard]] std::vector<OutcomeRecord> records() const;

  /// Unions another store's records into this one (same-scope only;
  /// throws std::invalid_argument otherwise). Returns records accepted.
  std::size_t merge_from(const CandidateStore& other);

  /// Rewrites the journal to exactly one record per fingerprint — the
  /// latest-stage record — dropping superseded-stage duplicates, torn
  /// fragments, and foreign/corrupt records accumulated across runs, and
  /// rebuilds the sidecar index. Crash-safe: the compacted journal is
  /// written to "<path>.compact.tmp", flushed, and atomically renamed over
  /// the original, so a crash at any point leaves either the old journal
  /// or the new one, never a mix. Returns the number of journal
  /// records/fragments dropped. Resets recovered_line_errors() to zero
  /// (the rewritten file is clean).
  std::size_t compact();

  /// Rescans the journal and rewrites the sidecar index from scratch.
  /// Returns the number of indexed fingerprints. The sidecar is also
  /// persisted automatically on clean destruction and after open-time
  /// recovery.
  std::size_t rebuild_index();

  /// Attaches a profiling registry (pure readout, never changes journal
  /// bytes): lookup()/put() latencies land in store.lookup.seconds /
  /// store.append.seconds, volumes in store.lookups, store.lookup_hits,
  /// store.appends, store.appends_accepted. Pass nullptr to detach. The
  /// registry must outlive the store (SearchJob wires its
  /// JobOptions::metrics in here automatically).
  void set_metrics(obs::MetricsRegistry* metrics);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const StoreScope& scope() const { return scope_; }
  [[nodiscard]] std::size_t recovered_line_errors() const {
    std::lock_guard lock(mutex_);
    return line_errors_;
  }

  /// Frames deserialized since open (recovery scans, lookup and records()
  /// reads). The allocation guard for "open() materializes nothing": after
  /// an indexed open this is 0, and a cache-hit lookup raises it by
  /// exactly 1.
  [[nodiscard]] std::size_t decoded_frames() const {
    std::lock_guard lock(mutex_);
    return decoded_frames_;
  }

 private:
  struct DeltaEntry {
    std::uint64_t offset = 0;  ///< frame start in the journal
    Stage stage = Stage::kChecked;
  };

  /// Validates the header and indexes the journal; returns true when
  /// recovery scanned records the sidecar did not cover (persist it).
  bool load();
  /// Latest stage for a fingerprint (delta wins over the sidecar).
  std::optional<DeltaEntry> entry_locked(const Fingerprint& fp) const;
  /// Reads + decodes the frame at `offset`; counts a line error and
  /// returns nullopt on checksum/decode failure.
  std::optional<OutcomeRecord> read_frame_locked(std::uint64_t offset) const;
  /// Latest record per fingerprint, in first-sighting order, from a full
  /// journal scan; `stats` (when non-null) receives the scan's counts.
  std::vector<OutcomeRecord> scan_records_locked(
      ScanStats* stats = nullptr) const;
  /// Full journal rescan + sidecar rewrite; returns distinct fingerprints.
  std::size_t rebuild_index_locked();
  /// Merges the mmap'd base index with the in-memory delta and persists
  /// the sidecar. Best-effort in the destructor, loud elsewhere.
  void persist_index_locked();
  std::string index_path() const { return path_ + ".idx"; }
  std::uint64_t scope_hash() const;
  void open_append_handle();

  mutable std::mutex mutex_;
  // atomic, not mutex-guarded: lookup/put read it before taking mutex_ so
  // the recorded latency includes lock wait (the contended part).
  std::atomic<obs::MetricsRegistry*> metrics_{nullptr};
  std::string path_;
  StoreScope scope_;
  std::ofstream out_;  ///< append handle, kept open for the store's life
  /// Read handle for on-demand frame loads (seek + read under mutex_;
  /// reopened after compaction swaps the inode).
  mutable std::ifstream in_;

  // Offsets only; frames are read on demand.
  MmapIndex base_;  ///< mmap'd sidecar (may be closed when journal is new)
  // fingerprint hex -> entry for records appended/upgraded since the
  // sidecar was built (overrides base_).
  std::unordered_map<std::string, DeltaEntry> delta_;
  std::size_t distinct_ = 0;        ///< distinct fingerprints (base + new)
  std::uint64_t append_offset_ = 0; ///< journal byte length
  bool index_dirty_ = false;

  mutable std::size_t line_errors_ = 0;
  mutable std::size_t decoded_frames_ = 0;
};

/// Default journal location: $NADA_STORE_DIR (default "nada_store")
/// /<env>-<digest prefix>.nsb.
[[nodiscard]] std::string default_store_path(const StoreScope& scope);

}  // namespace nada::store
