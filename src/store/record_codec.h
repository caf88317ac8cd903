// Record codecs for the candidate store journals.
//
// Two wire formats encode the same store::OutcomeRecord + store::StoreScope
// pair (see docs/STORE_FORMAT.md):
//
//   * binary (".nsb") — the store's journal format: a length-prefixed,
//     checksummed frame per record: `u32 body_len | u64 fnv1a64(body) |
//     body`, all little-endian, after an 8-byte file magic. Fixed field
//     order, strings and double vectors length-prefixed, doubles as raw
//     IEEE-754 bit patterns (non-finite values round-trip exactly, unlike
//     JSON). The frame offsets are what the mmap'd fingerprint index
//     (store/mmap_index.h) points at, so a lookup deserializes exactly one
//     frame.
//   * JSONL — one JSON object per newline-terminated line, the export and
//     import format of tools/store_convert. Key order is canonical
//     (sorted), so decode -> re-encode reproduces a line byte for byte.
//
// Both decoders exist in a scope-filtered flavor (mirrors the store's
// foreign-record skipping) and a scope-preserving "_any" flavor for format
// converters, which must migrate mixed-scope journals losslessly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "store/candidate_store.h"

namespace nada::store {

/// A record paired with the scope its journal line carried. Converters use
/// this to migrate journals without knowing (or unifying) their scopes.
struct ScopedRecord {
  StoreScope scope;
  OutcomeRecord record;
};

// ---- binary journal framing ------------------------------------------------

/// 8-byte magic opening every binary (.nsb) journal.
inline constexpr std::string_view kBinaryJournalMagic = "NSBJRNL1";
/// Frame header: u32 body length + u64 FNV-1a body checksum, little-endian.
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// A declared body length above this is treated as a corrupt length field
/// (lost frame sync), not a real frame.
inline constexpr std::uint32_t kMaxFrameBodyBytes = 64u << 20;

/// Encodes one record as a complete binary frame (header + body).
[[nodiscard]] std::string encode_record(const OutcomeRecord& record,
                                        const StoreScope& scope);

/// Decodes one complete frame (header + body). nullopt when the frame is
/// torn, fails its checksum, malforms, or carries a different scope.
[[nodiscard]] std::optional<OutcomeRecord> decode_record(
    std::string_view frame, const StoreScope& scope);

/// Scope-preserving decode; nullopt only for torn/corrupt frames.
[[nodiscard]] std::optional<ScopedRecord> decode_record_any(
    std::string_view frame);

/// The frames of a whole journal file: `content` past its 8-byte magic.
/// Throws std::runtime_error naming `path` when the magic is missing.
[[nodiscard]] std::string_view journal_frames(std::string_view content,
                                              const std::string& path);

/// Result of walking a journal buffer frame by frame.
struct ScanStats {
  /// Offset (relative to the scanned buffer) where intact framing ends.
  /// Bytes past this point are a torn tail.
  std::uint64_t clean_end = 0;
  std::size_t frames = 0;          ///< checksum-valid frames delivered
  std::size_t corrupt_frames = 0;  ///< checksum-mismatch frames skipped
  bool torn_tail = false;          ///< trailing bytes formed no frame
};

/// Walks `content` — journal bytes AFTER the 8-byte magic — and calls
/// `frame_fn(offset, frame)` for every checksum-valid frame, where `offset`
/// is relative to the start of `content` and `frame` spans header + body.
/// Checksum-mismatch frames with an intact, sane length are skipped and
/// counted (framing survives a flipped body byte); an impossible length or
/// a trailing partial frame ends the scan as a torn tail.
ScanStats scan_binary_journal(
    std::string_view content,
    const std::function<void(std::uint64_t, std::string_view)>& frame_fn);

// ---- JSONL codec (export/import format of the converters) -----------------

[[nodiscard]] std::string encode_jsonl_line(const OutcomeRecord& record,
                                            const StoreScope& scope);
/// nullopt when the line is torn/corrupt or from a different scope.
[[nodiscard]] std::optional<OutcomeRecord> decode_jsonl_line(
    const std::string& line, const StoreScope& scope);
[[nodiscard]] std::optional<ScopedRecord> decode_jsonl_line_any(
    const std::string& line);

}  // namespace nada::store
