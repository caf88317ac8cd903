#include "store/candidate_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "obs/scoped_timer.h"
#include "store/record_codec.h"
#include "util/fs.h"

namespace nada::store {
namespace {

constexpr std::uint64_t kMagicBytes = 8;

bool entry_less(const MmapIndex::Entry& a, const MmapIndex::Entry& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

void resize_journal(const std::string& path, std::uint64_t bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, bytes, ec);
  if (ec) {
    throw std::runtime_error("CandidateStore: cannot truncate torn tail of " +
                             path + ": " + ec.message());
  }
}

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kChecked: return "checked";
    case Stage::kProbed: return "probed";
    case Stage::kTrained: return "trained";
  }
  return "?";
}

void require_journal_path(const std::string& path, std::string_view caller) {
  if (path.ends_with(kJournalExtension)) return;
  throw std::invalid_argument(
      std::string(caller) + ": " + path + " is not a store journal (" +
      kJournalExtension + "); convert a JSONL journal with tools/store_convert "
      "--in <journal>.jsonl --out <journal>" + kJournalExtension);
}

StoreFormat store_format_from_env() { return StoreFormat::kBinary; }

const char* journal_extension(StoreFormat) { return kJournalExtension; }

CandidateStore::CandidateStore(std::string path, StoreScope scope)
    : path_(std::move(path)), scope_(std::move(scope)) {
  require_journal_path(path_, "CandidateStore");
  if (scope_.env.empty() || scope_.config_digest.empty()) {
    throw std::invalid_argument("CandidateStore: empty scope");
  }
  util::ensure_directories(util::parent_directory(path_));
  const bool fresh_index = load();
  open_append_handle();
  if (fresh_index) {
    // Recovery scanned records the sidecar did not cover; persist so the
    // next open is O(index) again. Loud: an unwritable sidecar here means
    // every future open pays a full rescan.
    persist_index_locked();
  }
}

CandidateStore::~CandidateStore() {
  if (!index_dirty_) return;
  // Best-effort: the sidecar is a cache, and a failed write here only costs
  // the next open a tail scan.
  try {
    std::lock_guard lock(mutex_);
    persist_index_locked();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

std::uint64_t CandidateStore::scope_hash() const {
  return MmapIndex::scope_hash(scope_.env, scope_.config_digest);
}

void CandidateStore::open_append_handle() {
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("CandidateStore: cannot open " + path_ +
                             " for append");
  }
  if (append_offset_ < kMagicBytes) {
    // Brand-new journal (or one whose torn creation was truncated away):
    // the magic goes down before any record can.
    out_.write(kBinaryJournalMagic.data(),
               static_cast<std::streamsize>(kBinaryJournalMagic.size()));
    out_.flush();
    if (!out_) {
      throw std::runtime_error("CandidateStore: cannot initialize " + path_);
    }
    append_offset_ = kMagicBytes;
  }
  in_.open(path_, std::ios::binary);
  if (!in_) {
    throw std::runtime_error("CandidateStore: cannot open " + path_ +
                             " for reading");
  }
}

bool CandidateStore::load() {
  std::error_code ec;
  const auto raw_size = std::filesystem::file_size(path_, ec);
  if (ec) return false;  // missing: open_append_handle creates it
  std::uint64_t file_size = raw_size;

  {
    std::ifstream probe(path_, std::ios::binary);
    char magic[kMagicBytes] = {};
    probe.read(magic, sizeof(magic));
    const auto got = static_cast<std::size_t>(probe.gcount());
    if (got < kMagicBytes) {
      if (std::memcmp(magic, kBinaryJournalMagic.data(), got) == 0) {
        // Crash during journal creation: nothing durable existed yet.
        resize_journal(path_, 0);
        return false;
      }
      throw std::runtime_error("CandidateStore: " + path_ +
                               " is not a binary store journal (short/bad "
                               "header)");
    }
    if (std::memcmp(magic, kBinaryJournalMagic.data(), kMagicBytes) != 0) {
      throw std::runtime_error(
          "CandidateStore: " + path_ +
          " is not a binary store journal (bad magic); was a JSONL journal "
          "renamed to .nsb? use tools/store_convert");
    }
  }
  append_offset_ = file_size;

  // Fast path: a sidecar that covers the journal exactly - O(index) open,
  // no record ever touched.
  if (base_.open(index_path(), scope_hash())) {
    if (base_.covered_bytes() == file_size) {
      distinct_ = base_.size();
      return false;
    }
    if (base_.covered_bytes() >= kMagicBytes &&
        base_.covered_bytes() < file_size) {
      // The journal grew past the sidecar (appends after the last clean
      // close, or a crash before the sidecar flush): scan only the tail.
      const std::uint64_t covered = base_.covered_bytes();
      std::string tail;
      {
        std::ifstream in(path_, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(covered));
        tail.resize(static_cast<std::size_t>(file_size - covered));
        in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
        if (static_cast<std::uint64_t>(in.gcount()) != tail.size()) {
          throw std::runtime_error("CandidateStore: short read of " + path_);
        }
      }
      distinct_ = base_.size();
      const ScanStats stats = scan_binary_journal(
          tail, [&](std::uint64_t offset, std::string_view frame) {
            auto record = decode_record(frame, scope_);
            if (!record.has_value()) {
              ++line_errors_;  // foreign scope or malformed body
              return;
            }
            ++decoded_frames_;
            const std::string key = record->fingerprint.hex();
            const auto it = delta_.find(key);
            std::optional<Stage> current;
            if (it != delta_.end()) {
              current = it->second.stage;
            } else if (const auto entry = base_.find(record->fingerprint)) {
              current = static_cast<Stage>(entry->stage);
            }
            if (!current.has_value()) ++distinct_;
            if (!current.has_value() || *current < record->stage) {
              delta_[key] = DeltaEntry{covered + offset, record->stage};
            }
          });
      line_errors_ += stats.corrupt_frames;
      if (stats.torn_tail) {
        ++line_errors_;
        file_size = covered + stats.clean_end;
        resize_journal(path_, file_size);
        append_offset_ = file_size;
      }
      return true;
    }
    // covered > file_size: the journal shrank under the sidecar (external
    // rewrite); the entries point past EOF. Rebuild from scratch.
    base_.close();
  }
  rebuild_index_locked();
  return false;  // rebuild_index_locked already persisted the sidecar
}

std::size_t CandidateStore::rebuild_index_locked() {
  std::string content = util::read_file_if_exists(path_).value_or("");
  if (content.size() < kMagicBytes) content.clear();
  std::unordered_map<std::string, MmapIndex::Entry> latest;
  line_errors_ = 0;
  const std::string_view frames_view =
      content.empty() ? std::string_view{}
                      : std::string_view(content).substr(kMagicBytes);
  const ScanStats stats = scan_binary_journal(
      frames_view, [&](std::uint64_t offset, std::string_view frame) {
        auto record = decode_record(frame, scope_);
        if (!record.has_value()) {
          ++line_errors_;
          return;
        }
        ++decoded_frames_;
        MmapIndex::Entry entry;
        entry.hi = record->fingerprint.hi;
        entry.lo = record->fingerprint.lo;
        entry.offset = kMagicBytes + offset;
        entry.stage = static_cast<std::uint32_t>(record->stage);
        auto [it, inserted] =
            latest.emplace(record->fingerprint.hex(), entry);
        if (!inserted && it->second.stage < entry.stage) it->second = entry;
      });
  line_errors_ += stats.corrupt_frames;
  std::uint64_t covered = content.empty() ? kMagicBytes
                                          : kMagicBytes + stats.clean_end;
  if (stats.torn_tail) {
    ++line_errors_;
    resize_journal(path_, covered);
  }
  append_offset_ = covered;

  std::vector<MmapIndex::Entry> entries;
  entries.reserve(latest.size());
  for (auto& [key, entry] : latest) entries.push_back(entry);
  std::sort(entries.begin(), entries.end(), entry_less);
  MmapIndex::write(index_path(), entries, covered, scope_hash());
  if (!base_.open(index_path(), scope_hash())) {
    throw std::runtime_error("CandidateStore: cannot map rebuilt index " +
                             index_path());
  }
  delta_.clear();
  distinct_ = base_.size();
  index_dirty_ = false;
  return distinct_;
}

std::size_t CandidateStore::rebuild_index() {
  std::lock_guard lock(mutex_);
  return rebuild_index_locked();
}

void CandidateStore::persist_index_locked() {
  std::vector<MmapIndex::Entry> fresh;
  fresh.reserve(delta_.size());
  for (const auto& [key, d] : delta_) {
    const auto fp = Fingerprint::from_hex(key);
    MmapIndex::Entry entry;
    entry.hi = fp->hi;
    entry.lo = fp->lo;
    entry.offset = d.offset;
    entry.stage = static_cast<std::uint32_t>(d.stage);
    fresh.push_back(entry);
  }
  std::sort(fresh.begin(), fresh.end(), entry_less);

  // Merge the sorted delta over the sorted base; delta wins on ties.
  std::vector<MmapIndex::Entry> merged;
  merged.reserve(base_.size() + fresh.size());
  const MmapIndex::Entry* b = base_.entries();
  const MmapIndex::Entry* b_end = b + base_.size();
  std::size_t f = 0;
  while (b != b_end || f < fresh.size()) {
    if (b == b_end) {
      merged.push_back(fresh[f++]);
    } else if (f == fresh.size()) {
      merged.push_back(*b++);
    } else if (entry_less(*b, fresh[f])) {
      merged.push_back(*b++);
    } else if (entry_less(fresh[f], *b)) {
      merged.push_back(fresh[f++]);
    } else {
      merged.push_back(fresh[f++]);
      ++b;
    }
  }
  MmapIndex::write(index_path(), merged, append_offset_, scope_hash());
  if (!base_.open(index_path(), scope_hash())) {
    throw std::runtime_error("CandidateStore: cannot map index " +
                             index_path());
  }
  delta_.clear();
  index_dirty_ = false;
}

void CandidateStore::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_.store(metrics, std::memory_order_release);
}

std::optional<CandidateStore::DeltaEntry> CandidateStore::entry_locked(
    const Fingerprint& fp) const {
  const auto it = delta_.find(fp.hex());
  if (it != delta_.end()) return it->second;
  if (const auto entry = base_.find(fp)) {
    return DeltaEntry{entry->offset, static_cast<Stage>(entry->stage)};
  }
  return std::nullopt;
}

std::optional<OutcomeRecord> CandidateStore::read_frame_locked(
    std::uint64_t offset) const {
  if (!in_.is_open()) return std::nullopt;
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  std::string header(kFrameHeaderBytes, '\0');
  in_.read(header.data(), static_cast<std::streamsize>(header.size()));
  if (static_cast<std::size_t>(in_.gcount()) != header.size()) {
    ++line_errors_;
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(header[i]))
           << (8 * i);
  }
  if (len > kMaxFrameBodyBytes ||
      offset + kFrameHeaderBytes + len > append_offset_) {
    ++line_errors_;
    return std::nullopt;
  }
  std::string frame = std::move(header);
  frame.resize(kFrameHeaderBytes + len);
  in_.read(frame.data() + kFrameHeaderBytes, static_cast<std::streamsize>(len));
  if (static_cast<std::size_t>(in_.gcount()) != len) {
    ++line_errors_;
    return std::nullopt;
  }
  auto record = decode_record(frame, scope_);
  if (!record.has_value()) {
    // The index pointed here but the bytes no longer decode (flipped bit,
    // partial overwrite): surface as a miss + recovery count, never as a
    // crash — the funnel recomputes the candidate instead.
    ++line_errors_;
    return std::nullopt;
  }
  ++decoded_frames_;
  return record;
}

std::optional<OutcomeRecord> CandidateStore::lookup(
    const Fingerprint& fp) const {
  obs::MetricsRegistry* metrics = metrics_.load(std::memory_order_acquire);
  obs::ScopedTimer timer(obs::maybe_histogram(metrics, "store.lookup.seconds"));
  std::lock_guard lock(mutex_);
  std::optional<OutcomeRecord> result;
  if (const auto entry = entry_locked(fp)) {
    result = read_frame_locked(entry->offset);
  }
  if (metrics != nullptr) {
    metrics->counter("store.lookups").add();
    if (result.has_value()) metrics->counter("store.lookup_hits").add();
  }
  return result;
}

bool CandidateStore::put(const OutcomeRecord& record) {
  if (record.fingerprint.is_zero()) {
    throw std::invalid_argument("CandidateStore::put: zero fingerprint");
  }
  obs::MetricsRegistry* metrics = metrics_.load(std::memory_order_acquire);
  obs::ScopedTimer timer(obs::maybe_histogram(metrics, "store.append.seconds"));
  if (metrics != nullptr) metrics->counter("store.appends").add();
  std::lock_guard lock(mutex_);
  const auto existing = entry_locked(record.fingerprint);
  if (existing.has_value() && existing->stage >= record.stage) return false;
  if (metrics != nullptr) metrics->counter("store.appends_accepted").add();
  const std::string frame = encode_record(record, scope_);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) {
    // Losing durability silently (e.g. ENOSPC) would let a run keep
    // "checkpointing" into the void; fail loudly instead.
    throw std::runtime_error("CandidateStore: append to " + path_ +
                             " failed (disk full or I/O error)");
  }
  delta_[record.fingerprint.hex()] =
      DeltaEntry{append_offset_, record.stage};
  if (!existing.has_value()) ++distinct_;
  append_offset_ += frame.size();
  index_dirty_ = true;
  return true;
}

std::size_t CandidateStore::size() const {
  std::lock_guard lock(mutex_);
  return distinct_;
}

std::vector<OutcomeRecord> CandidateStore::scan_records_locked(
    ScanStats* stats) const {
  std::vector<OutcomeRecord> out;
  const auto content = util::read_file_if_exists(path_);
  if (!content.has_value() || content->size() < kMagicBytes) return out;
  std::unordered_map<std::string, std::size_t> by_key;
  const ScanStats scanned = scan_binary_journal(
      std::string_view(*content).substr(kMagicBytes),
      [&](std::uint64_t, std::string_view frame) {
        auto record = decode_record(frame, scope_);
        if (!record.has_value()) return;  // snapshot: no error mutation
        ++decoded_frames_;
        const std::string key = record->fingerprint.hex();
        const auto it = by_key.find(key);
        if (it == by_key.end()) {
          by_key.emplace(key, out.size());
          out.push_back(std::move(*record));
        } else if (out[it->second].stage < record->stage) {
          out[it->second] = std::move(*record);
        }
      });
  if (stats != nullptr) *stats = scanned;
  return out;
}

std::vector<OutcomeRecord> CandidateStore::records() const {
  std::lock_guard lock(mutex_);
  return scan_records_locked();
}

std::size_t CandidateStore::merge_from(const CandidateStore& other) {
  if (!(other.scope() == scope_)) {
    throw std::invalid_argument(
        "CandidateStore::merge_from: scope mismatch (" + other.scope().env +
        "/" + other.scope().config_digest + " vs " + scope_.env + "/" +
        scope_.config_digest + ")");
  }
  std::size_t accepted = 0;
  for (const auto& record : other.records()) {
    if (put(record)) ++accepted;
  }
  return accepted;
}

std::size_t CandidateStore::compact() {
  std::lock_guard lock(mutex_);
  // Count live journal units (frames, corrupt frames, a torn fragment) so
  // the caller learns how much was reclaimed.
  ScanStats stats;
  const std::vector<OutcomeRecord> keep = scan_records_locked(&stats);
  const std::size_t old_units =
      stats.frames + stats.corrupt_frames + (stats.torn_tail ? 1 : 0);

  const std::string tmp_path = path_ + ".compact.tmp";
  std::vector<MmapIndex::Entry> entries;
  entries.reserve(keep.size());
  std::uint64_t offset = kMagicBytes;
  {
    std::ofstream tmp(tmp_path, std::ios::binary | std::ios::trunc);
    if (!tmp) {
      throw std::runtime_error("CandidateStore::compact: cannot open " +
                               tmp_path);
    }
    tmp.write(kBinaryJournalMagic.data(),
              static_cast<std::streamsize>(kBinaryJournalMagic.size()));
    for (const auto& record : keep) {
      const std::string frame = encode_record(record, scope_);
      tmp.write(frame.data(), static_cast<std::streamsize>(frame.size()));
      MmapIndex::Entry entry;
      entry.hi = record.fingerprint.hi;
      entry.lo = record.fingerprint.lo;
      entry.offset = offset;
      entry.stage = static_cast<std::uint32_t>(record.stage);
      entries.push_back(entry);
      offset += frame.size();
    }
    tmp.flush();
    if (!tmp) {
      throw std::runtime_error("CandidateStore::compact: write to " +
                               tmp_path + " failed");
    }
  }

  // Swap the compacted file in atomically. Both handles must be re-opened
  // either way: after a rename the old ones point at an unlinked inode and
  // further puts would checkpoint into the void.
  out_.close();
  in_.close();
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    // Leave the original journal intact; reopen it before surfacing the
    // failure.
    out_.open(path_, std::ios::binary | std::ios::app);
    in_.open(path_, std::ios::binary);
    throw std::runtime_error("CandidateStore::compact: rename " + tmp_path +
                             " -> " + path_ + " failed");
  }
  append_offset_ = offset;
  out_.open(path_, std::ios::binary | std::ios::app);
  in_.open(path_, std::ios::binary);
  if (!out_ || !in_) {
    throw std::runtime_error("CandidateStore::compact: cannot reopen " +
                             path_);
  }
  std::sort(entries.begin(), entries.end(), entry_less);
  MmapIndex::write(index_path(), entries, append_offset_, scope_hash());
  if (!base_.open(index_path(), scope_hash())) {
    throw std::runtime_error("CandidateStore::compact: cannot map index " +
                             index_path());
  }
  delta_.clear();
  distinct_ = keep.size();
  index_dirty_ = false;
  line_errors_ = 0;
  return old_units > keep.size() ? old_units - keep.size() : 0;
}

std::string default_store_path(const StoreScope& scope) {
  const char* dir = std::getenv("NADA_STORE_DIR");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : "nada_store";
  return base + "/" + scope.env + "-" + scope.config_digest.substr(0, 16) +
         kJournalExtension;
}

}  // namespace nada::store
