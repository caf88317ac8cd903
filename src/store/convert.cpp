#include "store/convert.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "store/candidate_store.h"
#include "store/record_codec.h"
#include "util/fs.h"
#include "util/strings.h"

namespace nada::store {
namespace {

bool is_binary(const std::string& path) {
  return path.ends_with(kJournalExtension);
}

// Streams every decodable (record, scope) pair out of a journal in order,
// counting what open-time recovery would have skipped.
std::vector<ScopedRecord> read_journal(const std::string& path,
                                       std::size_t* skipped) {
  const auto content = util::read_file_if_exists(path);
  if (!content.has_value()) {
    throw std::runtime_error("store_convert: cannot read " + path);
  }
  std::vector<ScopedRecord> out;
  if (is_binary(path)) {
    const ScanStats stats = scan_binary_journal(
        journal_frames(*content, "store_convert: " + path),
        [&](std::uint64_t, std::string_view frame) {
          if (auto scoped = decode_record_any(frame)) {
            out.push_back(std::move(*scoped));
          } else {
            ++*skipped;
          }
        });
    *skipped += stats.corrupt_frames + (stats.torn_tail ? 1 : 0);
    return out;
  }
  std::size_t start = 0;
  while (start < content->size()) {
    std::size_t end = content->find('\n', start);
    const bool torn = end == std::string::npos;
    if (torn) end = content->size();
    const std::string line = content->substr(start, end - start);
    start = end + 1;
    if (util::trim(line).empty()) continue;
    if (auto scoped = decode_jsonl_line_any(line); scoped && !torn) {
      out.push_back(std::move(*scoped));
    } else {
      ++*skipped;
    }
  }
  return out;
}

}  // namespace

ConvertStats convert_journal(const std::string& in_path,
                             const std::string& out_path) {
  ConvertStats stats;
  const std::vector<ScopedRecord> records =
      read_journal(in_path, &stats.skipped);

  const std::string tmp_path = out_path + ".tmp";
  util::ensure_directories(util::parent_directory(out_path));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("store_convert: cannot open " + tmp_path);
    }
    if (is_binary(out_path)) {
      out.write(kBinaryJournalMagic.data(),
                static_cast<std::streamsize>(kBinaryJournalMagic.size()));
      for (const auto& scoped : records) {
        const std::string frame = encode_record(scoped.record, scoped.scope);
        out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
      }
    } else {
      for (const auto& scoped : records) {
        out << encode_jsonl_line(scoped.record, scoped.scope) << '\n';
      }
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("store_convert: write to " + tmp_path +
                               " failed");
    }
  }
  // A sidecar left by an earlier journal at out_path describes other bytes;
  // drop it before the new journal appears so the first open rebuilds it.
  if (is_binary(out_path)) std::remove((out_path + ".idx").c_str());
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    throw std::runtime_error("store_convert: rename " + tmp_path + " -> " +
                             out_path + " failed");
  }
  stats.records = records.size();
  return stats;
}

}  // namespace nada::store
