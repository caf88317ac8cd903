// Test helper: a store journal's records as sorted JSONL lines.
//
// Equivalence tests compare the journals of two runs whose append order
// differs (sharded vs single, batch vs streaming, supervised vs
// uninterrupted). Decoding every checksum-valid frame — duplicates and
// superseded stages included, foreign scopes too — and re-encoding it in
// the canonical JSONL export schema gives a byte-comparable multiset that
// is independent of append order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/record_codec.h"
#include "util/fs.h"

namespace nada::journals {

inline std::vector<std::string> sorted_lines(const std::string& path) {
  const std::string content = util::read_file(path);
  std::vector<std::string> lines;
  store::scan_binary_journal(
      store::journal_frames(content, path),
      [&](std::uint64_t, std::string_view frame) {
        if (const auto scoped = store::decode_record_any(frame)) {
          lines.push_back(
              store::encode_jsonl_line(scoped->record, scoped->scope));
        }
      });
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace nada::journals
