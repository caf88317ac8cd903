// Lossless journal format conversion: binary store journal (".nsb") <->
// JSONL, the export/import format.
//
// `convert_journal` rewrites a journal into the format implied by the
// output path's extension, preserving record order, per-record scope, and
// duplicate entries (a journal is an append-only history; conversion must
// not collapse it). Torn tails and corrupt frames/lines are skipped and
// counted, exactly as CandidateStore's open-time recovery would skip them.
//
// A converted binary journal carries no sidecar index — CandidateStore
// rebuilds one on first open (and scopes it to its own filter), so the
// converter stays scope-agnostic and can migrate mixed-scope journals.
#pragma once

#include <cstddef>
#include <string>

namespace nada::store {

struct ConvertStats {
  std::size_t records = 0;  ///< records re-encoded into the output
  std::size_t skipped = 0;  ///< torn/corrupt/blank journal units dropped
};

/// Converts the journal at `in_path` into `out_path`. Formats are implied
/// by the extensions (".nsb" = binary, anything else JSONL); converting
/// between two paths of the same format is a valid (normalizing) copy.
/// Writes through "<out_path>.tmp" + atomic rename. Throws
/// std::runtime_error when the input is missing/unreadable or the output
/// cannot be written.
ConvertStats convert_journal(const std::string& in_path,
                             const std::string& out_path);

}  // namespace nada::store
