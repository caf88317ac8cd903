// Golden-output pins shared by the test suites.
//
// A golden file under tests/golden/ holds sections, each a `[name]` header
// line followed by the section's body lines. Doubles are written as hex
// floats (%a), so a text match is a bitwise match. On a mismatch the test
// fails and the actual section is appended to golden-actual/<file> under
// the test's working directory: review it, and copy it over the checked-in
// section only when a result change is intended (and documented). The
// recorded bits depend on the C library's tanh/exp/expm1, so a platform
// whose libm rounds them differently needs its own recording.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "rl/trainer.h"
#include "util/fs.h"

#ifndef NADA_GOLDEN_DIR
#error "NADA_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace nada::golden {

[[nodiscard]] inline std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

[[nodiscard]] inline std::string hex(std::span<const double> values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ' ';
    out += hex(v);
  }
  return out;
}

/// Every TrainResult field, one per line.
[[nodiscard]] inline std::string format_train_result(
    const rl::TrainResult& r) {
  std::ostringstream out;
  out << "failed " << r.failed << "\n"
      << "error " << r.error << "\n"
      << "train_rewards " << hex(r.train_rewards) << "\n"
      << "test_epochs " << hex(r.test_epochs) << "\n"
      << "test_scores " << hex(r.test_scores) << "\n"
      << "final_score " << hex(r.final_score) << "\n"
      << "emulation_score " << hex(r.emulation_score) << "\n";
  return out.str();
}

[[nodiscard]] inline std::string format_train_results(
    std::span<const rl::TrainResult> results) {
  std::string out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += "job " + std::to_string(i) + "\n";
    out += format_train_result(results[i]);
  }
  return out;
}

/// Body of `[section]` in tests/golden/<file>; empty when absent.
[[nodiscard]] inline std::string golden_section(const std::string& file,
                                                const std::string& section) {
  const auto text =
      util::read_file_if_exists(std::string(NADA_GOLDEN_DIR) + "/" + file);
  if (!text) return {};
  std::istringstream in(*text);
  std::string line;
  std::string body;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '[' && line.back() == ']') {
      if (inside) break;
      inside = line == "[" + section + "]";
      continue;
    }
    if (inside) body += line + "\n";
  }
  return body;
}

/// Line-by-line comparison of `actual` against the checked-in section.
inline void expect_golden(const std::string& file, const std::string& section,
                          const std::string& actual) {
  const std::string golden = golden_section(file, section);
  if (golden == actual) return;
  ADD_FAILURE() << "golden mismatch in " << file << " [" << section << "]";
  std::istringstream want(golden);
  std::istringstream got(actual);
  std::string w;
  std::string g;
  for (std::size_t line = 1;; ++line) {
    const bool has_w = static_cast<bool>(std::getline(want, w));
    const bool has_g = static_cast<bool>(std::getline(got, g));
    if (!has_w && !has_g) break;
    if (!has_w || !has_g || w != g) {
      ADD_FAILURE() << "first difference at line " << line << "\n  golden: "
                    << (has_w ? w : "<end>")
                    << "\n  actual: " << (has_g ? g : "<end>");
      break;
    }
  }
  std::filesystem::create_directories("golden-actual");
  std::ofstream out("golden-actual/" + file, std::ios::app);
  out << "[" << section << "]\n" << actual;
}

}  // namespace nada::golden
