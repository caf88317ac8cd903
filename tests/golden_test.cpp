// End-to-end golden runs of the real shard_worker binary: the ranking
// lines and the journal bytes (size + digest) of fixed-seed single-process
// searches, compared with outputs recorded in tests/golden/. They pin the
// whole funnel — probe, baseline, and full training — across thread counts
// and in streaming mode, so a change to any training path that moves a
// single result bit shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "golden.h"
#include "svc/process.h"
#include "util/fs.h"
#include "util/strings.h"

namespace nada {
namespace {

std::string fresh_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("nada_golden_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Runs `shard_worker --mode single --quiet <args>` into a fresh store and
/// returns the baseline/RANK lines plus one `journal` line per journal
/// file: name, byte count, and FNV-1a digest of the bytes.
std::string single_run(const std::string& name,
                       const std::vector<std::string>& args) {
  const std::string dir = fresh_dir(name);
  std::string command = std::string("'") + NADA_SHARD_WORKER_BIN +
                        "' --mode single --quiet --store-dir '" + dir +
                        "/store'";
  for (const auto& arg : args) command += " " + arg;
  command += " > '" + dir + "/stdout.txt'";
  svc::ChildProcess child =
      svc::ChildProcess::spawn({"/bin/sh", "-c", command});
  const svc::ExitStatus status = child.wait();
  EXPECT_TRUE(status.ok()) << command << ": " << status.describe();

  std::string out;
  std::istringstream stdout_lines(util::read_file(dir + "/stdout.txt"));
  for (std::string line; std::getline(stdout_lines, line);) {
    if (line.rfind("RANK,", 0) == 0 || line.rfind("baseline", 0) == 0) {
      out += line + "\n";
    }
  }
  std::vector<std::filesystem::path> journals;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/store")) {
    journals.push_back(entry.path());
  }
  std::sort(journals.begin(), journals.end());
  for (const auto& path : journals) {
    const std::string bytes = util::read_file(path.string());
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(util::fnv1a64(bytes)));
    out += "journal " + path.filename().string() + " bytes " +
           std::to_string(bytes.size()) + " fnv1a64 " + digest + "\n";
  }
  std::filesystem::remove_all(dir);
  return out;
}

TEST(GoldenRuns, AbrState600SingleThread) {
  golden::expect_golden(
      "shard_worker_runs.txt", "abr-state-600-threads-1",
      single_run("abr1", {"--candidates", "600", "--threads", "1"}));
}

TEST(GoldenRuns, AbrState600FourThreads) {
  golden::expect_golden(
      "shard_worker_runs.txt", "abr-state-600-threads-4",
      single_run("abr4", {"--candidates", "600", "--threads", "4"}));
}

TEST(GoldenRuns, CcArch128Window4) {
  golden::expect_golden(
      "shard_worker_runs.txt", "cc-arch-128-window-4",
      single_run("cc", {"--domain", "cc", "--search", "arch", "--candidates",
                        "128", "--window", "4", "--threads", "4"}));
}

}  // namespace
}  // namespace nada
