#include "util/fs.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <system_error>

namespace nada::util {

namespace fs = std::filesystem;

namespace {

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

}  // namespace

bool file_exists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(path, ec);
}

std::optional<std::string> read_file_if_exists(const std::string& path) {
  // "Absent" is decided by the failed open itself (fopen sets errno). A
  // separate existence check after a failed open races write_file_atomic:
  // its rename can land in between and turn a missing file into an error.
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  if (!file) {
    const int err = errno;
    if (err == ENOENT || err == ENOTDIR) return std::nullopt;
    throw std::runtime_error("read_file: cannot open " + path + ": " +
                             std::generic_category().message(err));
  }
  std::string content;
  char chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, file.get())) > 0) {
    content.append(chunk, n);
  }
  if (std::ferror(file.get()) != 0) {
    throw std::runtime_error("read_file: read failed for " + path);
  }
  return content;
}

std::string read_file(const std::string& path) {
  auto content = read_file_if_exists(path);
  if (!content.has_value()) {
    throw std::runtime_error("read_file: no such file " + path);
  }
  return *std::move(content);
}

void write_file_atomic(const std::string& path, const std::string& content) {
  ensure_directories(parent_directory(path));
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("write_file_atomic: cannot open " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("write_file_atomic: write failed for " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("write_file_atomic: rename to " + path +
                             " failed: " + ec.message());
  }
}

void ensure_directories(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    throw std::runtime_error("ensure_directories: cannot create " + path +
                             ": " + ec.message());
  }
}

std::string parent_directory(const std::string& path) {
  return fs::path(path).parent_path().string();
}

}  // namespace nada::util
