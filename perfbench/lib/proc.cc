#include "lib/proc.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

/// The first number after `key` in a "key: value" /proc file.
uint64_t ProcField(const char* file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stoull(line.substr(line.find_first_of("0123456789")));
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

uint64_t WrittenBytes() { return ProcField("/proc/self/io", "wchar:"); }

uint64_t DirBytes(const std::string& path) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(path, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
