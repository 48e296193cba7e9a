// Read-only memory-mapped file regions for artifact loading.
//
// MmapRegion wraps a PROT_READ/MAP_PRIVATE POSIX mapping with RAII
// ownership.  The artifact cache hands out a string_view into the mapping
// and keeps it alive through a shared_ptr<MmapRegion>, so a load reads the
// entry in place instead of copying it into a buffer first.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "support/status.h"

namespace fpgadbg::support {

class MmapRegion {
 public:
  /// Maps `path` read-only.  Fails with kNotFound when the file does not
  /// exist and kIoError when it cannot be opened or mapped.  Empty files
  /// yield a valid region with size() == 0.
  static Result<std::shared_ptr<MmapRegion>> map_file(const std::string& path);

  ~MmapRegion();
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  const char* data() const { return static_cast<const char*>(base_); }
  std::size_t size() const { return size_; }
  std::string_view view() const { return {data(), size_}; }

 private:
  MmapRegion(void* base, std::size_t size) : base_(base), size_(size) {}

  void* base_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace fpgadbg::support
