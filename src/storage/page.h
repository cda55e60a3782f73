// Fixed-size disk page and page identifiers.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

namespace atis::storage {

/// Disk block size in bytes. Matches parameter B of the paper (Table 4A).
inline constexpr size_t kPageSize = 4096;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = UINT32_MAX;

/// Raw page buffer. Typed accessors let page-format code read/write
/// fixed-width fields without manual casting (and without UB: memcpy).
class Page {
 public:
  Page() { Zero(); }

  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

  void Zero() { bytes_.fill(0); }

  template <typename T>
  T ReadAt(size_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, bytes_.data() + offset, sizeof(T));
    return value;
  }

  template <typename T>
  void WriteAt(size_t offset, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  // An empty record's span may carry a null pointer, and memcpy with a
  // null argument is undefined even for zero bytes.
  void ReadBytes(size_t offset, void* dest, size_t len) const {
    if (len != 0) std::memcpy(dest, bytes_.data() + offset, len);
  }

  void WriteBytes(size_t offset, const void* src, size_t len) {
    if (len != 0) std::memcpy(bytes_.data() + offset, src, len);
  }

 private:
  std::array<uint8_t, kPageSize> bytes_;
};

}  // namespace atis::storage
