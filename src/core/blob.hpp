#pragma once
/// \file blob.hpp
/// Fixed-layout binary blob serialization for engine checkpoints.
///
/// Checkpoint blobs must be byte-stable across runs of the same build
/// (a restored run is compared bit-for-bit against an uninterrupted
/// one), so every field is written explicitly in little-endian order --
/// no struct memcpy, no padding, no host-endianness leaks. The reader
/// is bounds-checked: a truncated or corrupt blob raises through
/// OTIS_REQUIRE instead of reading past the buffer, and callers treat
/// that as "no usable checkpoint" rather than a fatal error.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace otis::core {

/// FNV-1a (64-bit) over `n` bytes: the checkpoint blob checksum.
[[nodiscard]] inline std::uint64_t fnv1a64(const std::uint8_t* data,
                                           std::size_t n) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ULL;
  }
  return h;
}

/// Append-only little-endian byte buffer.
class BlobWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }

  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  void put_rng(const Rng& rng) {
    for (std::uint64_t lane : rng.state()) {
      put_u64(lane);
    }
  }

  /// Length-prefixed vector of i64.
  void put_i64_vec(const std::vector<std::int64_t>& v) {
    put_u64(v.size());
    for (std::int64_t x : v) {
      put_i64(x);
    }
  }

  void put_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a byte buffer (not owned).
class BlobReader {
 public:
  BlobReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BlobReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  [[nodiscard]] std::uint8_t get_u8() {
    OTIS_REQUIRE(pos_ + 1 <= size_, "BlobReader: truncated blob");
    return data_[pos_++];
  }

  [[nodiscard]] std::uint64_t get_u64() {
    OTIS_REQUIRE(pos_ + 8 <= size_, "BlobReader: truncated blob");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }

  [[nodiscard]] Rng get_rng() {
    std::array<std::uint64_t, 4> lanes{};
    for (std::uint64_t& lane : lanes) {
      lane = get_u64();
    }
    Rng rng;
    rng.set_state(lanes);
    return rng;
  }

  [[nodiscard]] std::vector<std::int64_t> get_i64_vec() {
    const std::uint64_t n = get_u64();
    OTIS_REQUIRE(n <= remaining() / 8, "BlobReader: truncated blob");
    std::vector<std::int64_t> v(static_cast<std::size_t>(n));
    for (std::int64_t& x : v) {
      x = get_i64();
    }
    return v;
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Writes `bytes` to `path` atomically (temp file in the same
/// directory, then rename), so an interrupted writer never leaves a
/// half-written checkpoint where a resume would find it.
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// Reads the whole file into `bytes`; returns false when the file does
/// not exist or cannot be read (never throws).
[[nodiscard]] bool read_file(const std::string& path,
                             std::vector<std::uint8_t>& bytes);

}  // namespace otis::core
