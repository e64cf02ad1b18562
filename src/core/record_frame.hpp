// The one on-disk record frame under every durable file in the framework.
//
// Checkpoint snapshots, run journals and the result store log all write
// the same 32-byte header in front of each payload (all integers
// little-endian):
//
//   [0,8)   lead          u64, caller-defined: magic (and a tag)
//   [8,16)  key           u64, caller-defined
//   [16,24) payload_size  u64, at most kMaxPayloadBytes
//   [24,28) payload_crc   u32, crc32 of the payload
//   [28,32) header_crc    u32, crc32 of bytes [0,28)
//
// How each file fills the caller fields:
//
//   snapshot        lead = "ICSCSNAP"              key = kind | version << 32
//   journal record  lead = "JRNL" | kind << 32     key = seq
//   store frame     lead = "RST1" | schema << 32   key = fingerprint
//
// This module owns the codec, the CRC-checked parse, the mid-file resync
// scan and the failpoint-aware I/O helpers; core/checkpoint and
// core/result_store keep only their own policy on top.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace icsc::core {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc = 0);

namespace record_frame {

constexpr std::size_t kHeaderSize = 32;
/// One payload bound for every frame, checked on write and on read: a
/// corrupt size field must not drive a huge allocation during recovery,
/// and a writer must never acknowledge a frame its reader would drop.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 32;

using Header = std::array<std::uint8_t, kHeaderSize>;

// Little-endian field codec, byte by byte (portable across compilers and
// architectures).
void store_u32(std::uint8_t* at, std::uint32_t value);
void store_u64(std::uint8_t* at, std::uint64_t value);
std::uint32_t load_u32(const std::uint8_t* at);
std::uint64_t load_u64(const std::uint8_t* at);

/// A frame's magic: the bits of `lead` selected by `mask` must equal
/// `value`. The remaining lead bits are the caller's tag.
struct Magic {
  std::uint64_t value = 0;
  std::uint64_t mask = ~0ULL;
};

/// Builds the header for `size` payload bytes at `data`. Throws
/// core::Error when `size` exceeds kMaxPayloadBytes, before touching
/// `data`.
Header encode_header(std::uint64_t lead, std::uint64_t key, const void* data,
                     std::size_t size);

/// One parsed frame; `payload` points into the parsed buffer.
struct Frame {
  const char* defect = nullptr;  // why it failed to parse; null when valid
  std::uint64_t lead = 0;
  std::uint64_t key = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;
  std::size_t end = 0;  // offset one past the payload
  bool ok() const { return defect == nullptr; }
};

/// Validates the frame starting at `bytes[at]`: magic, header CRC, size
/// bound, payload within `bytes`, payload CRC (in that order).
Frame parse(std::span<const std::uint8_t> bytes, std::size_t at, Magic magic);

struct ScanResult {
  /// Offset one past the last valid frame: bytes after it are the torn tail.
  std::size_t valid_end = 0;
  /// Corrupt mid-file regions skipped (each at least one lost record).
  std::size_t skipped_regions = 0;
  std::size_t skipped_bytes = 0;
};

/// Calls `on_frame` for every valid frame in `bytes`, in order. Invalid
/// bytes with a valid frame after them are a corrupt mid-file region: the
/// scan resynchronises on the next valid frame and counts the gap. Invalid
/// bytes with no valid frame after them are the torn tail and end the scan.
/// The valid frames' bytes plus skipped_bytes add up to valid_end.
ScanResult scan(std::span<const std::uint8_t> bytes, Magic magic,
                const std::function<void(const Frame&)>& on_frame);

/// Writes one frame through the failpoint layer at `site` as two full
/// writes, header then payload (short writes and EINTR looped). Failures
/// throw core::Error naming `path`; a failpoint crash propagates as
/// failpoint::CrashError.
void write_frame(const char* site, int fd, const Header& header,
                 const void* payload, std::size_t size,
                 const std::string& path);

/// Reads `fd` from `offset` to end of file.
std::vector<std::uint8_t> read_from(int fd, std::uint64_t offset,
                                    const std::string& path);

/// Best-effort fsync of the directory holding `path` (makes a rename or
/// create in it durable).
void fsync_parent_dir(const std::string& path);

}  // namespace record_frame
}  // namespace icsc::core
