#include "core/record_frame.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/failpoint.hpp"

namespace icsc::core {

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

namespace record_frame {

void store_u32(std::uint8_t* at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

void store_u64(std::uint8_t* at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint32_t load_u32(const std::uint8_t* at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{at[i]} << (8 * i);
  return value;
}

std::uint64_t load_u64(const std::uint8_t* at) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{at[i]} << (8 * i);
  return value;
}

Header encode_header(std::uint64_t lead, std::uint64_t key, const void* data,
                     std::size_t size) {
  if (size > kMaxPayloadBytes) {
    throw Error("core::record_frame", "payload over the frame size bound",
                std::to_string(size) + " > " +
                    std::to_string(kMaxPayloadBytes) + " bytes");
  }
  Header header{};
  store_u64(header.data(), lead);
  store_u64(header.data() + 8, key);
  store_u64(header.data() + 16, size);
  store_u32(header.data() + 24, crc32(data, size));
  store_u32(header.data() + 28, crc32(header.data(), kHeaderSize - 4));
  return header;
}

Frame parse(std::span<const std::uint8_t> bytes, std::size_t at, Magic magic) {
  Frame frame;
  if (bytes.size() - at < kHeaderSize) {
    frame.defect = "truncated (header)";
    return frame;
  }
  const std::uint8_t* head = bytes.data() + at;
  frame.lead = load_u64(head);
  if ((frame.lead & magic.mask) != magic.value) {
    frame.defect = "bad magic";
  } else if (crc32(head, kHeaderSize - 4) != load_u32(head + 28)) {
    frame.defect = "header CRC mismatch";
  } else if (const std::uint64_t size = load_u64(head + 16);
             size > kMaxPayloadBytes) {
    frame.defect = "payload size over bound";
  } else if (bytes.size() - at - kHeaderSize < size) {
    frame.defect = "truncated (payload)";
  } else if (crc32(head + kHeaderSize, static_cast<std::size_t>(size)) !=
             load_u32(head + 24)) {
    frame.defect = "payload CRC mismatch";
  } else {
    frame.key = load_u64(head + 8);
    frame.payload = head + kHeaderSize;
    frame.size = static_cast<std::size_t>(size);
    frame.end = at + kHeaderSize + frame.size;
  }
  return frame;
}

ScanResult scan(std::span<const std::uint8_t> bytes, Magic magic,
                const std::function<void(const Frame&)>& on_frame) {
  ScanResult result;
  std::size_t cursor = 0;
  while (cursor < bytes.size()) {
    const Frame frame = parse(bytes, cursor, magic);
    if (frame.ok()) {
      on_frame(frame);
      cursor = frame.end;
      result.valid_end = cursor;
      continue;
    }
    // Invalid bytes at `cursor`: search for the next offset that parses
    // as a complete valid frame. Found -> the gap was a corrupt mid-file
    // region (bit-flip, interrupted overwrite): count it and resume there.
    // Not found -> everything from `cursor` on is the torn tail.
    std::size_t next = cursor + 1;
    while (next + kHeaderSize <= bytes.size() &&
           !parse(bytes, next, magic).ok()) {
      ++next;
    }
    if (next + kHeaderSize > bytes.size()) break;
    ++result.skipped_regions;
    result.skipped_bytes += next - cursor;
    cursor = next;
  }
  return result;
}

namespace {

void write_all(const char* site, int fd, const void* data, std::size_t size,
               const std::string& path) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t written = failpoint::checked_write(site, fd, bytes, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw Error("core::record_frame", "write failed",
                  path + ": " + std::strerror(errno));
    }
    bytes += written;
    size -= static_cast<std::size_t>(written);
  }
}

}  // namespace

void write_frame(const char* site, int fd, const Header& header,
                 const void* payload, std::size_t size,
                 const std::string& path) {
  write_all(site, fd, header.data(), header.size(), path);
  write_all(site, fd, payload, size, path);
}

std::vector<std::uint8_t> read_from(int fd, std::uint64_t offset,
                                    const std::string& path) {
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    throw Error("core::record_frame", "seek failed",
                path + ": " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 65536> chunk;
  for (;;) {
    const ssize_t got = ::read(fd, chunk.data(), chunk.size());
    if (got < 0) {
      if (errno == EINTR) continue;
      throw Error("core::record_frame", "read failed",
                  path + ": " + std::strerror(errno));
    }
    if (got == 0) break;
    bytes.insert(bytes.end(), chunk.data(), chunk.data() + got);
  }
  return bytes;
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best-effort: rename durability on exotic filesystems
  ::fsync(fd);
  ::close(fd);
}

}  // namespace record_frame
}  // namespace icsc::core
