#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/failpoint.hpp"
#include "core/trace.hpp"

namespace icsc::core {

namespace {

// Frame fields (core/record_frame):
//   snapshot:       lead = "ICSCSNAP",           key = kind | version << 32
//   journal record: lead = "JRNL" | kind << 32,  key = seq
constexpr record_frame::Magic kSnapshotMagic{0x50414E5343534349ULL};
constexpr record_frame::Magic kJournalMagic{0x4C4E524AULL, 0xFFFFFFFFULL};

/// Whole contents of `path`, or nullopt when it does not exist.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path,
                                                   const char* what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw Error("core::checkpoint", std::string("cannot open ") + what,
                path + ": " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  try {
    bytes = record_frame::read_from(fd, 0, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return bytes;
}

/// Recovers every valid journal record of `kind` from `bytes` into
/// `records` and counts corrupt mid-file records into `*skipped` (one
/// damaged record does not discard every record after it). Returns the
/// offset one past the last valid record. A valid record of another kind
/// means the file belongs to another stream: throws before the caller can
/// truncate anything.
std::size_t scan_journal(const std::vector<std::uint8_t>& bytes,
                         std::uint32_t kind, const std::string& path,
                         std::vector<JournalRecord>* records,
                         std::size_t* skipped) {
  const record_frame::ScanResult scan = record_frame::scan(
      bytes, kJournalMagic, [&](const record_frame::Frame& frame) {
        if (frame.lead >> 32 != kind) {
          throw Error("core::checkpoint", "journal belongs to another stream",
                      path);
        }
        records->push_back(JournalRecord{
            frame.key, {frame.payload, frame.payload + frame.size}});
      });
  *skipped = scan.skipped_regions;
  if (*skipped > 0) ICSC_TRACE_COUNT("journal.skipped_records", *skipped);
  return scan.valid_end;
}

}  // namespace

void SnapshotWriter::put_u32(std::uint32_t value) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 4);
  record_frame::store_u32(bytes_.data() + at, value);
}

void SnapshotWriter::put_u64(std::uint64_t value) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 8);
  record_frame::store_u64(bytes_.data() + at, value);
}

void SnapshotWriter::put_f64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  put_u64(bits);
}

void SnapshotWriter::put_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

void SnapshotWriter::put_string(const std::string& value) {
  put_u64(value.size());
  put_bytes(value.data(), value.size());
}

void SnapshotWriter::save(const std::string& path, std::uint32_t kind,
                          std::uint32_t version) const {
  ICSC_TRACE_SPAN("checkpoint/save");
  ICSC_TRACE_COUNT("checkpoint.saves", 1);
  ICSC_TRACE_COUNT("checkpoint.bytes", bytes_.size());
  const record_frame::Header header = record_frame::encode_header(
      kSnapshotMagic.value, kind | std::uint64_t{version} << 32,
      bytes_.data(), bytes_.size());

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw Error("core::checkpoint", "cannot create snapshot temp file",
                tmp + ": " + std::strerror(errno));
  }
  try {
    record_frame::write_frame("checkpoint/write", fd, header, bytes_.data(),
                              bytes_.size(), tmp);
    if (failpoint::checked_fsync("checkpoint/fsync", fd) != 0) {
      throw Error("core::checkpoint", "fsync failed",
                  tmp + ": " + std::strerror(errno));
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (failpoint::checked_rename("checkpoint/rename", tmp.c_str(),
                                path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw Error("core::checkpoint", "atomic rename failed",
                path + ": " + std::strerror(errno));
  }
  record_frame::fsync_parent_dir(path);
}

std::optional<SnapshotReader> SnapshotReader::try_load(
    const std::string& path, std::uint32_t kind, std::uint32_t max_version) {
  const auto bytes = read_file(path, "snapshot");
  if (!bytes) return std::nullopt;  // fresh start
  const record_frame::Frame frame =
      record_frame::parse(*bytes, 0, kSnapshotMagic);
  if (!frame.ok()) {
    throw Error("core::checkpoint", std::string("snapshot ") + frame.defect,
                path);
  }
  if (frame.end != bytes->size()) {
    throw Error("core::checkpoint", "snapshot has trailing bytes", path);
  }
  if (static_cast<std::uint32_t>(frame.key) != kind) {
    throw Error("core::checkpoint", "snapshot belongs to another stream",
                path);
  }
  const auto version = static_cast<std::uint32_t>(frame.key >> 32);
  if (version > max_version) {
    throw Error("core::checkpoint", "snapshot version too new", path);
  }
  return SnapshotReader(
      std::vector<std::uint8_t>(frame.payload, frame.payload + frame.size),
      version);
}

std::uint8_t SnapshotReader::get_u8() {
  if (remaining() < 1) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  return bytes_[cursor_++];
}

std::uint32_t SnapshotReader::get_u32() {
  if (remaining() < 4) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  const std::uint32_t value = record_frame::load_u32(bytes_.data() + cursor_);
  cursor_ += 4;
  return value;
}

std::uint64_t SnapshotReader::get_u64() {
  if (remaining() < 8) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  const std::uint64_t value = record_frame::load_u64(bytes_.data() + cursor_);
  cursor_ += 8;
  return value;
}

double SnapshotReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::vector<std::uint8_t> SnapshotReader::get_bytes(std::size_t size) {
  if (remaining() < size) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  std::vector<std::uint8_t> out(bytes_.begin() + cursor_,
                                bytes_.begin() + cursor_ + size);
  cursor_ += size;
  return out;
}

std::string SnapshotReader::get_string() {
  const std::uint64_t size = get_u64();
  if (remaining() < size) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  std::string out(reinterpret_cast<const char*>(bytes_.data()) + cursor_,
                  static_cast<std::size_t>(size));
  cursor_ += static_cast<std::size_t>(size);
  return out;
}

RunJournal::RunJournal(const std::string& path, std::uint32_t kind)
    : path_(path), kind_(kind) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    throw Error("core::checkpoint", "cannot open journal",
                path + ": " + std::strerror(errno));
  }
  try {
    const std::vector<std::uint8_t> bytes =
        record_frame::read_from(fd_, 0, path);
    const std::size_t valid_end =
        scan_journal(bytes, kind, path, &recovered_, &skipped_);
    // Truncate the torn tail (if any) so new records append cleanly after
    // the last durable one.
    if (valid_end != bytes.size() && ::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      throw Error("core::checkpoint", "cannot truncate torn journal tail",
                  path + ": " + std::strerror(errno));
    }
    if (::lseek(fd_, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
      throw Error("core::checkpoint", "journal seek failed",
                  path + ": " + std::strerror(errno));
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  next_seq_ = recovered_.empty() ? 0 : recovered_.back().seq + 1;
}

RunJournal::RunJournal(RunJournal&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      kind_(other.kind_),
      next_seq_(other.next_seq_),
      appended_(other.appended_),
      skipped_(other.skipped_),
      recovered_(std::move(other.recovered_)) {
  other.fd_ = -1;
}

RunJournal& RunJournal::operator=(RunJournal&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    kind_ = other.kind_;
    next_seq_ = other.next_seq_;
    appended_ = other.appended_;
    skipped_ = other.skipped_;
    recovered_ = std::move(other.recovered_);
    other.fd_ = -1;
  }
  return *this;
}

RunJournal::~RunJournal() { close(); }

void RunJournal::append(const void* data, std::size_t size) {
  ICSC_TRACE_SPAN("journal/append");
  ICSC_TRACE_COUNT("journal.appends", 1);
  ICSC_TRACE_COUNT("journal.bytes", size);
  if (fd_ < 0) {
    throw Error("core::checkpoint", "append on closed journal", path_);
  }
  const record_frame::Header header = record_frame::encode_header(
      kJournalMagic.value | std::uint64_t{kind_} << 32, next_seq_, data, size);
  record_frame::write_frame("journal/write", fd_, header, data, size, path_);
  if (failpoint::checked_fsync("journal/fsync", fd_) != 0) {
    throw Error("core::checkpoint", "journal fsync failed",
                path_ + ": " + std::strerror(errno));
  }
  ++next_seq_;
  ++appended_;
}

void RunJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::vector<JournalRecord> RunJournal::replay(const std::string& path,
                                              std::uint32_t kind,
                                              std::size_t* skipped_records) {
  const auto bytes = read_file(path, "journal");
  std::vector<JournalRecord> records;
  std::size_t skipped = 0;
  if (bytes) scan_journal(*bytes, kind, path, &records, &skipped);
  if (skipped_records != nullptr) *skipped_records = skipped;
  return records;
}

}  // namespace icsc::core
