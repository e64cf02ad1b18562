#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/failpoint.hpp"

namespace icsc::core {
namespace {

constexpr std::uint32_t kKind = 0x54534554;  // "TEST"
constexpr std::uint32_t kOtherKind = 0x52485430;

/// Per-test scratch directory; removed afterwards so ctest re-runs start
/// from a clean slate.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/icsc_ckpt_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  static std::vector<std::uint8_t> slurp(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
  }

  static void spew(const std::string& file,
                   const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check string. Any polynomial/reflection mistake
  // breaks this, and with it on-disk compatibility of every snapshot.
  const char msg[] = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(msg, 0), 0u);
  // Incremental computation over a split span matches one shot.
  EXPECT_EQ(crc32(msg + 4, 5, crc32(msg, 4)), 0xCBF43926u);
}

TEST(SnapshotCodec, AllFieldTypesRoundTripBitExactly) {
  SnapshotWriter writer;
  writer.put_u8(0xAB);
  writer.put_u32(0xDEADBEEFu);
  writer.put_u64(0x0123456789ABCDEFull);
  writer.put_i32(-42);
  writer.put_i64(-(1ll << 40));
  writer.put_f64(-0.0);
  writer.put_f64(1.0 / 3.0);
  writer.put_bool(true);
  writer.put_bool(false);
  writer.put_string("icsc");
  const std::uint8_t raw[3] = {1, 2, 3};
  writer.put_bytes(raw, sizeof(raw));

  SnapshotReader reader(writer.payload());
  EXPECT_EQ(reader.get_u8(), 0xAB);
  EXPECT_EQ(reader.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.get_i32(), -42);
  EXPECT_EQ(reader.get_i64(), -(1ll << 40));
  const double neg_zero = reader.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not just value
  EXPECT_EQ(reader.get_f64(), 1.0 / 3.0);
  EXPECT_TRUE(reader.get_bool());
  EXPECT_FALSE(reader.get_bool());
  EXPECT_EQ(reader.get_string(), "icsc");
  EXPECT_EQ(reader.get_bytes(3), std::vector<std::uint8_t>({1, 2, 3}));
  EXPECT_TRUE(reader.done());
  EXPECT_THROW(reader.get_u8(), Error);  // overrun is loud, never silent
}

TEST_F(CheckpointTest, SnapshotSaveLoadRoundTrip) {
  SnapshotWriter writer;
  writer.put_u64(77);
  writer.put_string("round trip");
  writer.save(path("snap.bin"), kKind, 3);

  auto reader = SnapshotReader::try_load(path("snap.bin"), kKind, 5);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->version(), 3u);
  EXPECT_EQ(reader->get_u64(), 77u);
  EXPECT_EQ(reader->get_string(), "round trip");
  EXPECT_TRUE(reader->done());
  // No stray temp file: the write-rename protocol cleans up after itself.
  EXPECT_NE(::access(path("snap.bin").c_str(), F_OK), -1);
  EXPECT_EQ(::access((path("snap.bin") + ".tmp").c_str(), F_OK), -1);
}

TEST_F(CheckpointTest, MissingSnapshotIsAFreshStartNotAnError) {
  EXPECT_FALSE(
      SnapshotReader::try_load(path("absent.bin"), kKind, 1).has_value());
}

TEST_F(CheckpointTest, SnapshotOverwriteReplacesAtomically) {
  SnapshotWriter first;
  first.put_u64(1);
  first.save(path("snap.bin"), kKind, 1);
  SnapshotWriter second;
  second.put_u64(2);
  second.save(path("snap.bin"), kKind, 1);
  auto reader = SnapshotReader::try_load(path("snap.bin"), kKind, 1);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->get_u64(), 2u);
}

TEST_F(CheckpointTest, CorruptPayloadByteIsRejected) {
  SnapshotWriter writer;
  for (std::uint64_t i = 0; i < 16; ++i) writer.put_u64(i);
  writer.save(path("snap.bin"), kKind, 1);
  auto bytes = slurp(path("snap.bin"));
  ASSERT_GT(bytes.size(), 40u);
  bytes[40] ^= 0x01;  // one bit inside the payload
  spew(path("snap.bin"), bytes);
  EXPECT_THROW(SnapshotReader::try_load(path("snap.bin"), kKind, 1), Error);
}

TEST_F(CheckpointTest, TruncatedSnapshotIsRejected) {
  SnapshotWriter writer;
  for (std::uint64_t i = 0; i < 16; ++i) writer.put_u64(i);
  writer.save(path("snap.bin"), kKind, 1);
  auto bytes = slurp(path("snap.bin"));
  bytes.pop_back();  // lost last payload byte
  spew(path("snap.bin"), bytes);
  EXPECT_THROW(SnapshotReader::try_load(path("snap.bin"), kKind, 1), Error);
  // Truncated inside the header too.
  bytes.resize(16);
  spew(path("snap.bin"), bytes);
  EXPECT_THROW(SnapshotReader::try_load(path("snap.bin"), kKind, 1), Error);
}

TEST_F(CheckpointTest, BadMagicAndHeaderDamageAreRejected) {
  SnapshotWriter writer;
  writer.put_u64(9);
  writer.save(path("snap.bin"), kKind, 1);
  auto bytes = slurp(path("snap.bin"));
  auto spoiled = bytes;
  spoiled[0] ^= 0xFF;  // magic
  spew(path("snap.bin"), spoiled);
  EXPECT_THROW(SnapshotReader::try_load(path("snap.bin"), kKind, 1), Error);
  spoiled = bytes;
  spoiled[17] ^= 0x01;  // payload-size field: caught by the header CRC
  spew(path("snap.bin"), spoiled);
  EXPECT_THROW(SnapshotReader::try_load(path("snap.bin"), kKind, 1), Error);
}

TEST_F(CheckpointTest, WrongKindAndNewerVersionAreRejected) {
  SnapshotWriter writer;
  writer.put_u64(9);
  writer.save(path("snap.bin"), kKind, 4);
  EXPECT_THROW(SnapshotReader::try_load(path("snap.bin"), kOtherKind, 4),
               Error);
  // A snapshot written by a newer format revision must not be half-read.
  EXPECT_THROW(SnapshotReader::try_load(path("snap.bin"), kKind, 3), Error);
  EXPECT_TRUE(SnapshotReader::try_load(path("snap.bin"), kKind, 4).has_value());
}

TEST_F(CheckpointTest, JournalAppendsAndReplaysInOrder) {
  {
    RunJournal journal(path("run.jnl"), kKind);
    EXPECT_TRUE(journal.open());
    EXPECT_TRUE(journal.recovered().empty());
    for (std::uint64_t i = 0; i < 5; ++i) {
      SnapshotWriter record;
      record.put_u64(i * 111);
      journal.append(record);
    }
    EXPECT_EQ(journal.appended(), 5u);
    EXPECT_EQ(journal.next_seq(), 5u);
  }
  const auto records = RunJournal::replay(path("run.jnl"), kKind);
  ASSERT_EQ(records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].seq, i);
    SnapshotReader reader(records[i].payload);
    EXPECT_EQ(reader.get_u64(), i * 111);
  }
}

TEST_F(CheckpointTest, ReopenedJournalContinuesAfterLastDurableRecord) {
  {
    RunJournal journal(path("run.jnl"), kKind);
    SnapshotWriter record;
    record.put_u64(1);
    journal.append(record);
  }
  {
    RunJournal journal(path("run.jnl"), kKind);
    ASSERT_EQ(journal.recovered().size(), 1u);
    EXPECT_EQ(journal.next_seq(), 1u);
    SnapshotWriter record;
    record.put_u64(2);
    journal.append(record);
  }
  const auto records = RunJournal::replay(path("run.jnl"), kKind);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 0u);
  EXPECT_EQ(records[1].seq, 1u);
}

TEST_F(CheckpointTest, TornTailIsTruncatedOnReopen) {
  {
    RunJournal journal(path("run.jnl"), kKind);
    for (std::uint64_t i = 0; i < 3; ++i) {
      SnapshotWriter record;
      record.put_u64(i);
      journal.append(record);
    }
  }
  // Simulate a crash mid-append: half a record header lands on disk.
  auto bytes = slurp(path("run.jnl"));
  const std::size_t intact = bytes.size();
  bytes.insert(bytes.end(), {0x4A, 0x52, 0x4E});  // torn garbage
  spew(path("run.jnl"), bytes);
  EXPECT_EQ(RunJournal::replay(path("run.jnl"), kKind).size(), 3u);
  {
    RunJournal journal(path("run.jnl"), kKind);
    EXPECT_EQ(journal.recovered().size(), 3u);
    SnapshotWriter record;
    record.put_u64(99);
    journal.append(record);  // appends after the truncated tail
  }
  const auto bytes_after = slurp(path("run.jnl"));
  EXPECT_GT(bytes_after.size(), intact);
  const auto records = RunJournal::replay(path("run.jnl"), kKind);
  ASSERT_EQ(records.size(), 4u);
  SnapshotReader reader(records.back().payload);
  EXPECT_EQ(reader.get_u64(), 99u);
  EXPECT_EQ(records.back().seq, 3u);
}

TEST_F(CheckpointTest, CorruptLastRecordIsATornTail) {
  {
    RunJournal journal(path("run.jnl"), kKind);
    SnapshotWriter a;
    a.put_u64(1);
    journal.append(a);
    SnapshotWriter b;
    b.put_u64(2);
    journal.append(b);
  }
  auto bytes = slurp(path("run.jnl"));
  bytes.back() ^= 0x01;  // corrupt the last record's payload
  spew(path("run.jnl"), bytes);
  // No valid record follows, so this is indistinguishable from a torn
  // tail: dropped, not counted as a mid-file skip.
  std::size_t skipped = 99;
  EXPECT_EQ(RunJournal::replay(path("run.jnl"), kKind, &skipped).size(), 1u);
  EXPECT_EQ(skipped, 0u);
}

TEST_F(CheckpointTest, MidFileBitFlipSkipsOnlyTheDamagedRecord) {
  std::size_t first_record_end = 0;
  {
    RunJournal journal(path("run.jnl"), kKind);
    for (std::uint64_t i = 0; i < 4; ++i) {
      SnapshotWriter record;
      record.put_u64(i * 111);
      journal.append(record);
      if (i == 0) first_record_end = slurp(path("run.jnl")).size();
    }
  }
  // Bit-flip inside the FIRST record's payload: the old truncate-on-error
  // recovery would have discarded all four records; skip-and-count must
  // recover the three valid ones after the damage.
  auto bytes = slurp(path("run.jnl"));
  bytes[first_record_end - 1] ^= 0x01;
  spew(path("run.jnl"), bytes);
  std::size_t skipped = 0;
  const auto records = RunJournal::replay(path("run.jnl"), kKind, &skipped);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(skipped, 1u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
    SnapshotReader reader(records[i].payload);
    EXPECT_EQ(reader.get_u64(), (i + 1) * 111);
  }
  // A reopened journal sees the same view and keeps appending after the
  // survivors; the skip is reported on the handle too.
  {
    RunJournal journal(path("run.jnl"), kKind);
    EXPECT_EQ(journal.recovered().size(), 3u);
    EXPECT_EQ(journal.skipped(), 1u);
    SnapshotWriter record;
    record.put_u64(999);
    journal.append(record);
  }
  std::size_t skipped_after = 0;
  const auto after = RunJournal::replay(path("run.jnl"), kKind, &skipped_after);
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(skipped_after, 1u);
  SnapshotReader reader(after.back().payload);
  EXPECT_EQ(reader.get_u64(), 999u);
}

TEST_F(CheckpointTest, JournalFromAnotherStreamIsRejected) {
  {
    RunJournal journal(path("run.jnl"), kKind);
    SnapshotWriter record;
    record.put_u64(1);
    journal.append(record);
  }
  EXPECT_THROW(RunJournal::replay(path("run.jnl"), kOtherKind), Error);
  EXPECT_THROW(RunJournal(path("run.jnl"), kOtherKind), Error);

  // A damaged first record must not hide the stream: the intact records
  // after it still identify the file as another stream's, and nothing is
  // truncated.
  std::size_t first_record_end = 0;
  {
    RunJournal journal(path("damaged.jnl"), kKind);
    for (std::uint64_t i = 0; i < 3; ++i) {
      SnapshotWriter record;
      record.put_u64(i);
      journal.append(record);
      if (i == 0) first_record_end = slurp(path("damaged.jnl")).size();
    }
  }
  auto bytes = slurp(path("damaged.jnl"));
  bytes[first_record_end - 1] ^= 0x01;  // first record's payload
  spew(path("damaged.jnl"), bytes);
  EXPECT_THROW(RunJournal::replay(path("damaged.jnl"), kOtherKind), Error);
  EXPECT_THROW(RunJournal(path("damaged.jnl"), kOtherKind), Error);
  EXPECT_EQ(slurp(path("damaged.jnl")), bytes);
}

TEST_F(CheckpointTest, MissingJournalReplaysEmpty) {
  EXPECT_TRUE(RunJournal::replay(path("absent.jnl"), kKind).empty());
}

TEST_F(CheckpointTest, EmptyPayloadRecordsAreValid) {
  {
    RunJournal journal(path("run.jnl"), kKind);
    journal.append(nullptr, 0);
    journal.append(nullptr, 0);
  }
  const auto records = RunJournal::replay(path("run.jnl"), kKind);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].payload.empty());
  EXPECT_EQ(records[1].seq, 1u);
}

// ---------------------------------------------------------------------------
// Failure-path hardening: every I/O error is a structured core::Error that
// names the offending path. The fixtures below make the filesystem fail in
// controlled ways -- a regular file where a directory is needed (ENOTDIR),
// a missing directory (ENOENT), a read-only directory (EACCES; meaningless
// for root, so skipped there) -- standing in for the disk-full/permission
// failures a production campaign hits.

std::string error_text(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST_F(CheckpointTest, JournalOpenThroughFileAsDirectoryNamesPath) {
  // A regular file where the parent directory should be: ENOTDIR, a shape
  // that fails for root and non-root alike.
  {
    RunJournal blocker(path("not_a_dir"), kKind);
    SnapshotWriter record;
    record.put_u64(1);
    blocker.append(record);
  }
  const std::string bad = path("not_a_dir") + "/nested.jnl";
  const std::string message =
      error_text([&] { RunJournal journal(bad, kKind); });
  EXPECT_NE(message.find(bad), std::string::npos) << message;
}

TEST_F(CheckpointTest, JournalOpenInMissingDirectoryNamesPath) {
  const std::string bad = path("no_such_dir") + "/run.jnl";
  const std::string message =
      error_text([&] { RunJournal journal(bad, kKind); });
  EXPECT_NE(message.find(bad), std::string::npos) << message;
}

TEST_F(CheckpointTest, SnapshotSaveIntoMissingDirectoryNamesPath) {
  const std::string bad = path("no_such_dir") + "/snap.bin";
  SnapshotWriter writer;
  writer.put_u32(7);
  const std::string message =
      error_text([&] { writer.save(bad, kKind, 1); });
  // The failing step is the temp-file create: the error names it.
  EXPECT_NE(message.find(bad), std::string::npos) << message;
}

TEST_F(CheckpointTest, SnapshotSaveIntoReadOnlyDirectoryNamesPath) {
  // Root ignores directory permissions, so the permission denial is
  // injected at the snapshot's write site instead of by chmod: the test
  // runs the same for every user.
  SnapshotWriter writer;
  writer.put_u32(7);
  const std::string bad = path("snap.bin");
  failpoint::Trigger denied;
  denied.action = failpoint::Action::kError;
  denied.error_code = EACCES;
  failpoint::arm("checkpoint/write", denied);
  const std::string message =
      error_text([&] { writer.save(bad, kKind, 1); });
  failpoint::disarm_all();
  EXPECT_NE(message.find(bad), std::string::npos) << message;
  EXPECT_NE(message.find(std::strerror(EACCES)), std::string::npos)
      << message;
  // The failed save leaves neither the snapshot nor its temp file behind.
  EXPECT_NE(::access(bad.c_str(), F_OK), 0);
  EXPECT_NE(::access((bad + ".tmp").c_str(), F_OK), 0);
}

TEST_F(CheckpointTest, AppendOnClosedJournalNamesPath) {
  RunJournal journal(path("run.jnl"), kKind);
  journal.close();
  const std::string message = error_text([&] { journal.append(nullptr, 0); });
  EXPECT_NE(message.find(path("run.jnl")), std::string::npos) << message;
  EXPECT_EQ(journal.path(), path("run.jnl"));  // path survives close()
}

TEST_F(CheckpointTest, JournalPathSurvivesMoves) {
  RunJournal journal(path("run.jnl"), kKind);
  EXPECT_EQ(journal.path(), path("run.jnl"));
  RunJournal moved(std::move(journal));
  EXPECT_EQ(moved.path(), path("run.jnl"));
  RunJournal assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.path(), path("run.jnl"));
  SnapshotWriter record;
  record.put_u64(9);
  assigned.append(record);  // the moved-to handle still appends durably
  assigned.close();
  const auto records = RunJournal::replay(path("run.jnl"), kKind);
  ASSERT_EQ(records.size(), 1u);
}

}  // namespace
}  // namespace icsc::core
