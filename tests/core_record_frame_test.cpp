#include "core/record_frame.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "core/result_store.hpp"

namespace icsc::core {
namespace {

constexpr std::uint32_t kKind = 0x54534554;  // "TEST"
constexpr std::uint32_t kSchema = 7;

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::vector<std::uint8_t> slurp(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void spew(const std::string& file, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Per-test scratch directory, removed afterwards.
class RecordFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/icsc_frame_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Golden bytes: the on-disk layout of each file kind, pinned byte for byte.

TEST_F(RecordFrameTest, GoldenBytesForAllThreeLayouts) {
  SnapshotWriter snapshot;
  snapshot.put_u32(0xDEADBEEFu);
  snapshot.put_string("icsc");
  snapshot.save(path("snap.bin"), kKind, 3);
  EXPECT_EQ(slurp(path("snap.bin")),
            from_hex("49435343534e415054455354030000001000000000000000"
                     "ec10451d963bff8d"
                     "efbeadde040000000000000069637363"));

  {
    RunJournal journal(path("run.jnl"), kKind);
    const std::uint8_t record[] = {1, 2, 3};
    journal.append(record, sizeof(record));
  }
  EXPECT_EQ(slurp(path("run.jnl")),
            from_hex("4a524e4c54455354000000000000000003000000000000001d"
                     "80bc551f15723e"
                     "010203"));

  {
    ResultStore store(ResultStoreConfig{path("store"), 0, 0});
    store.put(0x0123456789ABCDEFull, kSchema,
              std::vector<std::uint8_t>{0x10, 0x20, 0x30, 0x40});
  }
  EXPECT_EQ(slurp(path("store/store.log")),
            from_hex("5253543107000000efcdab89674523010400000000000000"
                     "00b98ae0e80cee76"
                     "10203040"));
}

// ---------------------------------------------------------------------------
// One payload bound, enforced on write and on read.

TEST(RecordFrame, OversizePayloadThrowsBeforeReadingAByte) {
  // A 1-byte buffer with a size past the bound: reading it would overrun
  // (the sanitizer builds catch that), so the check must come first.
  const std::uint8_t one = 0;
  EXPECT_THROW(record_frame::encode_header(0, 0, &one,
                                           record_frame::kMaxPayloadBytes + 1),
               Error);
}

TEST(RecordFrame, ParseRejectsAnOversizeSizeField) {
  // A header whose CRC is intact but whose size field is past the bound
  // never drives a read or an allocation of that size.
  std::vector<std::uint8_t> bytes(record_frame::kHeaderSize, 0);
  record_frame::store_u64(bytes.data(), 0x31545352ULL);
  record_frame::store_u64(bytes.data() + 16,
                          record_frame::kMaxPayloadBytes + 1);
  record_frame::store_u32(bytes.data() + 28,
                          crc32(bytes.data(), record_frame::kHeaderSize - 4));
  const record_frame::Frame frame =
      record_frame::parse(bytes, 0, {0x31545352ULL, 0xFFFFFFFFULL});
  EXPECT_STREQ(frame.defect, "payload size over bound");
}

TEST_F(RecordFrameTest, StoreAndJournalRefuseOversizePayloads) {
  const std::uint8_t one = 0;
  const std::size_t too_big = record_frame::kMaxPayloadBytes + 1;
  {
    ResultStore store(ResultStoreConfig{path("store"), 0, 0});
    EXPECT_THROW(store.put(1, kSchema, &one, too_big), Error);
    // Refused up front: nothing reached the log, so nothing was rolled
    // back and the store stays open for puts.
    EXPECT_FALSE(store.stats().sealed);
    EXPECT_EQ(store.stats().failed_appends, 0u);
    EXPECT_EQ(store.stats().file_bytes, 0u);
    store.put(2, kSchema, &one, 1);
    EXPECT_EQ(store.size(), 1u);
  }
  RunJournal journal(path("run.jnl"), kKind);
  EXPECT_THROW(journal.append(&one, too_big), Error);
  EXPECT_EQ(journal.next_seq(), 0u);
  EXPECT_TRUE(slurp(path("run.jnl")).empty());
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of the one decoder, through each of its three
// users. Deterministic: every mutant derives from a fixed seed.

std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Frame start offsets of a pristine file, plus its end.
std::vector<std::size_t> boundaries(const std::vector<std::uint8_t>& file,
                                    record_frame::Magic magic) {
  std::vector<std::size_t> cuts;
  const auto scan =
      record_frame::scan(file, magic, [&](const record_frame::Frame& frame) {
        cuts.push_back(frame.end - frame.size - record_frame::kHeaderSize);
      });
  EXPECT_EQ(scan.valid_end, file.size());
  cuts.push_back(file.size());
  return cuts;
}

/// Truncations at every frame boundary +-1, seeded 1-3 bit flips, and
/// seeded splices (a valid frame inserted at, or copied over, a boundary
/// or a random offset), some of them flipped afterwards.
std::vector<std::vector<std::uint8_t>> mutants(
    const std::vector<std::uint8_t>& file, const std::vector<std::size_t>& cuts,
    std::uint64_t seed, int flips, int splices) {
  std::vector<std::vector<std::uint8_t>> out;
  std::set<std::size_t> lengths;
  for (const std::size_t cut : cuts) {
    for (const std::size_t at : {cut - 1, cut, cut + 1}) {
      // at < size also drops the wrapped 0 - 1.
      if (at < file.size() && lengths.insert(at).second) {
        out.emplace_back(file.begin(), file.begin() + static_cast<long>(at));
      }
    }
  }
  std::uint64_t rng = seed;
  auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(splitmix64(&rng) % n);
  };
  auto flip = [&](std::vector<std::uint8_t>* bytes) {
    const std::size_t count = 1 + below(3);
    for (std::size_t i = 0; i < count && !bytes->empty(); ++i) {
      (*bytes)[below(bytes->size())] ^=
          static_cast<std::uint8_t>(1u << below(8));
    }
  };
  for (int i = 0; i < flips; ++i) {
    out.push_back(file);
    flip(&out.back());
  }
  for (int i = 0; i < splices; ++i) {
    const std::size_t frame = below(cuts.size() - 1);
    const std::vector<std::uint8_t> copy(
        file.begin() + static_cast<long>(cuts[frame]),
        file.begin() + static_cast<long>(cuts[frame + 1]));
    std::vector<std::uint8_t> bytes = file;
    const std::size_t at = below(2) == 0 ? cuts[below(cuts.size())]
                                         : below(file.size() + 1);
    if (below(2) == 0) {
      bytes.insert(bytes.begin() + static_cast<long>(at), copy.begin(),
                   copy.end());
    } else {
      bytes.resize(std::max(bytes.size(), at + copy.size()));
      std::copy(copy.begin(), copy.end(),
                bytes.begin() + static_cast<long>(at));
    }
    if (below(4) == 0) flip(&bytes);
    out.push_back(std::move(bytes));
  }
  return out;
}

/// What the one decoder makes of `bytes`: every valid frame, and the
/// accounting, which must reconcile to the file size.
struct Decoded {
  std::vector<record_frame::Frame> frames;
  record_frame::ScanResult scan;
};

Decoded decode(const std::vector<std::uint8_t>& bytes,
               record_frame::Magic magic) {
  Decoded decoded;
  decoded.scan = record_frame::scan(
      bytes, magic,
      [&](const record_frame::Frame& frame) {
        decoded.frames.push_back(frame);
      });
  std::size_t framed = 0;
  for (const auto& frame : decoded.frames) {
    framed += record_frame::kHeaderSize + frame.size;
  }
  const std::size_t tail = bytes.size() - decoded.scan.valid_end;
  EXPECT_EQ(framed + decoded.scan.skipped_bytes, decoded.scan.valid_end);
  EXPECT_EQ(decoded.scan.valid_end + tail, bytes.size());
  EXPECT_LE(decoded.scan.skipped_regions, decoded.scan.skipped_bytes);
  return decoded;
}

TEST_F(RecordFrameTest, FuzzStoreLogRecovery) {
  const record_frame::Magic magic{0x31545352ULL, 0xFFFFFFFFULL};
  // Five keys, two of them updated, payload sizes 0..96: later frames of a
  // key supersede earlier ones on recovery.
  std::map<std::uint64_t, std::vector<std::vector<std::uint8_t>>> written;
  {
    ResultStore store(ResultStoreConfig{path("pristine"), 0, 0});
    std::uint64_t rng = 11;
    for (int i = 0; i < 7; ++i) {
      const std::uint64_t fp = 100 + static_cast<std::uint64_t>(i % 5);
      std::vector<std::uint8_t> payload(static_cast<std::size_t>(i) * 16);
      for (auto& byte : payload) {
        byte = static_cast<std::uint8_t>(splitmix64(&rng));
      }
      store.put(fp, kSchema, payload);
      written[fp].push_back(payload);
    }
  }
  const auto file = slurp(path("pristine/store.log"));
  const auto cases = mutants(file, boundaries(file, magic), 0x5707E, 400, 200);
  std::size_t quarantining = 0;
  std::size_t torn = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("mutant " + std::to_string(c));
    const auto& bytes = cases[c];
    const Decoded decoded = decode(bytes, magic);
    quarantining += decoded.scan.skipped_regions > 0;
    torn += decoded.scan.valid_end < bytes.size();
    std::map<std::uint64_t, std::vector<std::uint8_t>> last;
    for (const auto& frame : decoded.frames) {
      const std::vector<std::uint8_t> payload(frame.payload,
                                              frame.payload + frame.size);
      ASSERT_TRUE(written.count(frame.key) == 1 &&
                  std::count(written.at(frame.key).begin(),
                             written.at(frame.key).end(), payload) > 0)
          << "decoded a payload that was never written";
      last[frame.key] = payload;
    }
    ::mkdir(path("mutant").c_str(), 0755);
    spew(path("mutant/store.log"), bytes);
    ResultStore store(ResultStoreConfig{path("mutant"), 0, 0});
    const ResultStoreStats stats = store.stats();
    EXPECT_EQ(stats.recovered_records, decoded.frames.size());
    EXPECT_EQ(stats.quarantined_regions, decoded.scan.skipped_regions);
    EXPECT_EQ(stats.quarantined_bytes, decoded.scan.skipped_bytes);
    EXPECT_EQ(stats.torn_tail_bytes, bytes.size() - decoded.scan.valid_end);
    EXPECT_EQ(stats.file_bytes, decoded.scan.valid_end);
    EXPECT_EQ(slurp(path("mutant/store.log")).size(), decoded.scan.valid_end);
    for (const auto& [fp, payloads] : written) {
      const auto hit = store.lookup(fp, kSchema);
      ASSERT_EQ(hit.has_value(), last.count(fp) == 1);
      if (hit) {
        EXPECT_EQ(*hit, last.at(fp));
      }
    }
  }
  // The mutants reach both recovery paths.
  EXPECT_GT(quarantining, 0u);
  EXPECT_GT(torn, 0u);
}

TEST_F(RecordFrameTest, FuzzJournalReplay) {
  const record_frame::Magic magic{0x4C4E524AULL, 0xFFFFFFFFULL};
  std::vector<std::vector<std::uint8_t>> written;
  {
    RunJournal journal(path("pristine.jnl"), kKind);
    for (std::uint64_t seq = 0; seq < 6; ++seq) {
      SnapshotWriter record;
      record.put_u64(seq);
      for (std::uint32_t i = 0; i < seq * 3; ++i) {
        record.put_u32(static_cast<std::uint32_t>(seq) * 1000 + i);
      }
      journal.append(record);
      written.push_back(record.payload());
    }
  }
  const auto file = slurp(path("pristine.jnl"));
  const auto cases = mutants(file, boundaries(file, magic), 0x7A1, 400, 200);
  std::size_t quarantining = 0;
  std::size_t torn = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("mutant " + std::to_string(c));
    const auto& bytes = cases[c];
    const Decoded decoded = decode(bytes, magic);
    quarantining += decoded.scan.skipped_regions > 0;
    torn += decoded.scan.valid_end < bytes.size();
    spew(path("mutant.jnl"), bytes);
    std::size_t skipped = 0;
    const auto records =
        RunJournal::replay(path("mutant.jnl"), kKind, &skipped);
    ASSERT_EQ(records.size(), decoded.frames.size());
    EXPECT_EQ(skipped, decoded.scan.skipped_regions);
    for (const auto& record : records) {
      ASSERT_LT(record.seq, written.size());
      EXPECT_EQ(record.payload, written[record.seq]);
    }
    // Opening for append recovers the same records and cuts the torn tail.
    RunJournal journal(path("mutant.jnl"), kKind);
    ASSERT_EQ(journal.recovered().size(), records.size());
    EXPECT_EQ(journal.skipped(), skipped);
    EXPECT_EQ(slurp(path("mutant.jnl")).size(), decoded.scan.valid_end);
  }
  EXPECT_GT(quarantining, 0u);
  EXPECT_GT(torn, 0u);
}

TEST_F(RecordFrameTest, FuzzSnapshotLoad) {
  SnapshotWriter writer;
  for (std::uint64_t i = 0; i < 12; ++i) writer.put_u64(i * 0x0101010101ULL);
  writer.save(path("pristine.snap"), kKind, 2);
  const auto file = slurp(path("pristine.snap"));
  const std::vector<std::size_t> cuts = {0, record_frame::kHeaderSize,
                                         file.size()};
  const auto cases = mutants(file, cuts, 0x5AA9, 400, 100);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("mutant " + std::to_string(c));
    spew(path("mutant.snap"), cases[c]);
    // Loads its exact payload, or throws core::Error. Any change to the
    // bytes must throw: CRC-32 catches every 1-3 bit flip at this size,
    // and a splice leaves a truncated, overlong or CRC-broken file.
    bool loaded = false;
    try {
      auto reader = SnapshotReader::try_load(path("mutant.snap"), kKind, 2);
      ASSERT_TRUE(reader.has_value());
      EXPECT_EQ(reader->version(), 2u);
      EXPECT_EQ(reader->get_bytes(reader->remaining()), writer.payload());
      loaded = true;
    } catch (const Error&) {
    }
    EXPECT_EQ(loaded, cases[c] == file);
  }
}

}  // namespace
}  // namespace icsc::core
