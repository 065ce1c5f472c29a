// Corrupt-checkpoint rejection: a damaged snapshot file must fail
// restore with a diagnostic Status — never undefined behavior, never a
// crash, never a silently wrong resume. Exercised forms of damage:
// truncation at every prefix length, a flipped bit anywhere in the
// payload (checksum), wrong magic, a future format version, a payload
// size that disagrees with the file, a file truncated on disk, and
// length fields pointing past the end of the payload (the classic
// decoder over-read). The CI checkpoint-restart lane also runs this
// suite under asan-ubsan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "ckpt/snapshot.hpp"
#include "common/atomic_file.hpp"

namespace entk::ckpt {
namespace {

/// A small but fully populated snapshot: every record type present so
/// corruption walks through every decoder.
Snapshot sample_snapshot() {
  Snapshot snap;
  snap.machine = "test.scale";
  snap.cores = 64;
  snap.n_pilots = 2;
  snap.runtime = 3600.0;
  snap.scheduler_policy = "backfill";
  snap.pattern_name = "bag_of_tasks";
  snap.workload_text = "pattern = bag\n";
  snap.engine_now = 123.5;
  snap.uid_counters = {{"unit", 7}, {"pilot", 2}};

  UnitRecord unit;
  unit.uid = "unit.000001";
  auto description = std::make_shared<pilot::UnitDescription>();
  description->name = "task_1";
  description->executable = "misc.sleep";
  description->arguments = {"--duration", "30"};
  description->environment = {{"ENTK_STAGE", "1"}};
  description->cores = 2;
  description->simulated_duration = 30.0;
  description->input_staging.push_back(
      {"in.dat", "sandbox/in.dat",
       pilot::StagingDirective::Action::kLink, 4.0});
  unit.description = std::move(description);
  unit.settled = false;
  unit.notified = false;
  snap.units.push_back(unit);

  snap.pattern_overhead = 0.25;
  snap.retries.push_back({"unit.000001", 130.0, 41});
  PilotRecord pilot;
  pilot.uid = "pilot.000001";
  snap.pilots.push_back(pilot);
  core::GraphExecutor::SavedState::Node node;
  node.status = core::NodeStatus::kSubmitted;
  node.unit_uid = "unit.000001";
  snap.graph.nodes.push_back(node);
  snap.graph.inflight = 1;
  snap.graph.submitted_count = 1;
  return snap;
}

void expect_rejected(std::string_view bytes, const char* what) {
  auto decoded = decode_snapshot(bytes);
  ASSERT_FALSE(decoded.ok()) << "decoder accepted " << what;
  EXPECT_EQ(decoded.status().code(), Errc::kIoError) << what;
  EXPECT_FALSE(decoded.status().message().empty()) << what;
}

TEST(CheckpointCorruption, IntactFileDecodes) {
  auto decoded = decode_snapshot(encode_snapshot(sample_snapshot()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().machine, "test.scale");
  EXPECT_EQ(decoded.value().units.size(), 1u);
}

TEST(CheckpointCorruption, EncodingIsPinnedByteForByte) {
  // The on-disk format is a contract: any change to the encoder that
  // moves a single byte of this image must bump kFormatVersion.
  const std::string bytes = encode_snapshot(sample_snapshot());
  EXPECT_EQ(bytes.size(), 888u);
  EXPECT_EQ(fnv1a(bytes), 0x2c6f926e363ca71dULL);
}

TEST(CheckpointCorruption, EveryTruncationIsRejected) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    expect_rejected(std::string_view(bytes).substr(0, keep),
                    "a truncated file");
  }
}

TEST(CheckpointCorruption, EveryFlippedPayloadBitIsRejected) {
  const std::string original = encode_snapshot(sample_snapshot());
  // 8 magic + 4 version + 8 size + 8 checksum.
  constexpr std::size_t kHeaderSize = 28;
  ASSERT_GT(original.size(), kHeaderSize);
  for (std::size_t i = kHeaderSize; i < original.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string bytes = original;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      expect_rejected(bytes, "a bit-flipped payload");
    }
  }
}

TEST(CheckpointCorruption, WrongMagicIsRejected) {
  std::string bytes = encode_snapshot(sample_snapshot());
  bytes[0] = 'X';
  auto decoded = decode_snapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos)
      << decoded.status().to_string();
}

TEST(CheckpointCorruption, FutureFormatVersionIsRejected) {
  std::string bytes = encode_snapshot(sample_snapshot());
  const std::uint32_t future = kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  auto decoded = decode_snapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().to_string();
}

TEST(CheckpointCorruption, PayloadSizeMismatchIsRejected) {
  std::string bytes = encode_snapshot(sample_snapshot());
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + 12, sizeof(size));
  ++size;
  std::memcpy(bytes.data() + 12, &size, sizeof(size));
  expect_rejected(bytes, "a lying payload-size field");
}

TEST(CheckpointCorruption, HugeLengthFieldDoesNotAllocateOrOverread) {
  // The first payload field is the machine-name length; claim it is
  // astronomically long. The decoder must reject it by comparing
  // against the remaining payload, not trust it and allocate.
  Snapshot snap = sample_snapshot();
  std::string bytes = encode_snapshot(snap);
  constexpr std::size_t kHeaderSize = 28;
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(bytes.data() + kHeaderSize, &huge, sizeof(huge));
  // Fix up the checksum so the corruption reaches the field decoders.
  const std::string_view payload(bytes.data() + kHeaderSize,
                                 bytes.size() - kHeaderSize);
  const std::uint64_t checksum = fnv1a(payload);
  std::memcpy(bytes.data() + 20, &checksum, sizeof(checksum));
  expect_rejected(bytes, "a huge string-length field");
}

TEST(CheckpointCorruption, ReadSnapshotFileReportsPathInDiagnostics) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ckpt_corrupt")
          .string();
  std::filesystem::create_directories(dir);

  const std::string missing = dir + "/does-not-exist.entkckpt";
  auto not_there = read_snapshot_file(missing);
  ASSERT_FALSE(not_there.ok());

  const std::string garbage_path = dir + "/garbage.entkckpt";
  ASSERT_TRUE(write_file_atomic(garbage_path,
                                "this is not a checkpoint file at all, "
                                "just some prose long enough to pass "
                                "the header-size check")
                  .is_ok());
  auto garbage = read_snapshot_file(garbage_path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.status().message().find(garbage_path),
            std::string::npos)
      << garbage.status().to_string();
  EXPECT_NE(garbage.status().message().find("magic"), std::string::npos)
      << garbage.status().to_string();
}

TEST(CheckpointCorruption, FileTruncatedOnDiskIsRejected) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ckpt_corrupt")
          .string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/truncated-on-disk.entkckpt";
  ASSERT_TRUE(write_snapshot_file(path, sample_snapshot()).is_ok());
  ASSERT_TRUE(read_snapshot_file(path).ok());
  const std::uintmax_t full = std::filesystem::file_size(path);

  // Cut inside the payload: the header survives and over-promises.
  std::filesystem::resize_file(path, full / 2);
  auto short_payload = read_snapshot_file(path);
  ASSERT_FALSE(short_payload.ok());
  EXPECT_EQ(short_payload.status().code(), Errc::kIoError);
  EXPECT_NE(short_payload.status().message().find(path), std::string::npos)
      << short_payload.status().to_string();
  EXPECT_NE(short_payload.status().message().find("header promises"),
            std::string::npos)
      << short_payload.status().to_string();

  // Cut inside the header.
  std::filesystem::resize_file(path, 10);
  auto short_header = read_snapshot_file(path);
  ASSERT_FALSE(short_header.ok());
  EXPECT_NE(short_header.status().message().find("shorter than the header"),
            std::string::npos)
      << short_header.status().to_string();
}

}  // namespace
}  // namespace entk::ckpt
