// Tests for the crash-safe checkpoint subsystem: CRC32, atomic file
// publication, the v2 artifact format (round-trip, v1 compatibility,
// checksum and fuzzed-header rejection, unmatched-entry policy) and
// trainer checkpoint/resume — including the kill-and-resume bit-identical
// trajectory guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace emba {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/emba_" + name; }

void WriteRaw(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string ReadRaw(const std::string& path) {
  std::string out;
  EMBA_CHECK(ReadFileToString(path, &out).ok());
  return out;
}

// ---------- CRC32 ----------

TEST(Crc32Test, KnownAnswer) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char* msg = "123456789";
  EXPECT_EQ(Crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = kCrc32Init;
  for (size_t i = 0; i < data.size(); i += 7) {
    crc = Crc32Update(crc, data.data() + i, std::min<size_t>(7, data.size() - i));
  }
  EXPECT_EQ(crc, Crc32(data.data(), data.size()));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\x5a');
  const uint32_t clean = Crc32(data.data(), data.size());
  data[100] ^= 0x08;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

// ---------- Atomic file publication ----------

TEST(AtomicFileTest, WritePublishesAndCleansTemp) {
  const std::string path = TempPath("atomic_basic.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "hello").ok());
  EXPECT_EQ(ReadRaw(path), "hello");
  EXPECT_FALSE(FileExists(AtomicTempPath(path)));
  std::remove(path.c_str());
}

TEST(AtomicFileTest, FailedWriteLeavesPreviousFileIntact) {
  // A write into a nonexistent directory fails before anything is
  // published; an existing file at a sibling path is untouched by design,
  // but more importantly the failure is a clean Status, not a partial file.
  const std::string bad = "/tmp/emba_no_such_dir_xyz/f.bin";
  Status status = WriteFileAtomic(bad, "data");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_FALSE(FileExists(bad));
}

TEST(AtomicFileTest, StaleTempFromCrashedWriterIsHarmless) {
  // Simulate a writer that crashed mid-write: its temp file is on disk,
  // the real file still holds the previous (good) contents. The good file
  // must read back unchanged, and the next save must succeed.
  const std::string path = TempPath("atomic_stale.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "good v1").ok());
  WriteRaw(AtomicTempPath(path), "torn garbage from a dead writer");
  EXPECT_EQ(ReadRaw(path), "good v1");  // crash never clobbered it
  ASSERT_TRUE(WriteFileAtomic(path, "good v2").ok());
  EXPECT_EQ(ReadRaw(path), "good v2");
  EXPECT_FALSE(FileExists(AtomicTempPath(path)));
  std::remove(path.c_str());
}

// ---------- v2 format round-trip ----------

TEST(CheckpointFormatTest, TensorAndByteSectionsRoundTrip) {
  nn::CheckpointWriter writer;
  Tensor a = Tensor::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({-1.5f, 0.0f, 7.25f});
  writer.AddTensor("layer.weight", a);
  writer.AddTensor("layer.bias", b);
  writer.AddBytes("opaque", std::string("\x00\x01\xff binary", 10));

  auto reader = nn::CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->version(), 2u);
  ASSERT_NE(reader->FindTensor("layer.weight"), nullptr);
  const Tensor& ra = *reader->FindTensor("layer.weight");
  ASSERT_TRUE(ra.shape() == a.shape());
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(ra[i], a[i]);
  ASSERT_NE(reader->FindBytes("opaque"), nullptr);
  EXPECT_EQ(*reader->FindBytes("opaque"), std::string("\x00\x01\xff binary", 10));
  EXPECT_EQ(reader->names().size(), 3u);
  EXPECT_EQ(reader->TensorNames().size(), 2u);
  EXPECT_EQ(reader->FindTensor("missing"), nullptr);
  EXPECT_EQ(reader->FindBytes("layer.weight"), nullptr);  // wrong kind
}

TEST(CheckpointFormatTest, SerializationIsDeterministic) {
  Rng rng(5);
  nn::Linear a(6, 4, &rng);
  const std::string p1 = TempPath("det1.ckpt"), p2 = TempPath("det2.ckpt");
  ASSERT_TRUE(a.SaveParameters(p1).ok());
  ASSERT_TRUE(a.SaveParameters(p2).ok());
  EXPECT_EQ(ReadRaw(p1), ReadRaw(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(ModuleCheckpointTest, SaveLoadRoundTripIsByteIdentical) {
  Rng rng(2);
  nn::Linear a(5, 4, &rng), b(5, 4, &rng);
  const std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(a.SaveParameters(path).ok());
  ASSERT_TRUE(b.LoadParameters(path).ok());
  auto pa = a.Parameters(), pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    const Tensor& ta = pa[i].value();
    const Tensor& tb = pb[i].value();
    ASSERT_TRUE(ta.shape() == tb.shape());
    for (int64_t j = 0; j < ta.size(); ++j) EXPECT_EQ(ta[j], tb[j]);
  }
  // Re-saving the loaded module reproduces the file bit for bit.
  const std::string path2 = TempPath("roundtrip2.ckpt");
  ASSERT_TRUE(b.SaveParameters(path2).ok());
  EXPECT_EQ(ReadRaw(path), ReadRaw(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

// ---------- v1 compatibility ----------

// Writes `module`'s parameters in the legacy v1 layout (u32 magic, u64
// count, then name/ndim/dims/f32 entries — no version, no checksum).
std::string SerializeV1(const nn::Module& module) {
  ByteWriter w;
  auto named = module.NamedParameters();
  w.PutU32(nn::kCheckpointMagicV1);
  w.PutU64(named.size());
  for (const auto& [name, var] : named) {
    w.PutString(name);
    const Tensor& t = var.value();
    w.PutU32(static_cast<uint32_t>(t.ndim()));
    for (int64_t d : t.shape()) w.PutI64(d);
    w.PutBytes(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
  }
  return w.Release();
}

TEST(ModuleCheckpointTest, ReadsLegacyV1Files) {
  Rng rng(3);
  nn::Linear a(4, 3, &rng), b(4, 3, &rng);
  const std::string path = TempPath("legacy_v1.bin");
  WriteRaw(path, SerializeV1(a));
  ASSERT_TRUE(b.LoadParameters(path).ok());
  auto pa = a.Parameters(), pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].value().size(); ++j) {
      EXPECT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
  auto reader = nn::CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->version(), 1u);
  std::remove(path.c_str());
}

TEST(ModuleCheckpointTest, RejectsFuzzedV1Headers) {
  // Regression: the old loader constructed Tensor(shape) straight from
  // unvalidated dims on disk — negative or huge dims were UB/OOM before the
  // truncation check. Both formats must reject them with a clean Status.
  Rng rng(3);
  nn::Linear model(4, 3, &rng);
  struct Case {
    const char* label;
    int64_t dim0, dim1;
  };
  for (const Case& c : {Case{"negative dim", -4, 3},
                        Case{"zero dim", 0, 3},
                        Case{"huge dims (overflow)", int64_t{1} << 40,
                             int64_t{1} << 40}}) {
    ByteWriter w;
    w.PutU32(nn::kCheckpointMagicV1);
    w.PutU64(1);
    w.PutString("weight");
    w.PutU32(2);
    w.PutI64(c.dim0);
    w.PutI64(c.dim1);
    const std::string path = TempPath("fuzz_v1.bin");
    WriteRaw(path, w.buffer());
    Status status = model.LoadParameters(path);
    EXPECT_FALSE(status.ok()) << c.label;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.label;
    std::remove(path.c_str());
  }
}

// ---------- strict v2 validation ----------

std::string ValidImage() {
  nn::CheckpointWriter writer;
  writer.AddTensor("w", Tensor::FromValues(2, 2, {1, 2, 3, 4}));
  writer.AddBytes("s", "state");
  return writer.Serialize();
}

TEST(CheckpointFormatTest, ChecksumRejectsEverySingleBitFlip) {
  const std::string clean = ValidImage();
  ASSERT_TRUE(nn::CheckpointReader::Parse(clean).ok());
  // Any single flipped bit anywhere in the file — header or payload — must
  // be detected: header fields are validated, payload is checksummed.
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = clean;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto reader = nn::CheckpointReader::Parse(corrupt);
      EXPECT_FALSE(reader.ok()) << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(CheckpointFormatTest, ChecksumRejectsBitFlipThroughFile) {
  Rng rng(4);
  nn::Linear a(5, 4, &rng), b(5, 4, &rng);
  const std::string path = TempPath("bitflip.ckpt");
  ASSERT_TRUE(a.SaveParameters(path).ok());
  std::string image = ReadRaw(path);
  image[image.size() / 2] ^= 0x10;  // flip one payload bit
  WriteRaw(path, image);
  Status status = b.LoadParameters(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointFormatTest, RejectsMalformedV2Images) {
  const std::string valid = ValidImage();

  // Truncation at every prefix length: clean error, never a crash.
  for (size_t len = 0; len < valid.size(); ++len) {
    auto reader = nn::CheckpointReader::Parse(valid.substr(0, len));
    EXPECT_FALSE(reader.ok()) << "truncated to " << len;
  }

  struct Case {
    const char* label;
    std::string image;
  };
  std::vector<Case> cases;

  {  // wrong version
    ByteWriter w;
    w.PutU32(nn::kCheckpointMagicV2);
    w.PutU32(99);
    w.PutU32(nn::kCheckpointEndianTag);
    w.PutU32(0);
    w.PutU64(8);
    w.PutU32(Crc32("\0\0\0\0\0\0\0\0", 8));
    w.PutBytes("\0\0\0\0\0\0\0\0", 8);
    cases.push_back({"unsupported version", w.Release()});
  }
  {  // foreign endianness tag
    ByteWriter w;
    w.PutU32(nn::kCheckpointMagicV2);
    w.PutU32(nn::kCheckpointVersion);
    w.PutU32(0x04030201);
    w.PutU32(0);
    w.PutU64(8);
    w.PutU32(Crc32("\0\0\0\0\0\0\0\0", 8));
    w.PutBytes("\0\0\0\0\0\0\0\0", 8);
    cases.push_back({"endianness tag", w.Release()});
  }
  {  // payload size field lies about the file size
    std::string lying = valid;
    lying.push_back('\x00');
    cases.push_back({"payload size mismatch", lying});
  }
  {  // unknown section kind
    ByteWriter payload;
    payload.PutU64(1);
    payload.PutString("x");
    payload.PutU8(9);
    ByteWriter w;
    w.PutU32(nn::kCheckpointMagicV2);
    w.PutU32(nn::kCheckpointVersion);
    w.PutU32(nn::kCheckpointEndianTag);
    w.PutU32(0);
    w.PutU64(payload.buffer().size());
    w.PutU32(Crc32(payload.buffer().data(), payload.buffer().size()));
    w.PutBytes(payload.buffer().data(), payload.buffer().size());
    cases.push_back({"unknown kind", w.Release()});
  }
  {  // duplicate section names
    ByteWriter payload;
    payload.PutU64(2);
    for (int i = 0; i < 2; ++i) {
      payload.PutString("dup");
      payload.PutU8(1);
      payload.PutString("b");
    }
    ByteWriter w;
    w.PutU32(nn::kCheckpointMagicV2);
    w.PutU32(nn::kCheckpointVersion);
    w.PutU32(nn::kCheckpointEndianTag);
    w.PutU32(0);
    w.PutU64(payload.buffer().size());
    w.PutU32(Crc32(payload.buffer().data(), payload.buffer().size()));
    w.PutBytes(payload.buffer().data(), payload.buffer().size());
    cases.push_back({"duplicate names", w.Release()});
  }
  {  // tensor with negative dim inside a checksummed v2 payload
    ByteWriter payload;
    payload.PutU64(1);
    payload.PutString("t");
    payload.PutU8(0);
    payload.PutU32(2);
    payload.PutI64(-1);
    payload.PutI64(4);
    ByteWriter w;
    w.PutU32(nn::kCheckpointMagicV2);
    w.PutU32(nn::kCheckpointVersion);
    w.PutU32(nn::kCheckpointEndianTag);
    w.PutU32(0);
    w.PutU64(payload.buffer().size());
    w.PutU32(Crc32(payload.buffer().data(), payload.buffer().size()));
    w.PutBytes(payload.buffer().data(), payload.buffer().size());
    cases.push_back({"negative dim", w.Release()});
  }
  {  // entry count far beyond what the file could hold
    ByteWriter payload;
    payload.PutU64(uint64_t{1} << 60);
    ByteWriter w;
    w.PutU32(nn::kCheckpointMagicV2);
    w.PutU32(nn::kCheckpointVersion);
    w.PutU32(nn::kCheckpointEndianTag);
    w.PutU32(0);
    w.PutU64(payload.buffer().size());
    w.PutU32(Crc32(payload.buffer().data(), payload.buffer().size()));
    w.PutBytes(payload.buffer().data(), payload.buffer().size());
    cases.push_back({"entry count overflow", w.Release()});
  }
  {  // bad magic
    std::string bad = valid;
    bad[0] = 'X';
    cases.push_back({"bad magic", bad});
  }

  for (const auto& c : cases) {
    auto reader = nn::CheckpointReader::Parse(c.image, c.label);
    EXPECT_FALSE(reader.ok()) << c.label;
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument) << c.label;
  }
}

// ---------- unmatched-entry policy ----------

TEST(ModuleCheckpointTest, UnmatchedFileEntryIsAnError) {
  // A checkpoint written for a different architecture (e.g. a renamed
  // layer) used to "load" successfully with the stray weights silently
  // dropped, leaving the renamed layer at its random init.
  Rng rng(6);
  nn::Linear model(3, 2, &rng);
  nn::CheckpointWriter writer;
  for (const auto& [name, var] : model.NamedParameters()) {
    writer.AddTensor(name, var.value());
  }
  writer.AddTensor("ghost.weight", Tensor::FromVector({1.0f, 2.0f}));
  const std::string path = TempPath("unmatched.ckpt");
  ASSERT_TRUE(writer.Write(path).ok());

  Status strict = model.LoadParameters(path);
  EXPECT_FALSE(strict.ok());
  EXPECT_NE(strict.message().find("ghost.weight"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ModuleCheckpointTest, RejectedLoadLeavesEveryParameterUnchanged) {
  // A file that fails to match must not leave the model half-loaded: the
  // matcher checks every name, shape and stray before assigning anything.
  Rng rng(7);
  nn::Linear model(3, 2, &rng);
  const auto named = model.NamedParameters();
  ASSERT_EQ(named.size(), 2u);
  std::vector<Tensor> before;
  for (const auto& [name, var] : named) before.push_back(var.value());
  const auto other_values = [](const Tensor& t) {
    Tensor out = t;
    for (int64_t j = 0; j < out.size(); ++j) out[j] += 1.0f;
    return out;
  };

  nn::CheckpointWriter stray;  // every parameter valid, plus a stray entry
  for (const auto& [name, var] : named) {
    stray.AddTensor(name, other_values(var.value()));
  }
  stray.AddTensor("ghost.weight", Tensor::FromVector({1.0f}));
  nn::CheckpointWriter misshaped;  // valid first, mis-shaped second
  misshaped.AddTensor(named[0].first, other_values(named[0].second.value()));
  misshaped.AddTensor(named[1].first, Tensor::FromVector({1.0f, 2.0f, 3.0f}));

  const struct {
    nn::CheckpointWriter* writer;
    const char* error;
  } cases[] = {{&stray, "ghost.weight"}, {&misshaped, "shape mismatch"}};
  for (const auto& c : cases) {
    const std::string path = TempPath("rejected_load.ckpt");
    ASSERT_TRUE(c.writer->Write(path).ok());
    Status status = model.LoadParameters(path);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.error;
    EXPECT_NE(status.message().find(c.error), std::string::npos)
        << status.message();
    for (size_t i = 0; i < named.size(); ++i) {
      const Tensor& now = named[i].second.value();
      ASSERT_TRUE(now.shape() == before[i].shape());
      for (int64_t j = 0; j < now.size(); ++j) {
        EXPECT_EQ(now[j], before[i][j]) << c.error << " " << named[i].first;
      }
    }
    std::remove(path.c_str());
  }
}

// ---------- Rng state ----------

TEST(RngStateTest, SaveLoadResumesExactStream) {
  Rng a(1234);
  for (int i = 0; i < 37; ++i) a.NextU64();
  a.Normal();  // populate the Box–Muller cache
  const std::string state = a.SaveState();
  std::vector<uint64_t> expected;
  Rng reference = a;
  for (int i = 0; i < 16; ++i) expected.push_back(reference.NextU64());
  const double expected_normal = reference.Normal();

  Rng b(999);  // different seed, then overwritten by the saved state
  ASSERT_TRUE(b.LoadState(state).ok());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(b.NextU64(), expected[i]);
  EXPECT_EQ(b.Normal(), expected_normal);
}

TEST(RngStateTest, RejectsMalformedBlobs) {
  Rng rng(1);
  EXPECT_FALSE(rng.LoadState("").ok());
  EXPECT_FALSE(rng.LoadState("short").ok());
  std::string zeros(41, '\0');
  EXPECT_FALSE(rng.LoadState(zeros).ok());  // all-zero xoshiro fixed point
  std::string trailing = rng.SaveState() + "x";
  EXPECT_FALSE(rng.LoadState(trailing).ok());
}

// ---------- trainer kill-and-resume ----------

core::EncodedDataset ResumeDataset() {
  data::GeneratorOptions options;
  options.seed = 33;
  options.size_factor = 0.3;
  auto dataset = data::MakeWdc(data::WdcCategory::kComputers,
                               data::WdcSize::kSmall, options);
  core::EncodeOptions encode_options;
  encode_options.max_len = 32;
  encode_options.wordpiece_vocab = 600;
  return core::EncodeDataset(dataset, encode_options);
}

core::ModelBudget TinyBudget() {
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 32;
  return budget;
}

core::TrainConfig ResumeConfig(Rng* dropout_rng) {
  core::TrainConfig config;
  config.max_epochs = 4;
  config.min_epochs = 1;
  config.patience = 4;
  config.seed = 77;
  config.dropout_rng = dropout_rng;
  return config;
}

TEST(TrainerResumeTest, KillAndResumeIsBitIdenticalToUninterrupted) {
  core::EncodedDataset dataset = ResumeDataset();
  const std::string ckpt_a = TempPath("resume_a.ckpt");
  const std::string ckpt_b = TempPath("resume_b.ckpt");
  const std::string weights_a = TempPath("resume_a.bin");
  const std::string weights_c = TempPath("resume_c.bin");
  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());

  // Run A: uninterrupted, checkpointing every epoch.
  {
    Rng rng(11);
    auto model = core::CreateModel("emba", TinyBudget(),
                                   dataset.wordpiece->vocab().size(),
                                   dataset.num_id_classes, &rng);
    ASSERT_TRUE(model.ok());
    core::TrainConfig config = ResumeConfig(&rng);
    config.checkpoint_path = ckpt_a;
    core::Trainer trainer(model->get(), &dataset, config);
    core::TrainResult result;
    ASSERT_TRUE(trainer.Run(&result).ok());
    EXPECT_EQ(result.epochs_ran, 4);
    ASSERT_TRUE((*model)->SaveParameters(weights_a).ok());
  }

  // Run B: identical setup, "killed" after 2 epochs (no best-restore, no
  // final eval — exactly what a SIGKILL at the epoch boundary leaves).
  {
    Rng rng(11);
    auto model = core::CreateModel("emba", TinyBudget(),
                                   dataset.wordpiece->vocab().size(),
                                   dataset.num_id_classes, &rng);
    ASSERT_TRUE(model.ok());
    core::TrainConfig config = ResumeConfig(&rng);
    config.checkpoint_path = ckpt_b;
    config.interrupt_after_epochs = 2;
    core::Trainer trainer(model->get(), &dataset, config);
    core::TrainResult partial;
    ASSERT_TRUE(trainer.Run(&partial).ok());
    EXPECT_EQ(partial.epochs_ran, 2);
  }

  // Run C: a fresh process resumes run B's checkpoint and finishes.
  {
    Rng rng(11);
    auto model = core::CreateModel("emba", TinyBudget(),
                                   dataset.wordpiece->vocab().size(),
                                   dataset.num_id_classes, &rng);
    ASSERT_TRUE(model.ok());
    core::TrainConfig config = ResumeConfig(&rng);
    config.checkpoint_path = ckpt_b;
    config.resume = true;
    core::Trainer trainer(model->get(), &dataset, config);
    core::TrainResult result;
    ASSERT_TRUE(trainer.Run(&result).ok());
    EXPECT_EQ(result.epochs_ran, 4);
    ASSERT_TRUE((*model)->SaveParameters(weights_c).ok());
  }

  // The resumed run's final weight file is byte-identical to the
  // uninterrupted run's.
  EXPECT_EQ(ReadRaw(weights_a), ReadRaw(weights_c));

  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());
  std::remove(weights_a.c_str());
  std::remove(weights_c.c_str());
}

TEST(TrainerResumeTest, CorruptCheckpointYieldsCleanStatus) {
  core::EncodedDataset dataset = ResumeDataset();
  const std::string ckpt = TempPath("resume_corrupt.ckpt");
  std::remove(ckpt.c_str());

  Rng rng(12);
  auto model = core::CreateModel("emba", TinyBudget(),
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config = ResumeConfig(&rng);
  config.checkpoint_path = ckpt;
  config.interrupt_after_epochs = 1;
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());
  ASSERT_TRUE(FileExists(ckpt));

  // Flip one payload bit: the resume must fail with a checksum error, not
  // misbehave.
  std::string image = ReadRaw(ckpt);
  image[image.size() - 3] ^= 0x01;
  WriteRaw(ckpt, image);
  config.resume = true;
  core::Trainer resumed(model->get(), &dataset, config);
  Status status = resumed.Run(&result);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
  std::remove(ckpt.c_str());
}

TEST(TrainerResumeTest, StaleTempNeverClobbersCheckpoint) {
  // A crash *during* a checkpoint save leaves a temp file next to the real
  // checkpoint. The checkpoint must still open, and resuming must work.
  core::EncodedDataset dataset = ResumeDataset();
  const std::string ckpt = TempPath("resume_stale.ckpt");
  std::remove(ckpt.c_str());

  Rng rng(13);
  auto model = core::CreateModel("emba", TinyBudget(),
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config = ResumeConfig(&rng);
  config.max_epochs = 2;
  config.checkpoint_path = ckpt;
  config.interrupt_after_epochs = 1;
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());

  WriteRaw(AtomicTempPath(ckpt), "half-written checkpoint from a crash");
  ASSERT_TRUE(nn::CheckpointReader::Open(ckpt).ok());

  config.resume = true;
  core::Trainer resumed(model->get(), &dataset, config);
  ASSERT_TRUE(resumed.Run(&result).ok());
  EXPECT_EQ(result.epochs_ran, 2);
  std::remove(ckpt.c_str());
  std::remove(AtomicTempPath(ckpt).c_str());
}

}  // namespace
}  // namespace emba
