// Tests for the persistent candidate store: canonical serialization and
// fingerprint stability, journal round-trip and crash recovery, concurrent
// lookups during puts, shard planning, and cache/resume behaviour of the
// integrated search funnel.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dsl/canonical.h"
#include "dsl/parser.h"
#include "env/abr_domain.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "store/convert.h"
#include "store/fingerprint.h"
#include "store/record_codec.h"
#include "store/shard.h"
#include "util/fs.h"
#include "util/scale.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace nada::store {
namespace {

// A fresh journal path per test, cleaned of any previous run's leftovers
// (journal, sidecar, and tmp files).
std::string fresh_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("nada_store_test_" + name + ".nsb"))
          .string();
  for (const char* suffix : {"", ".tmp", ".idx", ".idx.tmp", ".compact.tmp"}) {
    std::filesystem::remove(path + suffix);
  }
  return path;
}

// A fresh path for a JSONL export (not a store journal).
std::string fresh_jsonl_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("nada_store_test_" + name + ".jsonl"))
          .string();
  std::filesystem::remove(path);
  return path;
}

// Frames a raw journal holds: `content` is the whole file.
ScanStats scan_file(const std::string& content) {
  return scan_binary_journal(
      std::string_view(content).substr(kBinaryJournalMagic.size()), nullptr);
}

StoreScope test_scope() { return StoreScope{"fcc", "test-digest"}; }

OutcomeRecord make_test_record(std::uint64_t salt, Stage stage) {
  OutcomeRecord record;
  record.fingerprint = fingerprint_text("record-" + std::to_string(salt));
  record.stage = stage;
  record.id = "cand-" + std::to_string(salt);
  record.source = "emit \"x\" = " + std::to_string(salt) + ";\n";
  record.compiled = true;
  record.normalized = true;
  if (stage >= Stage::kProbed) {
    record.early_probed = true;
    record.early_rewards = {0.1 * static_cast<double>(salt), 0.5, -0.25};
  }
  if (stage >= Stage::kTrained) {
    record.fully_trained = true;
    record.test_score = 1.5 + static_cast<double>(salt);
    record.emulation_score = 0.75;
    record.curve_epochs = {8, 16, 24};
    record.median_curve = {0.2, 0.4, 0.6};
  }
  return record;
}

// ---- canonical serialization ----------------------------------------------

TEST(Canonical, FormattingAndNamingNormalized) {
  const std::string a =
      "let smooth = ema(throughput_mbps, 0.5);\n"
      "emit \"tput\" = smooth / 8.0;\n";
  const std::string b =
      "# an explanatory comment, as LLM output carries\n"
      "let s2=ema( throughput_mbps ,0.50 ) ;\n"
      "emit \"tput\"=( s2 / 8.00 );";
  const std::string ca = dsl::canonical_source(dsl::parse(a));
  const std::string cb = dsl::canonical_source(dsl::parse(b));
  EXPECT_EQ(ca, cb);
  EXPECT_NE(ca.find("v0"), std::string::npos);   // let binding renamed
  EXPECT_NE(ca.find("tput"), std::string::npos); // row name kept
}

TEST(Canonical, DistinctProgramsStayDistinct) {
  const auto a = dsl::canonical_source(
      dsl::parse("emit \"x\" = buffer_size_s / 10.0;"));
  const auto b = dsl::canonical_source(
      dsl::parse("emit \"x\" = buffer_size_s / 7.0;"));
  EXPECT_NE(a, b);
}

TEST(Canonical, FreeVariablesCannotCaptureRenamedBindings) {
  // "v0" as a free (input) reference must not collide with the canonical
  // name of a let binding — these programs are semantically different.
  const std::string bound = "let x = 1.0;\nemit \"r\" = x;";
  const std::string free_v0 = "let x = 1.0;\nemit \"r\" = v0;";
  EXPECT_NE(dsl::canonical_source(dsl::parse(bound)),
            dsl::canonical_source(dsl::parse(free_v0)));
  EXPECT_NE(fingerprint_state_source(bound), fingerprint_state_source(free_v0));
}

TEST(Canonical, ShadowedBindingsRenameConsistently) {
  const std::string a =
      "let t = throughput_mbps;\nlet t = t * 2.0;\nemit \"x\" = t;";
  const std::string b =
      "let u = throughput_mbps;\nlet w = u * 2.0;\nemit \"x\" = w;";
  EXPECT_EQ(dsl::canonical_source(dsl::parse(a)),
            dsl::canonical_source(dsl::parse(b)));
}

// ---- fingerprints ----------------------------------------------------------

TEST(Fingerprint, StableAcrossReformattedSources) {
  const std::string a = dsl::pensieve_state_source();
  // Reformat: inject comments and blank lines, keep the AST identical.
  std::string b = "# reformatted\n\n";
  for (char c : a) {
    b += c;
    if (c == ';') b += "   ";
  }
  EXPECT_EQ(fingerprint_state_source(a), fingerprint_state_source(b));
  EXPECT_NE(fingerprint_state_source(a),
            fingerprint_state_source("emit \"x\" = buffer_size_s;"));
}

TEST(Fingerprint, UnparsableSourcesHashByRawText) {
  const std::string broken = "let ) = 3;";
  EXPECT_EQ(fingerprint_state_source(broken),
            fingerprint_state_source("  " + broken + "\n"));
  EXPECT_NE(fingerprint_state_source(broken),
            fingerprint_state_source("let ( = 3;"));
}

TEST(Fingerprint, ArchEncodingCoversEveryField) {
  const nn::ArchSpec base = nn::ArchSpec::pensieve();
  EXPECT_EQ(fingerprint_arch(base), fingerprint_arch(nn::ArchSpec::pensieve()));
  nn::ArchSpec changed = base;
  changed.activation = nn::Activation::kLeakyRelu;
  EXPECT_NE(fingerprint_arch(base), fingerprint_arch(changed));
  changed = base;
  changed.shared_trunk = true;
  EXPECT_NE(fingerprint_arch(base), fingerprint_arch(changed));
  changed = base;
  changed.merge_layers += 1;
  EXPECT_NE(fingerprint_arch(base), fingerprint_arch(changed));
}

TEST(Fingerprint, CombineIsOrderSensitive) {
  const Fingerprint a = fingerprint_text("a");
  const Fingerprint b = fingerprint_text("b");
  EXPECT_NE(combine(a, b), combine(b, a));
  EXPECT_EQ(combine(a, b), combine(a, b));
}

TEST(Fingerprint, HexRoundTrip) {
  const Fingerprint fp = fingerprint_text("round trip");
  const auto parsed = Fingerprint::from_hex(fp.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, fp);
  EXPECT_FALSE(Fingerprint::from_hex("zz").has_value());
  EXPECT_FALSE(
      Fingerprint::from_hex(std::string(32, 'g')).has_value());
}

// ---- candidate store -------------------------------------------------------

TEST(CandidateStore, MergeUnionsAndKeepsFurthestStage) {
  const std::string path_a = fresh_path("merge_a");
  const std::string path_b = fresh_path("merge_b");
  CandidateStore a(path_a, test_scope());
  CandidateStore b(path_b, test_scope());
  a.put(make_test_record(1, Stage::kChecked));
  a.put(make_test_record(2, Stage::kProbed));
  b.put(make_test_record(2, Stage::kTrained));  // same candidate, further
  b.put(make_test_record(3, Stage::kChecked));
  EXPECT_EQ(a.merge_from(b), 2u);
  EXPECT_EQ(a.size(), 3u);
  const auto got = a.lookup(make_test_record(2, Stage::kProbed).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);

  CandidateStore mismatched(fresh_path("merge_c"),
                            StoreScope{"fcc", "other"});
  EXPECT_THROW((void)a.merge_from(mismatched), std::invalid_argument);
}

TEST(CandidateStore, DefaultPathHonorsEnvDir) {
  ::setenv("NADA_STORE_DIR", "/tmp/nada-test-stores", 1);
  const std::string path = default_store_path(test_scope());
  EXPECT_EQ(path.rfind("/tmp/nada-test-stores/", 0), 0u);
  EXPECT_NE(path.find("fcc-"), std::string::npos);
  EXPECT_TRUE(path.ends_with(".nsb")) << path;
  ::unsetenv("NADA_STORE_DIR");
}

// ---- shard planning --------------------------------------------------------

TEST(ShardPlan, RangesPartitionTheWholeSpace) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 16u}) {
    const ShardPlan plan(n);
    EXPECT_EQ(plan.range(0).lo, 0u);
    EXPECT_EQ(plan.range(n - 1).hi, ~std::uint64_t{0});
    for (std::size_t s = 0; s + 1 < n; ++s) {
      EXPECT_EQ(plan.range(s).hi + 1, plan.range(s + 1).lo)
          << "gap between shards " << s << " and " << s + 1;
    }
  }
  EXPECT_THROW(ShardPlan(0), std::invalid_argument);
}

TEST(ShardPlan, ShardOfAgreesWithRanges) {
  const ShardPlan plan(5);
  for (int i = 0; i < 500; ++i) {
    const Fingerprint fp = fingerprint_text("candidate-" + std::to_string(i));
    const std::size_t shard = plan.shard_of(fp);
    ASSERT_LT(shard, 5u);
    const auto range = plan.range(shard);
    EXPECT_GE(fp.hi, range.lo);
    EXPECT_LE(fp.hi, range.hi);
  }
}

TEST(ShardPlan, PartitionCoversEveryCandidateOnce) {
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 200; ++i) {
    fps.push_back(fingerprint_text("p-" + std::to_string(i)));
  }
  const ShardPlan plan(4);
  const auto shards = plan.partition(fps);
  ASSERT_EQ(shards.size(), 4u);
  std::vector<bool> seen(fps.size(), false);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (std::size_t idx : shards[s]) {
      EXPECT_EQ(plan.shard_of(fps[idx]), s);
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(ShardPlan, MergeShardFilesUnionsWorkerStores) {
  const ShardPlan plan(3);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 3; ++s) {
    paths.push_back(fresh_path("shard" + std::to_string(s)));
  }
  // Three workers journal only the candidates their range owns.
  std::size_t total = 0;
  {
    std::vector<std::unique_ptr<CandidateStore>> workers;
    for (const auto& path : paths) {
      workers.push_back(std::make_unique<CandidateStore>(path, test_scope()));
    }
    for (std::uint64_t salt = 0; salt < 60; ++salt) {
      auto record = make_test_record(salt, Stage::kProbed);
      workers[plan.shard_of(record.fingerprint)]->put(record);
      ++total;
    }
  }
  const std::string merged_path = fresh_path("shard_merged");
  CandidateStore merged(merged_path, test_scope());
  EXPECT_EQ(merge_shard_files(paths, merged), total);
  EXPECT_EQ(merged.size(), total);
  for (std::uint64_t salt = 0; salt < 60; ++salt) {
    EXPECT_TRUE(
        merged.lookup(make_test_record(salt, Stage::kProbed).fingerprint)
            .has_value());
  }

  // A missing shard journal is a worker that never reported: loud failure,
  // not a silently empty merge.
  const std::vector<std::string> with_missing = {paths[0],
                                                 fresh_path("shard_gone")};
  EXPECT_THROW((void)merge_shard_files(with_missing, merged),
               std::runtime_error);
}

TEST(ShardPlan, MergeShardFilesFiltersMixedDomainJournals) {
  // One shard set serving two domains at once: every shard journal holds
  // ABR-scope and CC-scope frames interleaved (workers for both searches
  // sharing a store directory and shard files). A merge must accept
  // exactly the destination's scope and skip the other domain's records —
  // never alias them together.
  const StoreScope abr_scope{"4G", "abr-digest"};
  const StoreScope cc_scope{"cc-4G", "cc-digest"};
  const std::vector<std::uint64_t> salts = {0, 1, 2, 3, 4,
                                            10, 11, 12, 13, 14};
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::string path = fresh_path("mixed_shard" + std::to_string(s));
    std::string content(kBinaryJournalMagic);
    for (std::size_t k = 5 * s; k < 5 * s + 5; ++k) {
      content += encode_record(make_test_record(salts[k], Stage::kProbed),
                               abr_scope);
      content += encode_record(
          make_test_record(100 + salts[k], Stage::kTrained), cc_scope);
    }
    util::write_file_atomic(path, content);
    paths.push_back(path);
  }

  CandidateStore abr_merged(fresh_path("mixed_abr"), abr_scope);
  EXPECT_EQ(merge_shard_files(paths, abr_merged), 10u);
  EXPECT_EQ(abr_merged.size(), 10u);
  for (std::uint64_t salt : salts) {
    const auto record = abr_merged.lookup(
        make_test_record(salt, Stage::kProbed).fingerprint);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->stage, Stage::kProbed);
    // The CC records with shifted salts never leaked in.
    EXPECT_FALSE(abr_merged
                     .lookup(make_test_record(100 + salt, Stage::kTrained)
                                 .fingerprint)
                     .has_value());
  }

  CandidateStore cc_merged(fresh_path("mixed_cc"), cc_scope);
  EXPECT_EQ(merge_shard_files(paths, cc_merged), 10u);
  EXPECT_EQ(cc_merged.size(), 10u);
  for (std::uint64_t salt : salts) {
    const auto record = cc_merged.lookup(
        make_test_record(100 + salt, Stage::kTrained).fingerprint);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->stage, Stage::kTrained);
    EXPECT_TRUE(record->fully_trained);
  }
}

// ---- binary record codec ---------------------------------------------------

namespace {

// A randomized record covering the whole field space: arbitrary bytes in
// strings (binary framing must not care), non-finite doubles (which the
// binary codec round-trips bit-exactly), optional arch blocks.
OutcomeRecord random_record(std::mt19937_64& rng) {
  auto byte = [&rng] { return static_cast<char>(rng() & 0xff); };
  auto text = [&](std::size_t max_len) {
    std::string s(rng() % (max_len + 1), '\0');
    for (char& c : s) c = byte();
    return s;
  };
  auto real = [&rng]() -> double {
    switch (rng() % 6) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return -std::numeric_limits<double>::infinity();
      case 3: return std::numeric_limits<double>::denorm_min();
      default:
        return static_cast<double>(static_cast<std::int64_t>(rng())) / 3.0;
    }
  };
  auto reals = [&](std::size_t max_len) {
    std::vector<double> v(rng() % (max_len + 1));
    for (double& d : v) d = real();
    return v;
  };
  OutcomeRecord r;
  r.fingerprint.hi = rng() | 1;  // never the zero fingerprint
  r.fingerprint.lo = rng();
  r.stage = static_cast<Stage>(rng() % 3);
  r.id = text(24);
  r.source = text(64);
  r.compiled = (rng() & 1) != 0;
  r.compile_error = text(32);
  r.normalized = (rng() & 1) != 0;
  r.normalization_error = text(32);
  r.early_probed = (rng() & 1) != 0;
  r.early_rewards = reals(6);
  r.fully_trained = (rng() & 1) != 0;
  r.test_score = real();
  r.emulation_score = real();
  r.curve_epochs = reals(6);
  r.median_curve = reals(6);
  if ((rng() & 1) != 0) {
    nn::ArchSpec arch;
    arch.temporal = static_cast<nn::TemporalUnit>(rng() % 4);
    arch.activation = static_cast<nn::Activation>(rng() % 6);
    arch.shared_trunk = (rng() & 1) != 0;
    arch.conv_filters = rng() % 512;
    arch.conv_kernel = rng() % 16;
    arch.rnn_hidden = rng() % 512;
    arch.scalar_hidden = rng() % 512;
    arch.merge_hidden = rng() % 512;
    arch.merge_layers = rng() % 8;
    r.arch = arch;
  }
  return r;
}

}  // namespace

TEST(RecordCodec, RandomizedBinaryRoundTripProperty) {
  std::mt19937_64 rng(0x5eedULL);
  for (int trial = 0; trial < 300; ++trial) {
    StoreScope scope;
    scope.env = "env-" + std::to_string(rng() % 4);
    scope.config_digest = "digest-" + std::to_string(rng() % 4);
    const OutcomeRecord record = random_record(rng);
    const std::string frame = encode_record(record, scope);

    // Scope-preserving decode recovers scope + record, and re-encoding
    // reproduces the frame byte for byte (the strongest field-equality
    // check: it covers NaN/inf bit patterns JSON cannot express).
    const auto scoped = decode_record_any(frame);
    ASSERT_TRUE(scoped.has_value());
    EXPECT_EQ(scoped->scope, scope);
    EXPECT_EQ(encode_record(scoped->record, scoped->scope), frame);

    // Scope-filtered decode: accepts its own scope, rejects others.
    EXPECT_TRUE(decode_record(frame, scope).has_value());
    StoreScope other = scope;
    other.env += "-other";
    EXPECT_FALSE(decode_record(frame, other).has_value());

    // Any single flipped byte is detected (length, checksum, or body).
    std::string tampered = frame;
    const std::size_t pos = rng() % tampered.size();
    tampered[pos] = static_cast<char>(tampered[pos] ^ (1u << (rng() % 8)));
    EXPECT_FALSE(decode_record_any(tampered).has_value())
        << "flip at byte " << pos << " went undetected";
  }
}

TEST(StoreConvert, BinaryToJsonlToBinaryIsByteIdentical) {
  const std::string path = fresh_path("convert_src");
  {
    // A realistic journal: per-fingerprint stage history (multiple frames
    // per record), plus a second scope's frame with non-finite scores —
    // conversion must preserve all of it, order, duplicates, scopes and
    // NaN/inf included.
    CandidateStore store(path, test_scope());
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
      store.put(make_test_record(salt, Stage::kChecked));
      if (salt % 2 == 0) store.put(make_test_record(salt, Stage::kProbed));
      if (salt % 4 == 0) store.put(make_test_record(salt, Stage::kTrained));
    }
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    auto foreign = make_test_record(99, Stage::kTrained);
    foreign.arch = nn::ArchSpec::pensieve();
    foreign.test_score = std::numeric_limits<double>::quiet_NaN();
    foreign.emulation_score = -std::numeric_limits<double>::infinity();
    out << encode_record(foreign, StoreScope{"other-env", "other-digest"});
  }
  const std::string original = util::read_file(path);

  const std::string jsonl_path = fresh_jsonl_path("convert_mid");
  const std::string back_path = fresh_path("convert_back");
  const auto to_jsonl = convert_journal(path, jsonl_path);
  EXPECT_EQ(to_jsonl.records, 15u);  // 8 + 4 + 2 + 1 foreign
  EXPECT_EQ(to_jsonl.skipped, 0u);
  const std::string exported = util::read_file(jsonl_path);
  EXPECT_EQ(std::count(exported.begin(), exported.end(), '\n'), 15);
  const auto to_bin = convert_journal(jsonl_path, back_path);
  EXPECT_EQ(to_bin.records, 15u);
  EXPECT_EQ(to_bin.skipped, 0u);
  EXPECT_EQ(util::read_file(back_path), original);

  // The other direction is exact too, for a file the codec wrote.
  const std::string jsonl_again = fresh_jsonl_path("convert_again");
  (void)convert_journal(back_path, jsonl_again);
  EXPECT_EQ(util::read_file(jsonl_again), exported);

  // And the re-imported journal opens as a working store with the same
  // record set.
  CandidateStore store(back_path, test_scope());
  EXPECT_EQ(store.size(), 8u);
  const auto got = store.lookup(make_test_record(4, Stage::kTrained).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);
}

TEST(StoreConvert, JsonlPathIsRefusedUntilConverted) {
  // A store written before the store became binary-only is a .jsonl file.
  // Neither the store nor a shard merge may open it; converting it gives
  // a journal that serves the same records.
  const std::string source = fresh_path("refused_src");
  {
    CandidateStore store(source, test_scope());
    store.put(make_test_record(1, Stage::kTrained));
    store.put(make_test_record(2, Stage::kProbed));
  }
  const std::string jsonl = fresh_jsonl_path("refused");
  (void)convert_journal(source, jsonl);
  const std::string before = util::read_file(jsonl);

  try {
    CandidateStore store(jsonl, test_scope());
    ADD_FAILURE() << "CandidateStore opened " << jsonl;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tools/store_convert"),
              std::string::npos)
        << e.what();
  }
  CandidateStore dest(fresh_path("refused_dest"), test_scope());
  const std::vector<std::string> paths = {jsonl};
  try {
    (void)merge_shard_files(paths, dest);
    ADD_FAILURE() << "merge_shard_files read " << jsonl;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tools/store_convert"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dest.size(), 0u);
  EXPECT_EQ(util::read_file(jsonl), before);  // refused, not rewritten
  EXPECT_FALSE(util::file_exists(jsonl + ".idx"));

  // Converted, the same journal opens and merges — even over an older
  // journal whose sidecar describes other bytes (the converter drops it).
  const std::string converted = fresh_path("refused_converted");
  {
    CandidateStore older(converted, test_scope());
    older.put(make_test_record(7, Stage::kChecked));
  }
  ASSERT_TRUE(util::file_exists(converted + ".idx"));
  EXPECT_EQ(convert_journal(jsonl, converted).records, 2u);
  CandidateStore store(converted, test_scope());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.recovered_line_errors(), 0u);
  const auto got =
      store.lookup(make_test_record(1, Stage::kTrained).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);
  EXPECT_DOUBLE_EQ(got->test_score,
                   make_test_record(1, Stage::kTrained).test_score);
  const std::vector<std::string> converted_paths = {converted};
  EXPECT_EQ(merge_shard_files(converted_paths, dest), 2u);
}

// ---- binary store backend --------------------------------------------------

TEST(BinaryStore, RoundTripAllStagesThroughIndexedReopen) {
  const std::string path = fresh_path("roundtrip");
  const auto checked = make_test_record(1, Stage::kChecked);
  auto probed = make_test_record(2, Stage::kProbed);
  probed.compile_error = "blew up \"late\"\nwith a newline";
  auto trained = make_test_record(3, Stage::kTrained);
  trained.arch = nn::ArchSpec::pensieve();
  trained.arch->temporal = nn::TemporalUnit::kLstm;
  trained.arch->shared_trunk = true;
  {
    CandidateStore store(path, test_scope());
    EXPECT_TRUE(store.put(checked));
    EXPECT_TRUE(store.put(probed));
    EXPECT_TRUE(store.put(trained));
    EXPECT_EQ(store.size(), 3u);
    // Lookups served straight from the in-memory delta still read the
    // journal frame (one decode per hit).
    const auto got = store.lookup(probed.fingerprint);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->compile_error, probed.compile_error);
  }
  // Clean destruction persisted the sidecar: reopen touches no frame.
  CandidateStore reopened(path, test_scope());
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.recovered_line_errors(), 0u);
  EXPECT_EQ(reopened.decoded_frames(), 0u);

  const auto got = reopened.lookup(trained.fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(reopened.decoded_frames(), 1u);  // exactly one frame read
  EXPECT_EQ(got->stage, Stage::kTrained);
  EXPECT_EQ(got->id, trained.id);
  EXPECT_EQ(got->source, trained.source);
  ASSERT_TRUE(got->arch.has_value());
  EXPECT_EQ(got->arch->temporal, nn::TemporalUnit::kLstm);
  EXPECT_TRUE(got->arch->shared_trunk);
  EXPECT_TRUE(got->fully_trained);
  EXPECT_DOUBLE_EQ(got->test_score, trained.test_score);
  EXPECT_EQ(got->curve_epochs, trained.curve_epochs);
  EXPECT_EQ(got->median_curve, trained.median_curve);
  const auto got_probed = reopened.lookup(probed.fingerprint);
  ASSERT_TRUE(got_probed.has_value());
  EXPECT_EQ(got_probed->compile_error, probed.compile_error);
  EXPECT_EQ(got_probed->early_rewards, probed.early_rewards);
  EXPECT_FALSE(got_probed->arch.has_value());
  EXPECT_FALSE(reopened.lookup(make_test_record(77, Stage::kChecked)
                                   .fingerprint)
                   .has_value());

  // records(): latest record per fingerprint in first-sighting order.
  const auto records = reopened.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].fingerprint.hex(), checked.fingerprint.hex());
  EXPECT_EQ(records[2].fingerprint.hex(), trained.fingerprint.hex());
}

TEST(BinaryStore, PutIsMonotoneAndAppendsOneFramePerAcceptedPut) {
  const std::string path = fresh_path("monotone");
  CandidateStore store(path, test_scope());
  auto record = make_test_record(7, Stage::kChecked);
  EXPECT_TRUE(store.put(record));
  EXPECT_FALSE(store.put(record));  // same stage: not re-journaled
  const auto after_one = std::filesystem::file_size(path);
  record.stage = Stage::kProbed;
  record.early_probed = true;
  record.early_rewards = {1.0};
  EXPECT_TRUE(store.put(record));
  record.stage = Stage::kChecked;  // regression attempt
  EXPECT_FALSE(store.put(record));
  EXPECT_EQ(store.size(), 1u);
  const auto got = store.lookup(record.fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kProbed);
  // Exactly two frames: one per accepted put.
  const ScanStats stats = scan_file(util::read_file(path));
  EXPECT_EQ(stats.frames, 2u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_GT(std::filesystem::file_size(path), after_one);
}

TEST(BinaryStore, TruncationAtEveryOffsetOfFinalRecordRecovers) {
  const std::string path = fresh_path("torture_src");
  std::uint64_t final_frame_start = 0;
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kProbed));
    auto trained = make_test_record(2, Stage::kTrained);
    trained.arch = nn::ArchSpec::pensieve();
    store.put(trained);
    final_frame_start = std::filesystem::file_size(path);
    store.put(make_test_record(3, Stage::kTrained));
  }
  const std::string full = util::read_file(path);
  ASSERT_GT(full.size(), final_frame_start);

  const std::string work = fresh_path("torture_work");
  for (std::uint64_t cut = final_frame_start; cut < full.size(); ++cut) {
    util::write_file_atomic(work, full.substr(0, cut));
    std::filesystem::remove(work + ".idx");
    CandidateStore recovered(work, test_scope());
    // Every durable prior record survives, at every truncation point.
    EXPECT_EQ(recovered.size(), 2u) << "cut at byte " << cut;
    EXPECT_TRUE(
        recovered.lookup(make_test_record(1, Stage::kProbed).fingerprint)
            .has_value())
        << "cut at byte " << cut;
    EXPECT_TRUE(
        recovered.lookup(make_test_record(2, Stage::kTrained).fingerprint)
            .has_value())
        << "cut at byte " << cut;
    // A torn partial frame counts as one recovered error and is truncated
    // away; cutting exactly at the frame boundary is a clean journal.
    const std::size_t expected_errors = cut == final_frame_start ? 0u : 1u;
    EXPECT_EQ(recovered.recovered_line_errors(), expected_errors)
        << "cut at byte " << cut;
    EXPECT_EQ(std::filesystem::file_size(work), final_frame_start)
        << "cut at byte " << cut;
    // The journal stays usable after recovery.
    EXPECT_TRUE(recovered.put(make_test_record(4, Stage::kChecked)));
  }
  // Spot-check the post-recovery append is durable.
  CandidateStore reopened(work, test_scope());
  EXPECT_EQ(reopened.size(), 3u);
}

TEST(BinaryStore, FlippedBodyByteIsSkippedOnRebuild) {
  const std::string path = fresh_path("flip_rebuild");
  std::uint64_t second_frame_start = 0;
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kProbed));
    second_frame_start = std::filesystem::file_size(path);
    store.put(make_test_record(2, Stage::kTrained));
    store.put(make_test_record(3, Stage::kChecked));
  }
  std::string content = util::read_file(path);
  // Flip one byte inside the second record's checksummed body.
  const std::size_t victim = second_frame_start + kFrameHeaderBytes + 3;
  content[victim] = static_cast<char>(content[victim] ^ 0x40);
  util::write_file_atomic(path, content);
  std::filesystem::remove(path + ".idx");

  CandidateStore recovered(path, test_scope());
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.recovered_line_errors(), 1u);
  // Framing survived: the record AFTER the corrupt frame is still served.
  EXPECT_TRUE(
      recovered.lookup(make_test_record(3, Stage::kChecked).fingerprint)
          .has_value());
  EXPECT_FALSE(
      recovered.lookup(make_test_record(2, Stage::kTrained).fingerprint)
          .has_value());
}

TEST(BinaryStore, FlippedByteUnderValidSidecarIsDetectedAtLookup) {
  const std::string path = fresh_path("flip_lazy");
  std::uint64_t second_frame_start = 0;
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kProbed));
    second_frame_start = std::filesystem::file_size(path);
    store.put(make_test_record(2, Stage::kTrained));
    store.put(make_test_record(3, Stage::kChecked));
  }
  std::string content = util::read_file(path);
  const std::size_t victim = second_frame_start + kFrameHeaderBytes + 3;
  content[victim] = static_cast<char>(content[victim] ^ 0x40);
  util::write_file_atomic(path, content);
  // The sidecar still matches the journal's length, so the open trusts it
  // (indexed opens never re-checksum every frame — that is the point).
  CandidateStore store(path, test_scope());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.decoded_frames(), 0u);
  EXPECT_EQ(store.recovered_line_errors(), 0u);
  // The flip surfaces lazily, at the one lookup that touches the frame:
  // a counted miss, not a crash, and other records are unaffected.
  EXPECT_FALSE(store.lookup(make_test_record(2, Stage::kTrained).fingerprint)
                   .has_value());
  EXPECT_EQ(store.recovered_line_errors(), 1u);
  EXPECT_TRUE(store.lookup(make_test_record(1, Stage::kProbed).fingerprint)
                  .has_value());
  EXPECT_TRUE(store.lookup(make_test_record(3, Stage::kChecked).fingerprint)
                  .has_value());
}

TEST(BinaryStore, CorruptOrMissingSidecarIsRebuilt) {
  const std::string path = fresh_path("sidecar");
  {
    CandidateStore store(path, test_scope());
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
      store.put(make_test_record(salt, Stage::kProbed));
    }
  }
  ASSERT_TRUE(util::file_exists(path + ".idx"));

  // Corrupt sidecar: entry checksum fails, full rebuild, no record lost.
  {
    std::string idx = util::read_file(path + ".idx");
    idx[idx.size() / 2] = static_cast<char>(idx[idx.size() / 2] ^ 0x01);
    util::write_file_atomic(path + ".idx", idx);
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.size(), 5u);
    EXPECT_EQ(store.recovered_line_errors(), 0u);
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
      EXPECT_TRUE(
          store.lookup(make_test_record(salt, Stage::kProbed).fingerprint)
              .has_value());
    }
  }
  // The rebuild re-persisted a valid sidecar: next open is indexed again.
  {
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.size(), 5u);
    EXPECT_EQ(store.decoded_frames(), 0u);
  }
  // Deleted sidecar: same story.
  std::filesystem::remove(path + ".idx");
  {
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.size(), 5u);
    EXPECT_EQ(store.recovered_line_errors(), 0u);
  }
  // A sidecar built under a different scope is never trusted.
  {
    const std::string foreign = fresh_path("sidecar_foreign");
    CandidateStore other(foreign, StoreScope{"other", "digest"});
    other.put(make_test_record(50, Stage::kProbed));
    other.rebuild_index();
    std::filesystem::copy_file(
        foreign + ".idx", path + ".idx",
        std::filesystem::copy_options::overwrite_existing);
    CandidateStore store(path, test_scope());
    EXPECT_EQ(store.size(), 5u);  // rebuilt, not borrowed
  }
}

TEST(BinaryStore, StaleSidecarTriggersTailScanOnly) {
  const std::string path = fresh_path("tail_scan");
  {
    CandidateStore store(path, test_scope());
    store.put(make_test_record(1, Stage::kChecked));
    store.put(make_test_record(2, Stage::kProbed));
  }  // sidecar covers 2 records
  {
    // Append more records, then drop the store WITHOUT letting it persist:
    // simulate by copying the fresh sidecar back afterwards.
    const std::string idx_snapshot = util::read_file(path + ".idx");
    {
      CandidateStore store(path, test_scope());
      auto upgraded = make_test_record(2, Stage::kTrained);
      store.put(upgraded);
      store.put(make_test_record(3, Stage::kChecked));
    }
    util::write_file_atomic(path + ".idx", idx_snapshot);
  }
  CandidateStore store(path, test_scope());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.recovered_line_errors(), 0u);
  const auto got = store.lookup(make_test_record(2, Stage::kProbed).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);  // tail upgrade won
  // Only the tail's 2 frames were decoded during recovery, not all 4.
  EXPECT_EQ(store.decoded_frames(), 2u + 1u /* the lookup */);
}

TEST(BinaryStore, ForeignScopeFramesAreSkipped) {
  const std::string path = fresh_path("foreign");
  {
    CandidateStore store(path, StoreScope{"other-env", "other-digest"});
    store.put(make_test_record(1, Stage::kProbed));
    store.put(make_test_record(2, Stage::kTrained));
  }
  std::filesystem::remove(path + ".idx");
  CandidateStore store(path, test_scope());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.recovered_line_errors(), 2u);
  EXPECT_TRUE(store.put(make_test_record(3, Stage::kChecked)));
  EXPECT_EQ(store.size(), 1u);
}

TEST(BinaryStore, CompactDropsSupersededAndIsIdempotent) {
  const std::string path = fresh_path("compact");
  {
    // Stage history journaling: 3 + 2 + 1 = 6 frames for 3 fingerprints.
    CandidateStore store(path, test_scope());
    for (int stage = 0; stage <= 2; ++stage) {
      store.put(make_test_record(1, static_cast<Stage>(stage)));
    }
    for (int stage = 0; stage <= 1; ++stage) {
      store.put(make_test_record(2, static_cast<Stage>(stage)));
    }
    store.put(make_test_record(3, Stage::kChecked));
  }
  // Plus a corrupt frame (one flipped body byte) and a crash's torn tail.
  {
    std::string corrupt =
        encode_record(make_test_record(1, Stage::kChecked), test_scope());
    corrupt[kFrameHeaderBytes + 3] =
        static_cast<char>(corrupt[kFrameHeaderBytes + 3] ^ 0x40);
    const char torn[] = {100, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 't'};
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << corrupt;
    out.write(torn, sizeof(torn));
  }
  CandidateStore store(path, test_scope());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.recovered_line_errors(), 2u);  // corrupt frame + torn tail
  const auto before = std::filesystem::file_size(path);
  // Open truncated the torn tail; 6 frames + 1 corrupt -> 3 records.
  EXPECT_EQ(store.compact(), 4u);
  EXPECT_EQ(store.recovered_line_errors(), 0u);
  EXPECT_LT(std::filesystem::file_size(path), before);
  EXPECT_EQ(store.size(), 3u);
  const std::string compacted = util::read_file(path);
  EXPECT_EQ(scan_file(compacted).frames, 3u);
  EXPECT_EQ(scan_file(compacted).corrupt_frames, 0u);
  const auto got = store.lookup(make_test_record(1, Stage::kTrained).fingerprint);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stage, Stage::kTrained);

  // Idempotence: a second compact drops nothing and rewrites identical
  // bytes (journal and record set are already canonical).
  EXPECT_EQ(store.compact(), 0u);
  EXPECT_EQ(util::read_file(path), compacted);

  // The store stays writable and durable across compaction.
  EXPECT_TRUE(store.put(make_test_record(9, Stage::kProbed)));
  CandidateStore reopened(path, test_scope());
  EXPECT_EQ(reopened.size(), 4u);
  EXPECT_EQ(reopened.recovered_line_errors(), 0u);
  const auto r1 =
      reopened.lookup(make_test_record(1, Stage::kChecked).fingerprint);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->stage, Stage::kTrained);
  EXPECT_EQ(r1->test_score, make_test_record(1, Stage::kTrained).test_score);
}

TEST(BinaryStore, ConcurrentLookupsSeeMonotoneStagesDuringPuts) {
  // Four pool threads look up every fingerprint, pass after pass, while
  // this thread journals stage upgrades for all of them. Lookups share the
  // lock and pread() their frames, so they must never see a torn or
  // stale-after-newer frame, and each counts exactly one decoded frame per
  // hit.
  const std::string path = fresh_path("concurrent");
  CandidateStore store(path, test_scope());
  constexpr std::size_t kRecords = 64;
  // Passes a reader makes while the writer is busy. std::shared_mutex may
  // prefer readers, so readers that never paused could hold put() off
  // indefinitely; a bounded budget keeps the overlap and lets puts finish.
  constexpr std::size_t kPassesWhileWriting = 50;
  std::vector<Fingerprint> fps;
  for (std::size_t salt = 0; salt < kRecords; ++salt) {
    ASSERT_TRUE(store.put(make_test_record(salt, Stage::kChecked)));
    fps.push_back(make_test_record(salt, Stage::kChecked).fingerprint);
  }
  const std::size_t decoded_before = store.decoded_frames();

  util::ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<bool> writing{true};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> regressions{0};
  std::atomic<std::size_t> wrong{0};
  auto reader = [&] {
    std::vector<int> last(kRecords, -1);
    auto pass = [&] {
      for (std::size_t salt = 0; salt < kRecords; ++salt) {
        const auto record = store.lookup(fps[salt]);
        if (!record.has_value() ||
            record->id != "cand-" + std::to_string(salt)) {
          ++wrong;
          continue;
        }
        ++hits;
        const int stage = static_cast<int>(record->stage);
        if (stage < last[salt]) ++regressions;
        last[salt] = stage;
      }
    };
    ++started;
    for (std::size_t p = 0;
         p < kPassesWhileWriting && writing.load(std::memory_order_acquire);
         ++p) {
      pass();
    }
    while (writing.load(std::memory_order_acquire)) std::this_thread::yield();
    // One more full pass after the writer finished: it must see the final
    // stage everywhere.
    pass();
    return last;
  };
  std::vector<std::future<std::vector<int>>> readers;
  for (int t = 0; t < 4; ++t) readers.push_back(pool.submit(reader));
  // Start writing only once every reader is looking up.
  while (started.load() < 4) std::this_thread::yield();
  for (const Stage stage : {Stage::kProbed, Stage::kTrained}) {
    for (std::size_t salt = 0; salt < kRecords; ++salt) {
      EXPECT_TRUE(store.put(make_test_record(salt, stage)));
    }
  }
  writing.store(false, std::memory_order_release);
  for (auto& future : readers) {
    const std::vector<int> last = future.get();
    for (std::size_t salt = 0; salt < kRecords; ++salt) {
      EXPECT_EQ(last[salt], static_cast<int>(Stage::kTrained)) << salt;
    }
  }
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(hits.load(), 4 * kRecords);
  EXPECT_EQ(store.recovered_line_errors(), 0u);
  EXPECT_EQ(store.decoded_frames() - decoded_before, hits.load());
}

TEST(ShardPlan, ConvertedShardMergesByteIdentically) {
  // Three overlapping shard journals merge to the same bytes whether one of
  // them went through a JSONL export and back or not, and the furthest
  // stage wins per fingerprint.
  const std::vector<std::uint64_t> salts = {1, 2, 3, 4, 5, 6};
  auto fill = [&](CandidateStore& store, std::size_t begin, std::size_t end,
                  Stage stage) {
    for (std::size_t i = begin; i < end; ++i) {
      store.put(make_test_record(salts[i], stage));
    }
  };
  std::vector<std::string> paths;
  for (int s = 0; s < 3; ++s) {
    paths.push_back(fresh_path("mergeconv" + std::to_string(s)));
  }
  {
    CandidateStore s0(paths[0], test_scope());
    fill(s0, 0, 4, Stage::kProbed);
    CandidateStore s1(paths[1], test_scope());
    fill(s1, 2, 6, Stage::kTrained);  // overlaps s0 at stages above it
    CandidateStore s2(paths[2], test_scope());
    fill(s2, 4, 6, Stage::kChecked);  // overlaps s1 at stages below it
  }
  // Shard 1 exported to JSONL and imported back.
  const std::string exported = fresh_jsonl_path("mergeconv1");
  const std::string reimported = fresh_path("mergeconv1_back");
  (void)convert_journal(paths[1], exported);
  (void)convert_journal(exported, reimported);
  const std::vector<std::string> converted_paths = {paths[0], reimported,
                                                    paths[2]};

  std::size_t missing = 0;
  CandidateStore original(fresh_path("mergeconv_orig"), test_scope());
  const std::size_t accepted =
      merge_existing_shard_files(paths, original, &missing);
  EXPECT_EQ(missing, 0u);
  EXPECT_EQ(accepted, 8u);  // 4 + 4 (two upgrades) + 0 (s2 is below s1)
  CandidateStore converted(fresh_path("mergeconv_conv"), test_scope());
  EXPECT_EQ(merge_existing_shard_files(converted_paths, converted, &missing),
            accepted);
  EXPECT_EQ(util::read_file(converted.path()),
            util::read_file(original.path()));

  EXPECT_EQ(original.size(), salts.size());
  for (std::size_t i = 0; i < salts.size(); ++i) {
    const auto got = original.lookup(
        make_test_record(salts[i], Stage::kChecked).fingerprint);
    ASSERT_TRUE(got.has_value()) << salts[i];
    EXPECT_EQ(got->stage, i < 2 ? Stage::kProbed : Stage::kTrained) << salts[i];
  }
}

TEST(CandidateStore, EveryJournalPathIsBinary) {
  // One format: the names the benchmark driver reads still answer, but
  // they can only say binary.
  EXPECT_EQ(store_format_from_env(), StoreFormat::kBinary);
  EXPECT_EQ(journal_extension(StoreFormat::kBinary), std::string(".nsb"));
  EXPECT_EQ(std::string(kJournalExtension), ".nsb");
  ::setenv("NADA_STORE_DIR", "/tmp/nada_fmt_test", 1);
  const std::string path = default_store_path(test_scope());
  ::unsetenv("NADA_STORE_DIR");
  EXPECT_TRUE(path.ends_with(".nsb")) << path;
  EXPECT_NO_THROW(require_journal_path("a/b/x.nsb", "test"));
  for (const char* bad : {"a/b/x.jsonl", "a/b/x", "a/b/x.nsb.tmp"}) {
    EXPECT_THROW(require_journal_path(bad, "test"), std::invalid_argument)
        << bad;
  }
}

TEST(BinaryStore, MillionRecordOpenIsIndexTimeAndLookupIsLazy) {
  // The acceptance pin for the whole backend: a journal at (scaled)
  // million-candidate size opens in under 100 ms through its sidecar and
  // serves a cache hit after deserializing exactly one frame. Full scale
  // runs in CI's store-format-smoke job via NADA_SCALE_GEN=1.
  const auto scale = util::ScaleConfig::from_env();
  const std::size_t n = scale.gen_count(1'000'000, 50'000);
  const std::string path = fresh_path("million");

  // Synthesize the journal directly through the codec (put()'s
  // flush-per-append durability is the wrong tool for bulk fixture
  // generation).
  auto nth_fingerprint = [](std::size_t i) {
    Fingerprint fp;
    fp.hi = util::mix64(0x9e3779b97f4a7c15ULL + i);
    fp.lo = util::mix64(0x2545f4914f6cdd1dULL ^ i) | 1;
    return fp;
  };
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(kBinaryJournalMagic.data(),
              static_cast<std::streamsize>(kBinaryJournalMagic.size()));
    std::string buffer;
    for (std::size_t i = 0; i < n; ++i) {
      OutcomeRecord r;
      r.fingerprint = nth_fingerprint(i);
      r.stage = Stage::kProbed;
      r.id = "cand-" + std::to_string(i);
      r.source = "emit \"x\" = " + std::to_string(i) + ";\n";
      r.compiled = true;
      r.normalized = true;
      r.early_probed = true;
      r.early_rewards = {0.25, 0.5, 0.75};
      buffer += encode_record(r, test_scope());
      if (buffer.size() > (1u << 20)) {
        out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
        buffer.clear();
      }
    }
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    ASSERT_TRUE(out.good());
  }
  {
    // First open pays the one-time index build (O(records)), and persists
    // the sidecar for every open after it.
    CandidateStore store(path, test_scope());
    ASSERT_EQ(store.size(), n);
  }

  const auto t0 = std::chrono::steady_clock::now();
  CandidateStore store(path, test_scope());
  const auto open_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(store.size(), n);
  // The allocation guard: an indexed open materialized zero records.
  EXPECT_EQ(store.decoded_frames(), 0u);
  EXPECT_LT(open_ms, 100.0) << "indexed open of " << n << " records";

  // One cache hit = exactly one frame deserialized.
  const auto got = store.lookup(nth_fingerprint(n / 2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, "cand-" + std::to_string(n / 2));
  EXPECT_EQ(store.decoded_frames(), 1u);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".idx");
}

// ---- generator replay ------------------------------------------------------

TEST(GeneratorReplay, ResetReplaysTheExactStream) {
  gen::StateGenerator state_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                42);
  const auto first = state_gen.generate_batch(20);
  state_gen.reset();
  const auto replayed = state_gen.generate_batch(20);
  ASSERT_EQ(first.size(), replayed.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, replayed[i].id);
    EXPECT_EQ(first[i].source, replayed[i].source);
  }

  gen::ArchGenerator arch_gen(gen::gpt35_profile(), gen::PromptStrategy{},
                              43);
  const auto archs = arch_gen.generate_batch(20);
  arch_gen.reset();
  const auto archs2 = arch_gen.generate_batch(20);
  for (std::size_t i = 0; i < archs.size(); ++i) {
    EXPECT_EQ(archs[i].id, archs2[i].id);
    EXPECT_EQ(fingerprint_arch(archs[i].spec),
              fingerprint_arch(archs2[i].spec));
  }
}

// ---- search integration ----------------------------------------------------

search::SearchConfig tiny_config() {
  search::SearchConfig config;
  config.num_candidates = 30;
  config.early_epochs = 8;
  config.full_train_top = 3;
  config.seeds = 2;
  config.train.epochs = 24;
  config.train.test_interval = 8;
  config.train.max_eval_traces = 4;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 8;
  arch.scalar_hidden = 8;
  arch.merge_hidden = 16;
  config.baseline_arch = arch;
  return config;
}

struct SearchFixture {
  trace::Dataset dataset = trace::build_dataset(trace::Environment::kStarlink,
                                                0.2, 99);
  video::Video video = video::make_test_video(video::pensieve_ladder(), 7);
  env::AbrDomain domain{dataset, video};
  util::ThreadPool pool{8};

  [[nodiscard]] StoreScope scope(const search::SearchConfig& config,
                                 std::uint64_t seed) const {
    return search::store_scope(domain, config, seed);
  }

  /// A state search with the baseline architecture fixed, checkpointed
  /// into `store` when one is given; `resume` continues from its journal.
  search::SearchResult search_states(const search::SearchConfig& config,
                                     std::uint64_t seed,
                                     gen::StateGenerator& generator,
                                     CandidateStore* store,
                                     bool resume = false) {
    search::StateCandidateSource source(generator);
    search::SearchJob job(domain, config, seed, source,
                          {nullptr, &config.baseline_arch},
                          {.store = store, .pool = &pool});
    return resume ? job.resume() : job.run_to_completion();
  }
};

void expect_same_ranked_result(const search::SearchResult& a,
                               const search::SearchResult& b) {
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.n_fully_trained, b.n_fully_trained);
  EXPECT_EQ(a.n_early_stopped, b.n_early_stopped);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].compiled, b.outcomes[i].compiled);
    EXPECT_EQ(a.outcomes[i].normalized, b.outcomes[i].normalized);
    EXPECT_EQ(a.outcomes[i].early_stopped, b.outcomes[i].early_stopped);
    EXPECT_EQ(a.outcomes[i].fully_trained, b.outcomes[i].fully_trained);
    EXPECT_DOUBLE_EQ(a.outcomes[i].test_score, b.outcomes[i].test_score);
  }
}

TEST(SearchStore, SecondRunServesEverythingFromCache) {
  SearchFixture fx;
  const std::string path = fresh_path("pipeline_cache");
  const search::SearchConfig config = tiny_config();

  CandidateStore store1(path, fx.scope(config, 1234));
  gen::StateGenerator gen1(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  const auto run1 = fx.search_states(config, 1234, gen1, &store1);
  EXPECT_GT(run1.n_probes_run, 0u);
  EXPECT_GT(run1.n_full_trains_run, 0u);
  EXPECT_EQ(run1.cache_hits(), 0u);

  // A fresh process: new job, the journal reopened from disk, the same
  // generator stream.
  CandidateStore store2(path, fx.scope(config, 1234));
  gen::StateGenerator gen2(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  const auto run2 = fx.search_states(config, 1234, gen2, &store2);

  // Zero duplicate work: no probes, no full-training runs.
  EXPECT_EQ(run2.n_probes_run, 0u);
  EXPECT_EQ(run2.n_full_trains_run, 0u);
  EXPECT_EQ(run2.n_precheck_cache_hits, run2.n_total);
  EXPECT_EQ(run2.n_full_cache_hits, run1.n_full_trains_run);
  expect_same_ranked_result(run1, run2);
}

TEST(SearchStore, ResumesFromTruncatedCheckpointToSameResult) {
  SearchFixture fx;
  const std::string path = fresh_path("pipeline_resume_full");
  const search::SearchConfig config = tiny_config();

  CandidateStore store1(path, fx.scope(config, 4321));
  gen::StateGenerator gen1(gen::gpt4_profile(), gen::PromptStrategy{}, 88);
  const auto full_run = fx.search_states(config, 4321, gen1, &store1);
  EXPECT_GT(full_run.n_full_trains_run, 0u);

  // Simulate a crash mid-way through the full-training stage: keep the
  // journal up to the first trained record, torn half-way through it.
  const std::string content = util::read_file(path);
  std::size_t cut = 0;
  scan_binary_journal(
      std::string_view(content).substr(kBinaryJournalMagic.size()),
      [&](std::uint64_t offset, std::string_view frame) {
        const auto scoped = decode_record_any(frame);
        if (cut == 0 && scoped && scoped->record.stage == Stage::kTrained) {
          cut = kBinaryJournalMagic.size() + offset + frame.size() / 2;
        }
      });
  ASSERT_NE(cut, 0u);
  const std::string interrupted_journal = content.substr(0, cut);
  const std::string resume_path = fresh_path("pipeline_resume_torn");
  util::write_file_atomic(resume_path, interrupted_journal);

  CandidateStore store2(resume_path, fx.scope(config, 4321));
  EXPECT_EQ(store2.recovered_line_errors(), 1u);
  gen::StateGenerator gen2(gen::gpt4_profile(), gen::PromptStrategy{}, 88);
  const auto resumed_run =
      fx.search_states(config, 4321, gen2, &store2, /*resume=*/true);

  // Prechecks and probes come from the checkpoint; only full training
  // (whose records were lost in the crash) re-executes.
  EXPECT_EQ(resumed_run.n_probes_run, 0u);
  EXPECT_EQ(resumed_run.n_full_trains_run, full_run.n_full_trains_run);
  expect_same_ranked_result(full_run, resumed_run);
}

TEST(SearchStore, ArchSearchCachesAcrossRuns) {
  SearchFixture fx;
  const std::string path = fresh_path("pipeline_arch_cache");
  search::SearchConfig config = tiny_config();
  config.num_candidates = 20;
  const auto state =
      dsl::StateProgram::compile(dsl::pensieve_state_source());

  CandidateStore store1(path, fx.scope(config, 555));
  gen::ArchGenerator gen1(gen::gpt35_profile(), gen::PromptStrategy{}, 99,
                          0.25);
  search::ArchCandidateSource source1(gen1);
  const auto run1 =
      search::SearchJob(fx.domain, config, 555, source1, {&state, nullptr},
                        {.store = &store1, .pool = &fx.pool})
          .run_to_completion();
  EXPECT_GT(run1.n_full_trains_run, 0u);

  CandidateStore store2(path, fx.scope(config, 555));
  gen::ArchGenerator gen2(gen::gpt35_profile(), gen::PromptStrategy{}, 99,
                          0.25);
  search::ArchCandidateSource source2(gen2);
  const auto run2 =
      search::SearchJob(fx.domain, config, 555, source2, {&state, nullptr},
                        {.store = &store2, .pool = &fx.pool})
          .resume();
  EXPECT_EQ(run2.n_probes_run, 0u);
  EXPECT_EQ(run2.n_full_trains_run, 0u);
  expect_same_ranked_result(run1, run2);
}

TEST(SearchStore, InBatchClonesShareOneProbe) {
  // Even without a store, candidates with identical content (same state
  // fingerprint, same arch) must probe exactly once: n_probes_run equals
  // the number of distinct fingerprints among normalized candidates.
  SearchFixture fx;
  const search::SearchConfig config = tiny_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                33);
  const auto result = fx.search_states(config, 2468, generator, nullptr);
  const Fingerprint arch_fp = fingerprint_arch(config.baseline_arch);
  std::set<std::string> distinct;
  for (const auto& outcome : result.outcomes) {
    if (outcome.compiled && outcome.normalized) {
      distinct.insert(
          combine(fingerprint_state_source(outcome.source), arch_fp).hex());
    }
  }
  EXPECT_EQ(result.n_probes_run, distinct.size());
}

TEST(SearchStore, JobRejectsMismatchedScope) {
  SearchFixture fx;
  const search::SearchConfig config = tiny_config();
  CandidateStore wrong(fresh_path("wrong_scope"),
                       StoreScope{"fcc", "not-this-pipeline"});
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                7);
  EXPECT_THROW((void)fx.search_states(config, 1, generator, &wrong),
               std::invalid_argument);

  // Different funnel budgets => different scope digests.
  search::SearchConfig other = config;
  other.early_epochs += 4;
  EXPECT_NE(fx.scope(config, 1).config_digest,
            fx.scope(other, 1).config_digest);
  EXPECT_EQ(fx.scope(config, 1).env, "Starlink");

  // Same environment but different traces (another dataset build seed)
  // must not alias either: results are only reusable on the same data.
  const trace::Dataset other_data =
      trace::build_dataset(trace::Environment::kStarlink, 0.2, 100);
  const env::AbrDomain other_env(other_data, fx.video);
  EXPECT_NE(fx.scope(config, 1).config_digest,
            search::store_scope(other_env, config, 1).config_digest);
}

}  // namespace
}  // namespace nada::store
