// The training engine's headline guarantee: a job's TrainResult depends
// only on its (design, seed) — never on the lockstep block size, the pool,
// or the other jobs sharing its block — and matches, bit for bit, the
// golden results in tests/golden/train_results.txt, recorded from the
// single-sample trainer this engine replaced. The search funnel's probe
// stage journals the same records at any block size.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "golden.h"
#include "dsl/state_program.h"
#include "env/abr_domain.h"
#include "gen/state_gen.h"
#include "rl/trainer.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "trace/generator.h"
#include "util/thread_pool.h"
#include "video/video.h"

namespace nada::rl {
namespace {

nn::ArchSpec tiny_arch() {
  nn::ArchSpec spec = nn::ArchSpec::pensieve();
  spec.conv_filters = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 16;
  return spec;
}

trace::Dataset tiny_dataset(std::uint64_t seed = 11) {
  return trace::build_dataset(trace::Environment::kFcc, 0.03, seed);
}

std::vector<dsl::StateProgram> candidate_programs() {
  std::vector<dsl::StateProgram> programs;
  programs.push_back(
      dsl::StateProgram::compile(dsl::pensieve_state_source()));
  programs.push_back(dsl::StateProgram::compile(
      "emit \"buf\" = buffer_size_s / 10.0;\n"
      "emit \"tput\" = throughput_mbps / 8.0;\n"));
  programs.push_back(dsl::StateProgram::compile(
      "emit \"tput\" = throughput_mbps / 8.0;\n"
      "emit \"dl\" = download_time_s / 10.0;\n"
      "emit \"left\" = chunks_remaining / total_chunks;\n"));
  return programs;
}

std::vector<TrainJob> make_jobs(const std::vector<dsl::StateProgram>& programs,
                                const nn::ArchSpec& arch, std::size_t count) {
  std::vector<TrainJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(TrainJob{&programs[i % programs.size()], &arch,
                            0xb10bULL * 131 + i * 0x9e3779b9ULL});
  }
  return jobs;
}

/// Trains `jobs` one per block, in ragged blocks of 3, and all in one
/// block, and expects each run to reproduce the golden `section`.
std::vector<TrainResult> expect_golden_at_every_block_size(
    const std::string& section, const trace::Dataset& dataset,
    const video::Video& video, const TrainConfig& config,
    const std::vector<TrainJob>& jobs) {
  std::vector<TrainResult> results;
  for (const std::size_t block : {std::size_t{1}, std::size_t{3}, jobs.size()}) {
    SCOPED_TRACE("block size " + std::to_string(block));
    const Trainer trainer(dataset, video, config, block);
    results = trainer.train(jobs);
    golden::expect_golden("train_results.txt", section,
                          golden::format_train_results(results));
  }
  return results;
}

TEST(Trainer, ProbeBudgetMatchesGolden) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 5);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 12;
  config.evaluate_checkpoints = false;  // the pipeline's probe setting
  const auto results = expect_golden_at_every_block_size(
      "abr-probe", dataset, video, config, make_jobs(programs, arch, 7));
  for (const auto& r : results) EXPECT_FALSE(r.failed) << r.error;
}

TEST(Trainer, CheckpointEvaluationMatchesGolden) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 6);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 10;
  config.test_interval = 5;
  config.max_eval_traces = 2;  // exercises the strided eval subset too
  const auto results = expect_golden_at_every_block_size(
      "abr-checkpoints", dataset, video, config, make_jobs(programs, arch, 4));
  for (const auto& r : results) EXPECT_EQ(r.test_scores.size(), 2u);
}

TEST(Trainer, EmulationFidelityMatchesGolden) {
  // Emulation sessions draw jitter from the job's RNG inside every step,
  // so this pins the interleaving of action draws and session draws.
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 7);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 6;
  config.fidelity = env::Fidelity::kEmulation;
  config.evaluate_checkpoints = false;
  (void)expect_golden_at_every_block_size("abr-emulation", dataset, video,
                                          config,
                                          make_jobs(programs, arch, 5));
}

TEST(Trainer, FailedJobIsolatedFromBlock) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 8);
  const auto programs = candidate_programs();
  const auto fragile = dsl::StateProgram::compile(
      "emit \"x\" = log(vmin(throughput_mbps));\n");
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 8;
  config.evaluate_checkpoints = false;

  // Fragile job in the middle of a block.
  std::vector<TrainJob> jobs = make_jobs(programs, arch, 4);
  jobs.insert(jobs.begin() + 1, TrainJob{&fragile, &arch, 0xdeadULL});
  const auto results = expect_golden_at_every_block_size(
      "abr-failing", dataset, video, config, jobs);
  EXPECT_TRUE(results[1].failed);
  EXPECT_FALSE(results[0].failed);
  EXPECT_FALSE(results[2].failed);
}

TEST(Trainer, PoolScheduledBlocksMatchGolden) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 9);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 8;
  config.evaluate_checkpoints = false;
  const auto jobs = make_jobs(programs, arch, 9);
  util::ThreadPool pool(3);
  for (const std::size_t block : {1u, 2u}) {
    SCOPED_TRACE("block size " + std::to_string(block));
    const Trainer trainer(dataset, video, config, block);
    golden::expect_golden(
        "train_results.txt", "abr-pool",
        golden::format_train_results(trainer.train(jobs, &pool)));
  }
}

TEST(Trainer, ArchVariantsMatchGolden) {
  // Every temporal unit and the shared trunk, each under a budget below
  // the checkpoint interval (one final evaluation) plus the emulation
  // final evaluation.
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 12);
  const auto programs = candidate_programs();
  std::vector<nn::ArchSpec> archs(5, tiny_arch());
  archs[1].temporal = nn::TemporalUnit::kRnn;
  archs[1].rnn_hidden = 6;
  archs[2].temporal = nn::TemporalUnit::kLstm;
  archs[2].rnn_hidden = 5;
  archs[3].shared_trunk = true;
  archs[3].merge_layers = 2;
  archs[3].activation = nn::Activation::kLeakyRelu;
  archs[4].temporal = nn::TemporalUnit::kDense;
  archs[4].activation = nn::Activation::kTanh;
  TrainConfig config;
  config.epochs = 5;
  config.test_interval = 10;
  config.max_eval_traces = 2;
  config.emulation_final_eval = true;
  std::vector<TrainJob> jobs;
  for (std::size_t i = 0; i < 2 * archs.size(); ++i) {
    jobs.push_back(TrainJob{&programs[i % programs.size()],
                            &archs[i % archs.size()], 0xa4c0ULL + 7 * i});
  }
  const auto results = expect_golden_at_every_block_size(
      "abr-archs", dataset, video, config, jobs);
  for (const auto& r : results) {
    EXPECT_FALSE(r.failed) << r.error;
    EXPECT_EQ(r.test_scores.size(), 1u);
  }
}

TEST(Trainer, SingleJobOverloadMatchesBlockedRun) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 5);
  const auto programs = candidate_programs();
  const auto arch = tiny_arch();
  TrainConfig config;
  config.epochs = 4;
  config.evaluate_checkpoints = false;
  const auto jobs = make_jobs(programs, arch, 3);
  const Trainer trainer(dataset, video, config, 3);
  const auto blocked = trainer.train(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(golden::format_train_result(trainer.train(
                  *jobs[i].program, *jobs[i].spec, jobs[i].seed)),
              golden::format_train_result(blocked[i]));
  }
}

TEST(Trainer, RejectsDegenerateConfig) {
  const auto dataset = tiny_dataset();
  const auto video = video::make_test_video(video::pensieve_ladder(), 10);
  TrainConfig zero_epochs;
  zero_epochs.epochs = 0;
  EXPECT_THROW(Trainer(dataset, video, zero_epochs, 4),
               std::invalid_argument);
  TrainConfig zero_interval;
  zero_interval.test_interval = 0;
  EXPECT_THROW(Trainer(dataset, video, zero_interval, 4),
               std::invalid_argument);
  TrainConfig config;
  config.epochs = 2;
  // Block size 0 is rejected like search::validate_config rejects
  // probe_block == 0, not silently promoted to 1.
  EXPECT_THROW(Trainer(dataset, video, config, 0), std::invalid_argument);
  const auto arch = tiny_arch();
  const Trainer trainer(dataset, video, config, 4);
  std::vector<TrainJob> null_job{TrainJob{nullptr, &arch, 1}};
  EXPECT_THROW((void)trainer.train(null_job), std::invalid_argument);
}

// ---- search-level equivalence -----------------------------------------------

class TempStoreDir {
 public:
  TempStoreDir() {
    path_ = (std::filesystem::temp_directory_path() / "nada_batch_probe_test")
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempStoreDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

TEST(SearchProbeBlock, BlockSizeLeavesOutcomesAndJournalsUnchanged) {
  const auto dataset = tiny_dataset(21);
  const auto video = video::make_test_video(video::pensieve_ladder(), 5);
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool(2);

  search::SearchConfig config;
  config.num_candidates = 14;
  config.early_epochs = 6;
  config.full_train_top = 2;
  config.seeds = 2;
  config.train.epochs = 8;
  config.train.test_interval = 4;

  TempStoreDir dir;
  auto run = [&](std::size_t probe_block, const std::string& journal) {
    search::SearchConfig c = config;
    c.probe_block = probe_block;
    store::CandidateStore store(dir.file(journal),
                                search::store_scope(domain, c, 424242));
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  99);
    search::StateCandidateSource source(generator);
    auto result = search::SearchJob(domain, c, 424242, source,
                                    {nullptr, &config.baseline_arch},
                                    {.store = &store, .pool = &pool})
                      .run_to_completion();
    return std::make_pair(std::move(result), store.records());
  };

  // One candidate per block against ragged blocks of four.
  auto [one_result, one_records] = run(1, "block1.nsb");
  auto [four_result, four_records] = run(4, "block4.nsb");

  // The probe_block knob must not move a result: both runs share the same
  // funnel digest, so cached journals survive changing it.
  ASSERT_EQ(one_result.n_total, four_result.n_total);
  EXPECT_EQ(one_result.n_probes_run, four_result.n_probes_run);
  EXPECT_EQ(one_result.n_early_stopped, four_result.n_early_stopped);
  EXPECT_EQ(one_result.best_index, four_result.best_index);
  EXPECT_EQ(one_result.best_score, four_result.best_score);
  ASSERT_EQ(one_result.outcomes.size(), four_result.outcomes.size());
  for (std::size_t i = 0; i < one_result.outcomes.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    const auto& a = one_result.outcomes[i];
    const auto& b = four_result.outcomes[i];
    EXPECT_EQ(a.early_probed, b.early_probed);
    EXPECT_EQ(a.early_rewards, b.early_rewards);  // bitwise
    EXPECT_EQ(a.early_stopped, b.early_stopped);
    EXPECT_EQ(a.fully_trained, b.fully_trained);
    EXPECT_EQ(a.test_score, b.test_score);
  }

  // Journal contents match record for record.
  auto by_fp = [](const std::vector<store::OutcomeRecord>& records) {
    std::map<std::string, store::OutcomeRecord> index;
    for (const auto& r : records) index[r.fingerprint.hex()] = r;
    return index;
  };
  const auto one_map = by_fp(one_records);
  const auto four_map = by_fp(four_records);
  ASSERT_EQ(one_map.size(), four_map.size());
  for (const auto& [fp, a] : one_map) {
    SCOPED_TRACE("fingerprint " + fp);
    const auto it = four_map.find(fp);
    ASSERT_NE(it, four_map.end());
    const auto& b = it->second;
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_EQ(a.early_probed, b.early_probed);
    EXPECT_EQ(a.early_rewards, b.early_rewards);  // bitwise
    EXPECT_EQ(a.compile_error, b.compile_error);
    EXPECT_EQ(a.fully_trained, b.fully_trained);
    EXPECT_EQ(a.test_score, b.test_score);
  }
}

}  // namespace
}  // namespace nada::rl
