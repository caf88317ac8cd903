// The congestion-control domain through the shared funnel: deterministic
// episodes, CC training against golden results at every block size, and a
// tiny end-to-end CC search with store caching/resume — the same
// guarantees the ABR domain pins in batch_probe_test and store_test, now
// exercised through env::TaskDomain.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cc/cc_domain.h"
#include "cc/cc_env.h"
#include "cc/cc_state.h"
#include "env/abr_domain.h"
#include "gen/state_gen.h"
#include "golden.h"
#include "rl/trainer.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "store/record_codec.h"
#include "trace/generator.h"
#include "util/fs.h"

namespace nada {
namespace {

cc::CcConfig tiny_cc_config() {
  cc::CcConfig config;
  config.steps_per_episode = 30;
  config.init_rate_mbps = 2.0;
  return config;
}

trace::Dataset cc_dataset() {
  return trace::build_dataset(trace::Environment::k4G, 0.2, 1234);
}

nn::ArchSpec tiny_arch() {
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 8;
  arch.rnn_hidden = 8;
  arch.scalar_hidden = 8;
  arch.merge_hidden = 16;
  return arch;
}

rl::TrainConfig tiny_train_config() {
  rl::TrainConfig config;
  config.epochs = 6;
  config.test_interval = 3;
  config.max_eval_traces = 2;
  return config;
}

std::vector<dsl::StateProgram> cc_probe_programs() {
  std::vector<dsl::StateProgram> programs;
  programs.push_back(
      dsl::StateProgram::compile(cc::default_cc_state_source()));
  programs.push_back(dsl::StateProgram::compile(
      "emit \"ack\" = ack_rate_mbps / 100.0;\n"
      "emit \"queue\" = (rtt_ms - min_rtt_ms) / 200.0;\n"
      "emit \"loss\" = loss_fraction;\n"));
  programs.push_back(dsl::StateProgram::compile(
      "emit \"rate\" = log1p(current_rate_mbps) / 6.0;\n"
      "emit \"trend\" = trend(ack_rate_mbps) / 100.0;\n"
      "emit \"rtt\" = log1p(rtt_ms) / 8.0;\n"));
  return programs;
}

// ---- deterministic episodes -------------------------------------------------

TEST(CcDeterminism, SameSeedSameEpisodeBitwise) {
  const auto dataset = cc_dataset();
  const cc::CcConfig config = tiny_cc_config();
  util::Rng rng_a(42), rng_b(42);
  cc::CcEnv env_a(dataset.train[0], config, rng_a);
  cc::CcEnv env_b(dataset.train[0], config, rng_b);
  cc::CcObservation obs_a = env_a.reset();
  cc::CcObservation obs_b = env_b.reset();
  EXPECT_EQ(obs_a.current_rate_mbps, obs_b.current_rate_mbps);
  std::size_t step = 0;
  while (!env_a.done()) {
    const auto ra = env_a.step(step % cc::rate_actions().size());
    const auto rb = env_b.step(step % cc::rate_actions().size());
    // Bitwise: the whole simulator (queue, loss, jitter draws) must be a
    // pure function of (trace, config, seed).
    EXPECT_EQ(ra.reward, rb.reward) << "step " << step;
    EXPECT_EQ(ra.rtt_ms, rb.rtt_ms) << "step " << step;
    EXPECT_EQ(ra.loss, rb.loss) << "step " << step;
    EXPECT_EQ(ra.observation.ack_rate_mbps, rb.observation.ack_rate_mbps);
    EXPECT_EQ(ra.observation.rtt_ms, rb.observation.rtt_ms);
    ++step;
  }
  EXPECT_EQ(step, config.steps_per_episode);
  EXPECT_TRUE(env_b.done());
}

TEST(CcDeterminism, ConstructionDrawsNothingAndStepBeforeResetThrows) {
  const auto dataset = cc_dataset();
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  // Constructing an env must not advance the caller's stream.
  cc::CcEnv env(dataset.train[0], tiny_cc_config(), rng_a);
  EXPECT_EQ(rng_a.uniform(), rng_b.uniform());
  EXPECT_THROW((void)env.step(0), std::logic_error);
  EXPECT_FALSE(env.done());
}

TEST(CcDeterminism, DomainEpisodesReplayBitwise) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  util::Rng rng_a(99), rng_b(99);
  auto ep_a = domain.start_train_episode(env::Fidelity::kSimulation, rng_a);
  auto ep_b = domain.start_train_episode(env::Fidelity::kSimulation, rng_b);
  dsl::Bindings obs_a = ep_a->reset();
  dsl::Bindings obs_b = ep_b->reset();
  while (!ep_a->done()) {
    const auto sa = ep_a->step(2);
    const auto sb = ep_b->step(2);
    EXPECT_EQ(sa.reward, sb.reward);
    EXPECT_EQ(sa.done, sb.done);
  }
  EXPECT_TRUE(ep_b->done());
}

// ---- training against golden results ---------------------------------------

/// Trains `jobs` at block sizes 1, 3 and jobs.size() and expects each run
/// to reproduce the golden `section`, recorded from the single-sample
/// trainer the lockstep engine replaced.
void expect_golden_at_every_block_size(const std::string& section,
                                       const cc::CcDomain& domain,
                                       const rl::TrainConfig& config,
                                       const std::vector<rl::TrainJob>& jobs) {
  for (const std::size_t block : {std::size_t{1}, std::size_t{3}, jobs.size()}) {
    SCOPED_TRACE("block size " + std::to_string(block));
    const rl::Trainer trainer(domain, config, block);
    const auto results = trainer.train(jobs);
    for (const auto& r : results) EXPECT_FALSE(r.failed) << r.error;
    golden::expect_golden("train_results.txt", section,
                          golden::format_train_results(results));
  }
}

TEST(CcTrainer, ProbeBudgetMatchesGolden) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  const auto programs = cc_probe_programs();
  const nn::ArchSpec arch = tiny_arch();
  rl::TrainConfig config = tiny_train_config();
  config.evaluate_checkpoints = false;  // the funnel's probe shape

  std::vector<rl::TrainJob> jobs;
  for (std::size_t i = 0; i < 5; ++i) {
    jobs.push_back(rl::TrainJob{&programs[i % programs.size()], &arch,
                                0xcc00 + 31 * i});
  }
  expect_golden_at_every_block_size("cc-probe", domain, config, jobs);
}

TEST(CcTrainer, CheckpointEvaluationMatchesGolden) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  const auto programs = cc_probe_programs();
  const nn::ArchSpec arch = tiny_arch();
  const rl::TrainConfig config = tiny_train_config();

  std::vector<rl::TrainJob> jobs;
  for (std::size_t i = 0; i < 4; ++i) {
    jobs.push_back(rl::TrainJob{&programs[i % programs.size()], &arch,
                                0xcc10 + 17 * i});
  }
  expect_golden_at_every_block_size("cc-checkpoints", domain, config, jobs);
}

// ---- end-to-end CC search ---------------------------------------------------

search::SearchConfig tiny_cc_search_config() {
  search::SearchConfig config;
  config.num_candidates = 20;
  config.early_epochs = 4;
  config.full_train_top = 2;
  config.seeds = 2;
  config.train = tiny_train_config();
  config.train.epochs = 8;
  config.train.test_interval = 4;
  config.baseline_arch = tiny_arch();
  config.probe_block = 3;
  return config;
}

std::string fresh_store_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("nada_cc_funnel_" + name + ".nsb"))
          .string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".idx");
  return path;
}

/// A CC state search from `generator_seed`'s stream, checkpointed into
/// `store` when one is given; `resume` continues from its journal.
search::SearchResult search_cc_states(const cc::CcDomain& domain,
                                      std::uint64_t seed,
                                      std::uint64_t generator_seed,
                                      util::ThreadPool& pool,
                                      store::CandidateStore* store = nullptr,
                                      bool resume = false) {
  const search::SearchConfig config = tiny_cc_search_config();
  gen::StateGenerator generator(gen::cc_state_space(), gen::gpt4_profile(),
                                gen::PromptStrategy{}, generator_seed);
  search::StateCandidateSource source(generator);
  search::SearchJob job(domain, config, seed, source,
                        {nullptr, &config.baseline_arch},
                        {.store = store, .pool = &pool});
  return resume ? job.resume() : job.run_to_completion();
}

TEST(CcSearch, FunnelRunsEndToEnd) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  util::ThreadPool pool{4};
  const auto result = search_cc_states(domain, 777, 55, pool);

  EXPECT_EQ(result.n_total, 20u);
  EXPECT_GT(result.n_compiled, 0u);
  EXPECT_LE(result.n_normalized, result.n_compiled);
  EXPECT_GT(result.n_fully_trained, 0u);
  EXPECT_LE(result.n_fully_trained, 2u);
  EXPECT_TRUE(result.has_best());
  EXPECT_GT(result.best_score, -1e8);
  EXPECT_FALSE(result.original.failed);
  // CC candidate ids carry the domain token.
  for (const auto& outcome : result.outcomes) {
    EXPECT_NE(outcome.id.find("-cc-state-"), std::string::npos) << outcome.id;
  }
}

TEST(CcSearch, StoreScopeCarriesDomainToken) {
  const auto dataset = cc_dataset();
  const cc::CcDomain cc_domain(dataset, tiny_cc_config());
  const video::Video video = video::make_test_video(video::pensieve_ladder(),
                                                    7);
  const env::AbrDomain abr_domain(dataset, video);
  const auto cc_scope =
      search::store_scope(cc_domain, tiny_cc_search_config(), 1);
  const auto abr_scope =
      search::store_scope(abr_domain, tiny_cc_search_config(), 1);
  EXPECT_EQ(cc_scope.env, "cc-4G");
  EXPECT_EQ(abr_scope.env, "4G");
  EXPECT_NE(cc_scope.env, abr_scope.env);
  // Same trace environment, different domain: journals must never alias.
  EXPECT_FALSE(cc_scope == abr_scope);
}

TEST(CcSearch, SecondRunServesEverythingFromCache) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  util::ThreadPool pool{4};
  const std::string path = fresh_store_path("cache");
  const auto scope = search::store_scope(domain, tiny_cc_search_config(), 4242);

  store::CandidateStore store_a(path, scope);
  const auto run_a = search_cc_states(domain, 4242, 91, pool, &store_a);
  EXPECT_GT(run_a.n_probes_run, 0u);
  EXPECT_GT(run_a.n_full_trains_run, 0u);

  store::CandidateStore store_b(path, scope);
  const auto run_b = search_cc_states(domain, 4242, 91, pool, &store_b);

  // Everything is served from the journal: zero duplicate training.
  EXPECT_EQ(run_b.n_probes_run, 0u);
  EXPECT_EQ(run_b.n_full_trains_run, 0u);
  EXPECT_GT(run_b.cache_hits(), 0u);
  ASSERT_EQ(run_a.outcomes.size(), run_b.outcomes.size());
  for (std::size_t i = 0; i < run_a.outcomes.size(); ++i) {
    EXPECT_EQ(run_a.outcomes[i].early_rewards,
              run_b.outcomes[i].early_rewards);
    EXPECT_EQ(run_a.outcomes[i].test_score, run_b.outcomes[i].test_score);
    EXPECT_EQ(run_a.outcomes[i].fully_trained,
              run_b.outcomes[i].fully_trained);
  }
  EXPECT_EQ(run_a.best_index, run_b.best_index);
  EXPECT_EQ(run_a.best_score, run_b.best_score);
}

TEST(CcSearch, ResumeAfterTruncatedJournalMatchesFullRun) {
  const auto dataset = cc_dataset();
  const cc::CcDomain domain(dataset, tiny_cc_config());
  util::ThreadPool pool{4};
  const std::string full_path = fresh_store_path("resume_full");
  const std::string cut_path = fresh_store_path("resume_cut");
  const auto scope =
      search::store_scope(domain, tiny_cc_search_config(), 31337);

  // Reference run.
  store::CandidateStore full_store(full_path, scope);
  const auto want = search_cc_states(domain, 31337, 17, pool, &full_store);

  // Simulate an interruption: keep only the first half of the journal's
  // frames.
  {
    const std::string content = util::read_file(full_path);
    const std::string_view frames = store::journal_frames(content, full_path);
    std::vector<std::uint64_t> frame_ends;
    store::scan_binary_journal(
        frames, [&](std::uint64_t offset, std::string_view frame) {
          frame_ends.push_back(offset + frame.size());
        });
    ASSERT_GE(frame_ends.size(), 2u);
    const std::size_t keep = content.size() - frames.size() +
                             frame_ends[frame_ends.size() / 2 - 1];
    util::write_file_atomic(cut_path, content.substr(0, keep));
  }

  store::CandidateStore cut_store(cut_path, scope);
  const auto got = search_cc_states(domain, 31337, 17, pool, &cut_store,
                                    /*resume=*/true);

  ASSERT_EQ(want.outcomes.size(), got.outcomes.size());
  for (std::size_t i = 0; i < want.outcomes.size(); ++i) {
    EXPECT_EQ(want.outcomes[i].early_rewards, got.outcomes[i].early_rewards)
        << want.outcomes[i].id;
    EXPECT_EQ(want.outcomes[i].test_score, got.outcomes[i].test_score);
  }
  EXPECT_EQ(want.best_index, got.best_index);
  EXPECT_EQ(want.best_score, got.best_score);
}

// ---- CC generator sanity ----------------------------------------------------

TEST(CcGenerator, CandidatesUseCcVocabulary) {
  gen::StateGenerator generator(gen::cc_state_space(), gen::gpt4_profile(),
                                gen::PromptStrategy{}, 3);
  std::size_t compiled = 0;
  for (int i = 0; i < 60; ++i) {
    const auto cand = generator.generate();
    if (cand.flaw != gen::InjectedFlaw::kNone) continue;
    std::optional<dsl::StateProgram> program;
    const auto check =
        filter::compilation_check(cand.source, cc::cc_catalog(), &program);
    EXPECT_TRUE(check.passed) << cand.source << "\n" << check.reason;
    if (!check.passed) continue;
    ++compiled;
    // Clean CC candidates are well-normalized under CC fuzz ranges.
    EXPECT_TRUE(
        filter::normalization_check(*program, cc::cc_catalog()).passed)
        << cand.source;
    // ...and reference variables outside the ABR vocabulary, so the ABR
    // catalog rejects them at trial-run time.
    EXPECT_FALSE(
        filter::compilation_check(cand.source, env::abr_catalog()).passed)
        << cand.source;
  }
  EXPECT_GT(compiled, 10u);
}

TEST(CcGenerator, PlantedFlawsAreCaught) {
  gen::StateGenerator generator(gen::cc_state_space(), gen::gpt35_profile(),
                                gen::PromptStrategy{}, 4);
  std::size_t syntax_seen = 0, runtime_seen = 0, unnorm_seen = 0;
  for (int i = 0; i < 300 && (syntax_seen < 5 || runtime_seen < 5 ||
                              unnorm_seen < 5);
       ++i) {
    const auto cand = generator.generate();
    std::optional<dsl::StateProgram> program;
    const auto compile =
        filter::compilation_check(cand.source, cc::cc_catalog(), &program);
    switch (cand.flaw) {
      case gen::InjectedFlaw::kSyntax:
        ++syntax_seen;
        EXPECT_FALSE(compile.passed) << cand.source;
        break;
      case gen::InjectedFlaw::kRuntime:
        ++runtime_seen;
        EXPECT_FALSE(compile.passed) << cand.source;
        break;
      case gen::InjectedFlaw::kUnnormalized:
        ++unnorm_seen;
        if (compile.passed) {
          EXPECT_FALSE(
              filter::normalization_check(*program, cc::cc_catalog()).passed)
              << cand.source;
        }
        break;
      case gen::InjectedFlaw::kNone:
        break;
    }
  }
  EXPECT_GE(syntax_seen, 5u);
  EXPECT_GE(runtime_seen, 5u);
  EXPECT_GE(unnorm_seen, 5u);
}

}  // namespace
}  // namespace nada
