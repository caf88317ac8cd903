// End-to-end integration tests crossing every module boundary:
// generator -> DSL -> checks -> env -> nn -> rl -> search, plus
// determinism and failure-injection properties that only show up when the
// whole stack runs together.
#include <gtest/gtest.h>

#include <cmath>

#include "abr/policies.h"
#include "env/abr_domain.h"
#include "filter/checks.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "search/search_job.h"

namespace nada {
namespace {

search::SearchConfig small_config() {
  search::SearchConfig config;
  config.num_candidates = 30;
  config.early_epochs = 12;
  config.full_train_top = 2;
  config.seeds = 2;
  config.train.epochs = 60;
  config.train.test_interval = 20;
  config.train.max_eval_traces = 3;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.rnn_hidden = arch.scalar_hidden =
      arch.merge_hidden = 8;
  config.baseline_arch = arch;
  return config;
}

/// One blocking state search over the ABR domain of (dataset, video).
search::SearchResult search_states(const trace::Dataset& dataset,
                                   const video::Video& video,
                                   const search::SearchConfig& config,
                                   std::uint64_t seed,
                                   gen::StateGenerator& generator,
                                   util::ThreadPool* pool) {
  const env::AbrDomain domain(dataset, video);
  search::StateCandidateSource source(generator);
  return search::SearchJob(domain, config, seed, source,
                           {nullptr, &config.baseline_arch}, {.pool = pool})
      .run_to_completion();
}

TEST(Integration, FullStateSearchIsDeterministicForSeed) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kFcc, 0.03, 5);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 5);

  auto run = [&] {
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  9);
    return search_states(dataset, video, small_config(), 42, generator,
                         nullptr);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.n_compiled, b.n_compiled);
  EXPECT_EQ(a.n_normalized, b.n_normalized);
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_DOUBLE_EQ(a.original_score, b.original_score);
}

TEST(Integration, ParallelSearchMatchesSerial) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.1, 6);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 6);

  gen::StateGenerator g1(gen::gpt4_profile(), gen::PromptStrategy{}, 3);
  const auto a = search_states(dataset, video, small_config(), 7, g1, nullptr);

  util::ThreadPool pool(8);
  gen::StateGenerator g2(gen::gpt4_profile(), gen::PromptStrategy{}, 3);
  const auto b = search_states(dataset, video, small_config(), 7, g2, &pool);

  EXPECT_EQ(a.n_compiled, b.n_compiled);
  EXPECT_EQ(a.n_normalized, b.n_normalized);
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
}

TEST(Integration, GeneratedWinnerIsARunnableProgram) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.1, 8);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 8);
  util::ThreadPool pool(8);
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                21);
  const auto result =
      search_states(dataset, video, small_config(), 11, generator, &pool);
  ASSERT_TRUE(result.has_best());
  // The winning source must recompile and pass both checks from scratch.
  std::optional<dsl::StateProgram> program;
  const auto& best = result.outcomes[result.best_index];
  EXPECT_TRUE(filter::compilation_check(best.source, env::abr_catalog(), &program).passed);
  EXPECT_TRUE(filter::normalization_check(*program, env::abr_catalog()).passed);
  // And it must produce a state consumable by a fresh agent.
  util::Rng rng(1);
  rl::AbrAgent agent(*program, small_config().baseline_arch, 6, rng);
  EXPECT_NO_THROW(
      agent.decide(env::canned_observation(), /*sample=*/false, rng));
}

TEST(Integration, EmulationScoresShiftButOrderingHolds) {
  // Train two designs of clearly different quality and verify the
  // emulation substrate preserves their ordering (Table 4's claim).
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.1, 13);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 13);
  rl::SessionConfig config;
  config.seeds = 2;
  config.train.epochs = 300;
  config.train.test_interval = 50;
  config.train.emulation_final_eval = true;
  nn::ArchSpec arch = small_config().baseline_arch;
  util::ThreadPool pool(8);

  const auto good = dsl::StateProgram::compile(dsl::pensieve_state_source());
  // A deliberately crippled state: constant features carry no information.
  const auto bad = dsl::StateProgram::compile(
      "emit \"nothing\" = 0.5;\nemit \"more_nothing\" = vec(8, 0.5);\n");
  const auto good_result =
      rl::run_sessions(dataset, video, good, arch, config, 31, &pool);
  const auto bad_result =
      rl::run_sessions(dataset, video, bad, arch, config, 31, &pool);
  ASSERT_FALSE(good_result.failed);
  ASSERT_FALSE(bad_result.failed);
  EXPECT_GT(good_result.test_score, bad_result.test_score);
  EXPECT_GT(good_result.emulation_score, bad_result.emulation_score);
  // Emulation shifts absolute numbers.
  EXPECT_NE(good_result.emulation_score, good_result.test_score);
}

TEST(Integration, InformativeStateBeatsBlindState) {
  // The RL stack must be able to exploit state information: an agent that
  // can see throughput/buffer must out-learn one that cannot.
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 17);
  const video::Video video =
      video::make_test_video(video::youtube_ladder(), 17);
  rl::SessionConfig config;
  config.seeds = 3;
  config.train.epochs = 800;
  config.train.test_interval = 80;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.rnn_hidden = arch.scalar_hidden =
      arch.merge_hidden = 16;
  util::ThreadPool pool(8);

  const auto sighted =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto blind = dsl::StateProgram::compile(
      "emit \"constant\" = 0.5;\n");
  const auto sighted_result =
      rl::run_sessions(dataset, video, sighted, arch, config, 77, &pool);
  const auto blind_result =
      rl::run_sessions(dataset, video, blind, arch, config, 77, &pool);
  EXPECT_GT(sighted_result.test_score, blind_result.test_score);
}

TEST(Integration, TrainedAgentBeatsNaiveBaselinesOnEasyEnv) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::k4G, 0.05, 23);
  const video::Video video =
      video::make_test_video(video::youtube_ladder(), 23);
  rl::SessionConfig config;
  config.seeds = 2;
  config.train.epochs = 1000;
  config.train.test_interval = 100;
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = arch.rnn_hidden = arch.scalar_hidden =
      arch.merge_hidden = 16;
  util::ThreadPool pool(8);
  const auto program =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto trained =
      rl::run_sessions(dataset, video, program, arch, config, 3, &pool);

  abr::FixedPolicy fixed_low(0);
  const double low = abr::evaluate_policy(
      fixed_low, dataset.test, video, env::Fidelity::kSimulation, 3);
  EXPECT_GT(trained.test_score, low);
}

TEST(Integration, ArchSearchWinnersReinstantiate) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kFcc, 0.03, 29);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 29);
  util::ThreadPool pool(8);
  search::SearchConfig config = small_config();
  config.num_candidates = 25;
  const env::AbrDomain domain(dataset, video);
  gen::ArchGenerator generator(gen::gpt35_profile(), gen::PromptStrategy{},
                               41, 0.1);
  search::ArchCandidateSource source(generator);
  const auto state = dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto result = search::SearchJob(domain, config, 31, source,
                                        {&state, nullptr}, {.pool = &pool})
                          .run_to_completion();
  if (result.has_best()) {
    const auto& best = result.outcomes[result.best_index];
    ASSERT_TRUE(best.arch.has_value());
    const nn::StateSignature sig = rl::derive_signature(state);
    EXPECT_TRUE(filter::arch_compilation_check(*best.arch, sig).passed);
  }
}

}  // namespace
}  // namespace nada
