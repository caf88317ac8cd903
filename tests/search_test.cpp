// Tests for the composable search API (src/search/):
//
//   * config validation: every degenerate SearchConfig is rejected up
//     front with a message naming the bad field; scaled_config() applies
//     the scale factors to the paper's budgets,
//   * stage stepping: next_stage() walks the documented stage order and a
//     stepped job equals a run_to_completion() job,
//   * funnel accounting: every candidate's outcome agrees with the result
//     counters, and probed-but-unselected candidates are early-stopped,
//   * early stopping and the shared baseline: a model that stops every
//     probe trains nothing, and jobs sharing a baseline slot train the
//     original design once,
//   * the journaled baseline: a second job on the same store serves the
//     original design bit for bit without training (failed or not, batch
//     or lazily trained at a streaming fold), and a different
//     baseline_arch under the same scope retrains,
//   * observer coverage: every stage fires start/finish with a timing, and
//     every candidate milestone (entered / cached / failed / probed /
//     early-stopped / trained) is represented — no funnel transition goes
//     silent,
//   * sharding: a 4-shard worker pass + merge_and_rank equals the
//     single-process run — identical rankings and identical journal
//     records (the multi-process driver's correctness pin),
//   * resume folding: SearchJob::resume() serves every journaled stage and
//     reproduces the uninterrupted result,
//   * unified candidates: one job can carry state-program and architecture
//     candidates in the same stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "journal_lines.h"
#include "env/abr_domain.h"
#include "filter/earlystop.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/observer.h"
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/record_codec.h"
#include "store/shard.h"
#include "util/fs.h"

namespace nada::search {
namespace {

std::string fresh_path(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "nada_search_" + tag + ".nsb";
  std::remove(path.c_str());
  std::remove((path + ".idx").c_str());
  return path;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "nada_search_" + tag;
  return dir;
}

SearchConfig tiny_config() {
  SearchConfig config;
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

struct Fixture {
  trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kStarlink, 0.2, 99);
  video::Video video = video::make_test_video(video::pensieve_ladder(), 7);
  env::AbrDomain domain{dataset, video};
  util::ThreadPool pool{8};
};

void expect_same_result(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.n_total, b.n_total);
  EXPECT_EQ(a.n_compiled, b.n_compiled);
  EXPECT_EQ(a.n_normalized, b.n_normalized);
  EXPECT_EQ(a.n_early_stopped, b.n_early_stopped);
  EXPECT_EQ(a.n_fully_trained, b.n_fully_trained);
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  EXPECT_DOUBLE_EQ(a.original_score, b.original_score);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].compiled, b.outcomes[i].compiled);
    EXPECT_EQ(a.outcomes[i].normalized, b.outcomes[i].normalized);
    EXPECT_EQ(a.outcomes[i].early_probed, b.outcomes[i].early_probed);
    EXPECT_EQ(a.outcomes[i].early_stopped, b.outcomes[i].early_stopped);
    EXPECT_EQ(a.outcomes[i].fully_trained, b.outcomes[i].fully_trained);
    EXPECT_DOUBLE_EQ(a.outcomes[i].test_score, b.outcomes[i].test_score);
    EXPECT_EQ(a.outcomes[i].early_rewards, b.outcomes[i].early_rewards);
  }
}

/// Per-outcome funnel accounting: the counters agree with the outcomes,
/// every candidate sits in one consistent terminal state, and anything
/// probed but not fully trained was early-stopped.
void expect_consistent_accounting(const SearchResult& result,
                                  const SearchConfig& config) {
  EXPECT_EQ(result.n_total, config.num_candidates);
  EXPECT_EQ(result.outcomes.size(), config.num_candidates);
  EXPECT_LE(result.n_compiled, result.n_total);
  EXPECT_LE(result.n_normalized, result.n_compiled);
  EXPECT_LE(result.n_fully_trained, config.full_train_top);
  EXPECT_GT(result.n_fully_trained, 0u);
  EXPECT_TRUE(result.has_best());
  EXPECT_GT(result.best_score, -1e8);
  EXPECT_FALSE(result.original.failed);

  std::size_t compiled = 0, normalized = 0, probed = 0, trained = 0;
  for (const auto& o : result.outcomes) {
    if (o.compiled) ++compiled;
    if (o.compiled && o.normalized) ++normalized;
    if (o.early_probed) ++probed;
    if (o.fully_trained) {
      ++trained;
      EXPECT_TRUE(o.early_probed) << o.id;
      EXPECT_FALSE(o.early_stopped) << o.id;
      EXPECT_FALSE(o.median_curve.empty()) << o.id;
    }
    if (o.early_probed && !o.fully_trained) {
      EXPECT_TRUE(o.early_stopped) << o.id;
    }
    if (!o.compiled) {
      EXPECT_FALSE(o.compile_error.empty()) << o.id;
      EXPECT_FALSE(o.fully_trained) << o.id;
    }
  }
  EXPECT_EQ(compiled, result.n_compiled);
  EXPECT_EQ(normalized, result.n_normalized);
  EXPECT_EQ(trained, result.n_fully_trained);
  EXPECT_EQ(result.n_early_stopped, probed - result.n_fully_trained);
}

// ---- config validation ------------------------------------------------------

TEST(SearchConfigValidation, RejectsDegenerateConfigsWithDescriptiveErrors) {
  Fixture fx;
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                1);
  StateCandidateSource source(generator);
  auto make_job = [&](const SearchConfig& config) {
    SearchJob job(fx.domain, config, 1, source,
                  FixedDesign{nullptr, &config.baseline_arch});
  };
  auto expect_rejected = [&](SearchConfig config, const std::string& needle) {
    try {
      make_job(config);
      FAIL() << "config with bad " << needle << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  SearchConfig no_candidates = tiny_config();
  no_candidates.num_candidates = 0;
  expect_rejected(no_candidates, "num_candidates");

  SearchConfig no_top = tiny_config();
  no_top.full_train_top = 0;
  expect_rejected(no_top, "full_train_top");

  SearchConfig top_heavy = tiny_config();
  top_heavy.num_candidates = 4;
  top_heavy.full_train_top = 5;
  expect_rejected(top_heavy, "full_train_top");

  SearchConfig no_seeds = tiny_config();
  no_seeds.seeds = 0;
  expect_rejected(no_seeds, "seeds");

  SearchConfig no_block = tiny_config();
  no_block.probe_block = 0;
  expect_rejected(no_block, "probe_block");

  SearchConfig no_probe = tiny_config();
  no_probe.early_epochs = 0;
  expect_rejected(no_probe, "early_epochs");

  // Boundary cases stay legal.
  SearchConfig exact = tiny_config();
  exact.num_candidates = exact.full_train_top = 3;
  exact.probe_block = 1;
  EXPECT_NO_THROW(make_job(exact));
}

TEST(ScaledConfig, RespectsScaleFactors) {
  util::ScaleConfig scale;
  scale.gen = 0.01;
  scale.epochs = 0.01;
  scale.seeds = 0.6;
  scale.model = 0.25;
  const SearchConfig config = scaled_config(trace::Environment::kFcc, scale);
  EXPECT_EQ(config.num_candidates, 30u);  // 3000 * 0.01
  EXPECT_EQ(config.train.epochs, 400u);   // 40000 * 0.01
  EXPECT_EQ(config.seeds, 3u);            // 5 * 0.6
  EXPECT_GE(config.early_epochs, config.train.epochs / 4);
  // Pensieve's 128-wide towers at a quarter width.
  EXPECT_EQ(config.baseline_arch.conv_filters, 32u);
  EXPECT_EQ(config.baseline_arch.merge_hidden, 32u);
}

TEST(ScaledConfig, StarlinkKeepsSmallerBudget) {
  util::ScaleConfig scale;
  scale.epochs = 0.05;
  const SearchConfig fcc = scaled_config(trace::Environment::kFcc, scale);
  const SearchConfig starlink =
      scaled_config(trace::Environment::kStarlink, scale);
  EXPECT_LT(starlink.train.epochs, fcc.train.epochs);
}

TEST(ScaledConfig, PaperScaleReproducesPaperBudgets) {
  util::ScaleConfig scale;
  scale.gen = scale.epochs = scale.seeds = scale.traces = scale.model = 1.0;
  const SearchConfig config = scaled_config(trace::Environment::k4G, scale);
  EXPECT_EQ(config.num_candidates, 3000u);
  EXPECT_EQ(config.train.epochs, 40000u);
  EXPECT_EQ(config.seeds, 5u);
  EXPECT_EQ(config.baseline_arch.conv_filters,
            nn::ArchSpec::pensieve().conv_filters);
}

// ---- stage stepping ---------------------------------------------------------

TEST(SearchJobStepping, WalksTheDocumentedStageOrder) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource source(generator);
  JobOptions options;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 1234, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);

  const StageKind expected[] = {
      StageKind::kGenerate, StageKind::kPrecheck, StageKind::kProbe,
      StageKind::kBaseline, StageKind::kSelect,   StageKind::kFullTrain,
      StageKind::kRank};
  for (StageKind stage : expected) {
    ASSERT_FALSE(job.done());
    EXPECT_EQ(job.next_stage_kind(), stage);
    job.next_stage();
  }
  EXPECT_TRUE(job.done());
  EXPECT_EQ(job.next_stage_kind(), StageKind::kDone);
  EXPECT_FALSE(job.next_stage());  // stepping a finished job is a no-op

  // Partial results accumulate: after the probe stage the counters exist
  // even though selection never ran.
  EXPECT_EQ(job.result().n_total, config.num_candidates);
  EXPECT_GT(job.result().n_probes_run, 0u);
  EXPECT_GT(job.result().n_fully_trained, 0u);
}

TEST(SearchJobStepping, SteppedJobEqualsRunToCompletion) {
  Fixture fx;
  const SearchConfig config = tiny_config();

  gen::StateGenerator gen1(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  StateCandidateSource source1(gen1);
  JobOptions options;
  options.pool = &fx.pool;
  SearchJob stepped(fx.domain, config, 1234, source1,
                    FixedDesign{nullptr, &config.baseline_arch}, options);
  while (stepped.next_stage()) {
  }

  gen::StateGenerator gen2(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  StateCandidateSource source2(gen2);
  SearchJob whole(fx.domain, config, 1234, source2,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto result = whole.run_to_completion();
  expect_same_result(stepped.result(), result);
  expect_consistent_accounting(result, config);
}

// ---- early stopping and the shared baseline ---------------------------------

TEST(SearchJobEarlyStop, ModelThatStopsEverythingTrainsNothing) {
  Fixture fx;
  const SearchConfig config = tiny_config();

  // A heuristic model with an absurdly high threshold stops every probe;
  // the job must then fully train nothing.
  filter::EarlyStopConfig es_config;
  filter::EarlyStopModel model(filter::EarlyStopMethod::kHeuristicMax,
                               es_config, 1);
  std::vector<filter::DesignRecord> fake_corpus;
  for (int i = 0; i < 10; ++i) {
    filter::DesignRecord r;
    r.id = std::to_string(i);
    r.final_score = i == 0 ? 1e8 : static_cast<double>(i);
    r.early_rewards = {0.0, i == 0 ? 1e9 : 1.0};
    fake_corpus.push_back(r);
  }
  model.fit(fake_corpus);  // threshold ~1e9: nothing real survives

  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                11);
  StateCandidateSource source(generator);
  JobOptions options;
  options.early_stop_model = &model;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 888, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto result = job.run_to_completion();
  EXPECT_EQ(result.n_fully_trained, 0u);
  EXPECT_EQ(result.n_full_trains_run, 0u);
  EXPECT_FALSE(result.has_best());
  EXPECT_GT(result.n_early_stopped, 0u);
}

TEST(SearchJobBaseline, SharedSlotTrainsTheBaselineOnce) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                7);
  StateCandidateSource source(generator);
  std::optional<rl::SessionResult> baseline;
  JobOptions options;
  options.pool = &fx.pool;
  options.baseline_cache = &baseline;

  SearchJob first(fx.domain, config, 777, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
  const rl::SessionResult& trained = first.original_baseline();
  ASSERT_TRUE(baseline.has_value());
  EXPECT_EQ(&trained, &*baseline);
  EXPECT_FALSE(trained.failed);

  // A second job on the same slot serves it as is: a marker planted in the
  // slot comes back, so nothing was retrained.
  baseline->test_score = 12345.0;
  SearchJob second(fx.domain, config, 777, source,
                   FixedDesign{nullptr, &config.baseline_arch}, options);
  EXPECT_EQ(&second.original_baseline(), &*baseline);
  EXPECT_EQ(second.original_baseline().test_score, 12345.0);
}

// ---- the journaled baseline ------------------------------------------------

/// Delegates to `inner` except that every training episode throws, so every
/// session of every design fails; evaluation and the scope are unchanged.
class FailingTrainDomain final : public env::TaskDomain {
 public:
  explicit FailingTrainDomain(const env::TaskDomain& inner) : inner_(inner) {}
  const std::string& name() const override { return inner_.name(); }
  const dsl::BindingCatalog& catalog() const override {
    return inner_.catalog();
  }
  std::size_t num_actions() const override { return inner_.num_actions(); }
  std::size_t episode_length() const override {
    return inner_.episode_length();
  }
  double reward_scale_hint() const override {
    return inner_.reward_scale_hint();
  }
  const std::string& baseline_state_source() const override {
    return inner_.baseline_state_source();
  }
  std::unique_ptr<env::Episode> start_train_episode(
      env::Fidelity, util::Rng&) const override {
    throw std::runtime_error("injected training failure");
  }
  std::size_t num_eval_units() const override {
    return inner_.num_eval_units();
  }
  std::unique_ptr<env::Episode> start_eval_episode(
      std::size_t unit, env::Fidelity fidelity,
      util::Rng& rng) const override {
    return inner_.start_eval_episode(unit, fidelity, rng);
  }
  std::string scope_env() const override { return inner_.scope_env(); }
  void append_scope_spec(std::ostream& out) const override {
    inner_.append_scope_spec(out);
  }

 private:
  const env::TaskDomain& inner_;
};

void expect_same_baseline(const rl::SessionResult& a,
                          const rl::SessionResult& b) {
  // Bit for bit: EXPECT_EQ on doubles and vectors of doubles.
  EXPECT_EQ(a.test_score, b.test_score);
  EXPECT_EQ(a.emulation_score, b.emulation_score);
  EXPECT_EQ(a.median_curve, b.median_curve);
  EXPECT_EQ(a.curve_epochs, b.curve_epochs);
  EXPECT_EQ(a.failed, b.failed);
}

/// The baseline record's JSONL export line, or "" when none is journaled.
std::string baseline_line(const store::CandidateStore& store,
                          const env::TaskDomain& domain,
                          const SearchConfig& config) {
  const auto record = store.lookup(baseline_fingerprint(domain, config));
  return record.has_value() ? store::encode_jsonl_line(*record, store.scope())
                            : "";
}

TEST(SearchJobBaseline, SecondJobServesTheBaselineFromTheStore) {
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 12;
  const std::string path = fresh_path("baseline_served");
  store::CandidateStore store(path, store_scope(fx.domain, config, 4321));
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                88);
  StateCandidateSource source(generator);
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;
  SearchJob first(fx.domain, config, 4321, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto cold = first.run_to_completion();
  EXPECT_FALSE(cold.baseline_from_store);
  EXPECT_FALSE(cold.original.failed);
  EXPECT_FALSE(cold.original.sessions.empty());

  const auto record = store.lookup(baseline_fingerprint(fx.domain, config));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->id, "<baseline>");
  EXPECT_EQ(record->stage, store::Stage::kTrained);
  EXPECT_TRUE(record->fully_trained);

  const std::size_t records_before = store.size();
  SearchJob second(fx.domain, config, 4321, source,
                   FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto warm = second.resume();
  EXPECT_TRUE(warm.baseline_from_store);
  EXPECT_TRUE(warm.original.sessions.empty());  // served, not trained
  expect_same_baseline(cold.original, warm.original);
  EXPECT_EQ(cold.original_score, warm.original_score);
  EXPECT_EQ(warm.n_probes_run, 0u);
  EXPECT_EQ(warm.n_full_trains_run, 0u);
  EXPECT_EQ(store.size(), records_before);  // nothing journaled twice
}

TEST(SearchJobBaseline, OtherBaselineArchUnderTheSameScopeRetrains) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  SearchConfig other = config;
  other.baseline_arch.merge_hidden = 8;
  // baseline_arch is not in the scope digest: both share one journal...
  ASSERT_EQ(store_scope(fx.domain, config, 55),
            store_scope(fx.domain, other, 55));
  // ...so the record key must tell them apart.
  ASSERT_NE(baseline_fingerprint(fx.domain, config),
            baseline_fingerprint(fx.domain, other));
  const std::string path = fresh_path("baseline_arch");
  store::CandidateStore store(path, store_scope(fx.domain, config, 55));
  VectorCandidateSource source({});
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;

  SearchJob first(fx.domain, config, 55, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
  (void)first.original_baseline();
  EXPECT_FALSE(first.result().baseline_from_store);
  SearchJob second(fx.domain, other, 55, source,
                   FixedDesign{nullptr, &other.baseline_arch}, options);
  (void)second.original_baseline();
  EXPECT_FALSE(second.result().baseline_from_store);
  EXPECT_EQ(store.size(), 2u);
  SearchJob third(fx.domain, other, 55, source,
                  FixedDesign{nullptr, &other.baseline_arch}, options);
  expect_same_baseline(third.original_baseline(), second.original_baseline());
  EXPECT_TRUE(third.result().baseline_from_store);

  // A pre-filled slot is used as is: not looked up, not journaled.
  const std::string fresh = fresh_path("baseline_prefilled");
  store::CandidateStore empty(fresh, store_scope(fx.domain, config, 55));
  std::optional<rl::SessionResult> slot = first.original_baseline();
  options.store = &empty;
  options.baseline_cache = &slot;
  SearchJob prefilled(fx.domain, config, 55, source,
                      FixedDesign{nullptr, &config.baseline_arch}, options);
  EXPECT_EQ(&prefilled.original_baseline(), &*slot);
  EXPECT_FALSE(prefilled.result().baseline_from_store);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(SearchJobBaseline, FailedBaselineIsJournaledAndServedAsFailed) {
  Fixture fx;
  const FailingTrainDomain domain(fx.domain);
  const SearchConfig config = tiny_config();
  const std::string path = fresh_path("baseline_failed");
  store::CandidateStore store(path, store_scope(domain, config, 9));
  VectorCandidateSource source({});
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;

  SearchJob first(domain, config, 9, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
  const rl::SessionResult trained = first.original_baseline();
  ASSERT_TRUE(trained.failed);
  EXPECT_FALSE(first.result().baseline_from_store);
  const auto record = store.lookup(baseline_fingerprint(domain, config));
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->fully_trained);

  SearchJob second(domain, config, 9, source,
                   FixedDesign{nullptr, &config.baseline_arch}, options);
  const rl::SessionResult& served = second.original_baseline();
  EXPECT_TRUE(second.result().baseline_from_store);
  EXPECT_TRUE(served.failed);
  expect_same_baseline(trained, served);
}

TEST(SearchJobBaseline, LazyStreamingBaselineJournalsTheSameRecord) {
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 12;

  // Batch reference, no early-stop model: the baseline stage journals it.
  const std::string batch_path = fresh_path("baseline_batch");
  store::CandidateStore batch_store(batch_path,
                                    store_scope(fx.domain, config, 31));
  {
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  5);
    StateCandidateSource source(generator);
    JobOptions options;
    options.store = &batch_store;
    options.pool = &fx.pool;
    SearchJob job(fx.domain, config, 31, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
    (void)job.run_until(StageKind::kSelect);
  }
  const std::string expected = baseline_line(batch_store, fx.domain, config);
  ASSERT_FALSE(expected.empty());

  // Streaming with an early-stop model: fold_window() trains the baseline
  // lazily at the first fold with a probe, long before the baseline stage.
  filter::EarlyStopConfig es_config;
  filter::EarlyStopModel model(filter::EarlyStopMethod::kHeuristicMax,
                               es_config, 1);
  std::vector<filter::DesignRecord> corpus;
  for (int i = 0; i < 10; ++i) {
    filter::DesignRecord r;
    r.id = std::to_string(i);
    r.final_score = static_cast<double>(i);
    r.early_rewards = {0.0, static_cast<double>(i)};
    corpus.push_back(r);
  }
  model.fit(corpus);
  config.window_size = 4;
  const std::string stream_path = fresh_path("baseline_stream");
  store::CandidateStore stream_store(stream_path,
                                     store_scope(fx.domain, config, 31));
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{}, 5);
  StateCandidateSource source(generator);
  JobOptions options;
  options.store = &stream_store;
  options.pool = &fx.pool;
  options.early_stop_model = &model;
  SearchJob job(fx.domain, config, 31, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  bool journaled_before_stage = false;
  while (job.next_stage_kind() != StageKind::kBaseline) {
    ASSERT_TRUE(job.next_stage());
    if (!baseline_line(stream_store, fx.domain, config).empty()) {
      journaled_before_stage = true;
    }
  }
  EXPECT_TRUE(journaled_before_stage);
  EXPECT_FALSE(job.result().baseline_from_store);
  EXPECT_EQ(baseline_line(stream_store, fx.domain, config), expected);
}

// ---- observer coverage ------------------------------------------------------

TEST(SearchObserver, EveryStageAndMilestoneFires) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  const std::string path = fresh_path("observer");
  store::CandidateStore store(path, store_scope(fx.domain, config, 1234));
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                77);
  StateCandidateSource source(generator);
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 1234, source,
                FixedDesign{nullptr, &config.baseline_arch}, options);
  RecordingObserver recording;
  std::ostringstream stream_sink;
  StreamObserver stream(stream_sink);
  job.add_observer(&recording);
  job.add_observer(&stream);
  const auto result = job.run_to_completion();

  // Stage coverage: all seven stages started and finished, in order, with
  // non-negative timings.
  ASSERT_EQ(recording.started.size(), 7u);
  ASSERT_EQ(recording.finished.size(), 7u);
  for (std::size_t s = 0; s < 7; ++s) {
    EXPECT_EQ(recording.started[s], static_cast<StageKind>(s));
    EXPECT_EQ(recording.finished[s].stage, static_cast<StageKind>(s));
    EXPECT_GE(recording.finished[s].seconds, 0.0);
  }

  // Candidate-event coverage: every funnel transition is represented.
  EXPECT_EQ(recording.count(CandidateEventType::kEntered), result.n_total);
  const std::size_t failures = result.n_total - result.n_normalized;
  EXPECT_GE(recording.count(CandidateEventType::kFailed), failures > 0 ? 1u
                                                                       : 0u);
  EXPECT_GT(recording.count(CandidateEventType::kProbed), 0u);
  EXPECT_EQ(recording.count(CandidateEventType::kEarlyStopped),
            result.n_early_stopped);
  EXPECT_EQ(recording.count(CandidateEventType::kTrained),
            result.n_full_trains_run);
  EXPECT_EQ(recording.count(CandidateEventType::kCacheHit), 0u);  // cold run
  EXPECT_FALSE(stream_sink.str().empty());

  // Warm run: the cache-hit milestone fires for every served stage.
  gen::StateGenerator gen2(gen::gpt4_profile(), gen::PromptStrategy{}, 77);
  StateCandidateSource source2(gen2);
  SearchJob warm(fx.domain, config, 1234, source2,
                 FixedDesign{nullptr, &config.baseline_arch}, options);
  RecordingObserver warm_recording;
  warm.add_observer(&warm_recording);
  const auto warm_result = warm.run_to_completion();
  EXPECT_EQ(warm_result.n_probes_run, 0u);
  EXPECT_EQ(warm_recording.count(CandidateEventType::kCacheHit),
            warm_result.cache_hits());
  EXPECT_GT(warm_recording.count(CandidateEventType::kCacheHit), 0u);
}

// ---- sharding ---------------------------------------------------------------

TEST(ShardRunnerTest, FourShardRunMergesToSingleProcessResult) {
  Fixture fx;
  SearchConfig config = tiny_config();
  const std::string dir = fresh_dir("shards");

  // Single-process reference.
  const std::string single_path = fresh_path("shard_single");
  store::CandidateStore single_store(single_path,
                                     store_scope(fx.domain, config, 1234));
  gen::StateGenerator single_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                 77);
  StateCandidateSource single_source(single_gen);
  JobOptions options;
  options.store = &single_store;
  options.pool = &fx.pool;
  SearchJob single_job(fx.domain, config, 1234, single_source,
                       FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto single_result = single_job.run_to_completion();

  // Four workers (one generator each, as four processes would have), then
  // the driver.
  ShardRunnerConfig shard_config;
  shard_config.num_shards = 4;
  shard_config.store_dir = dir;
  ShardRunner runner(fx.domain, config, 1234, shard_config, &fx.pool);
  std::size_t in_shard_total = 0;
  std::size_t probes_total = 0;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    std::remove(runner.shard_store_path(shard).c_str());
    gen::StateGenerator worker_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                   77);
    StateCandidateSource worker_source(worker_gen);
    const auto worker_result =
        runner.run_worker(shard, worker_source,
                          FixedDesign{nullptr, &config.baseline_arch});
    EXPECT_EQ(worker_result.n_total, config.num_candidates);
    in_shard_total += worker_result.n_total - worker_result.n_out_of_shard;
    probes_total += worker_result.n_probes_run;
    // Workers stop before the cohort-global stages.
    EXPECT_EQ(worker_result.n_fully_trained, 0u);
  }
  // The shards partition the stream exactly.
  EXPECT_EQ(in_shard_total, config.num_candidates);
  EXPECT_EQ(probes_total, single_result.n_probes_run);

  std::remove(runner.merged_store_path().c_str());
  gen::StateGenerator driver_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                 77);
  StateCandidateSource driver_source(driver_gen);
  const auto merged_result = runner.merge_and_rank(
      driver_source, FixedDesign{nullptr, &config.baseline_arch});

  // The driver re-executes nothing below full training: every pre-check
  // and probe comes from the shard journals.
  EXPECT_EQ(merged_result.n_probes_run, 0u);
  EXPECT_EQ(merged_result.n_full_trains_run,
            single_result.n_full_trains_run);

  // Identical rankings...
  expect_same_result(single_result, merged_result);

  // ...and identical journals: same fingerprints, and per fingerprint the
  // byte-identical record (order differs — grouped by shard vs by stream —
  // so compare as sorted sets of decoded records).
  store::CandidateStore merged_store(runner.merged_store_path(),
                                     runner.scope());
  EXPECT_EQ(journals::sorted_lines(single_path),
            journals::sorted_lines(runner.merged_store_path()));
  EXPECT_EQ(merged_store.size(), single_store.size());
}

TEST(ShardRunnerTest, MergeAndRankSurfacesMissingWorkerJournal) {
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 4;
  ShardRunnerConfig shard_config;
  shard_config.num_shards = 3;
  shard_config.store_dir = fresh_dir("missing_shard");
  ShardRunner runner(fx.domain, config, 9, shard_config, nullptr);
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                5);
  StateCandidateSource source(generator);
  // No worker ever ran: the driver must refuse to silently rank nothing.
  EXPECT_THROW((void)runner.merge_and_rank(
                   source, FixedDesign{nullptr, &config.baseline_arch}),
               std::runtime_error);
}

// ---- resume folding ---------------------------------------------------------

TEST(SearchJobResume, ResumeServesJournaledStagesAndMatchesColdRun) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  const std::string path = fresh_path("resume");
  store::CandidateStore store(path, store_scope(fx.domain, config, 4321));
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                88);
  StateCandidateSource source(generator);
  JobOptions options;
  options.store = &store;
  options.pool = &fx.pool;
  SearchJob first(fx.domain, config, 4321, source,
                  FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto cold = first.run_to_completion();
  EXPECT_GT(cold.n_probes_run, 0u);
  expect_consistent_accounting(cold, config);

  // resume() rewinds the (already consumed) source itself.
  SearchJob resumed(fx.domain, config, 4321, source,
                    FixedDesign{nullptr, &config.baseline_arch}, options);
  const auto warm = resumed.resume();
  EXPECT_EQ(warm.n_probes_run, 0u);
  EXPECT_EQ(warm.n_full_trains_run, 0u);
  expect_same_result(cold, warm);
}

TEST(SearchJobResume, ResumeWithoutStoreThrows) {
  Fixture fx;
  const SearchConfig config = tiny_config();
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                7);
  StateCandidateSource source(generator);
  SearchJob job(fx.domain, config, 1, source,
                FixedDesign{nullptr, &config.baseline_arch});
  EXPECT_THROW((void)job.resume(), std::logic_error);
}

// ---- unified candidate stream ----------------------------------------------

TEST(CandidateSpecTest, MixedKindStreamRunsThroughOneFunnel) {
  Fixture fx;
  SearchConfig config = tiny_config();
  config.num_candidates = 8;
  config.full_train_top = 2;
  const auto fixed_state =
      dsl::StateProgram::compile(dsl::pensieve_state_source());

  // Four state programs and four architectures in one stream.
  gen::StateGenerator state_gen(gen::gpt4_profile(), gen::PromptStrategy{},
                                21);
  gen::ArchGenerator arch_gen(gen::gpt4_profile(), gen::PromptStrategy{}, 22,
                              0.25);
  std::vector<CandidateSpec> specs;
  StateCandidateSource states(state_gen);
  ArchCandidateSource archs(arch_gen);
  for (auto& spec : states.generate(4)) specs.push_back(std::move(spec));
  for (auto& spec : archs.generate(4)) specs.push_back(std::move(spec));
  VectorCandidateSource source(std::move(specs));

  JobOptions options;
  options.pool = &fx.pool;
  SearchJob job(fx.domain, config, 31, source,
                FixedDesign{&fixed_state, &config.baseline_arch}, options);
  const auto result = job.run_to_completion();
  EXPECT_EQ(result.n_total, 8u);
  EXPECT_GT(result.n_compiled, 0u);
  EXPECT_GT(result.n_fully_trained, 0u);
  // Kinds preserved end to end: arch candidates carry their spec, state
  // candidates their source.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(result.outcomes[i].arch.has_value());
  }
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(result.outcomes[i].arch.has_value());
  }
}

TEST(CandidateSpecTest, FingerprintsMatchTheHistoricalStoreKeys) {
  const SearchConfig config = tiny_config();
  const auto state = dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto spec = CandidateSpec::state_program(
      "id", dsl::pensieve_state_source());
  const FixedDesign fixed{&state, &config.baseline_arch};
  EXPECT_EQ(fingerprint_of(spec, fixed),
            store::combine(
                store::fingerprint_state_source(dsl::pensieve_state_source()),
                store::fingerprint_arch(config.baseline_arch)));

  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.rnn_hidden = 24;
  const auto arch_spec = CandidateSpec::architecture("id2", arch, "wider");
  EXPECT_EQ(fingerprint_of(arch_spec, fixed),
            store::combine(
                store::fingerprint_arch(arch),
                store::fingerprint_state_source(state.source())));

  // Missing fixed halves are loud, not silent.
  EXPECT_THROW((void)fingerprint_of(spec, FixedDesign{&state, nullptr}),
               std::invalid_argument);
  EXPECT_THROW((void)fingerprint_of(arch_spec, FixedDesign{nullptr, nullptr}),
               std::invalid_argument);
}

// ---- degenerate-baseline improvement ---------------------------------------

TEST(SearchResultTest, ImprovementDefinesDegenerateBaseline) {
  SearchResult result;
  // No best: no improvement, whatever the baseline.
  EXPECT_EQ(result.improvement(), 0.0);

  // Normal case: relative to |original|.
  result.best_index = 0;
  result.best_score = -1.0;
  result.original_score = -2.0;
  EXPECT_DOUBLE_EQ(result.improvement(), 0.5);

  // Degenerate baseline (original == 0): falls back to the absolute delta
  // instead of reporting zero improvement for a valid best.
  result.original_score = 0.0;
  result.best_score = 3.5;
  EXPECT_DOUBLE_EQ(result.improvement(), 3.5);
  result.best_score = -0.25;
  EXPECT_DOUBLE_EQ(result.improvement(), -0.25);
}

}  // namespace
}  // namespace nada::search
