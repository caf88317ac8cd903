// Per-layer readout for the traced funnel run.
//
// Everything here watches the funnel from outside, through interfaces the
// library already exposes for wrapping:
//
//   * TimedSource      — search::CandidateSource decorator (gen layer),
//   * TracedDomain     — env::TaskDomain / env::Episode decorators (env step,
//                        reset, observation lowering), delegating the store
//                        scope hooks so journals and scopes stay unchanged,
//   * FunnelObserver   — search::Observer (stage and window spans, candidate
//                        events),
//   * HistogramData    — the program's own histograms (JobOptions::metrics)
//                        read back with benchmark-chosen bucket bounds.
//
// None of it feeds a search decision: a traced pass must rank exactly like
// an untraced one, which the benchmark checks on every traced run.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "env/domain.h"
#include "obs/metrics.h"
#include "search/candidate.h"
#include "search/observer.h"
#include "util/json.h"

namespace funnelbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Number of funnel stage kinds (search::StageKind::kDone excluded).
inline constexpr std::size_t kStages =
    static_cast<std::size_t>(nada::search::StageKind::kDone);

// ---- histograms -------------------------------------------------------------

/// Geometric bucket bounds (2% apart, 100 ns to 1000 s). Registered under
/// the program's own histogram names before the job first observes them, so
/// the program's timers land in buckets fine enough for a p50.
[[nodiscard]] std::span<const double> fine_bounds();

/// Bucketed samples: `bounds` ascending upper bounds, `counts` one longer
/// (the last bucket is +inf).
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  double sum = 0.0;

  [[nodiscard]] std::uint64_t total() const;
  /// Adds `other`, re-bucketing it onto this histogram's bounds (each of
  /// its buckets counts at its upper bound). An empty histogram adopts
  /// `other`'s bounds.
  void merge(const HistogramData& other);
  /// Value at quantile q in [0, 1]: the upper bound of the bucket holding
  /// it. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] static HistogramData of(const nada::obs::Histogram& h);
  /// Reads one entry of a MetricsRegistry::snapshot() "histograms" object.
  [[nodiscard]] static HistogramData of(const nada::util::JsonValue& json);
  /// The same shape `of(json)` reads.
  [[nodiscard]] nada::util::JsonValue to_json() const;
};

/// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples beyond
/// it (p50 when there are fewer than twenty samples).
[[nodiscard]] double tail_quantile(std::uint64_t samples);

/// Quantile of raw samples (nearest rank); 0 when empty.
[[nodiscard]] double sample_quantile(std::vector<double> values, double q);

// ---- env layer ----------------------------------------------------------------

/// One thread's env tallies for one traced pass. Only its owning thread
/// writes it while the pass runs; it is read after the pass.
struct EnvTally {
  std::uint64_t steps = 0;
  std::uint64_t resets = 0;
  double step_s = 0.0;
  double reset_s = 0.0;
  /// step + reset seconds, split by the funnel stage running at the time.
  std::array<double, kStages> stage_s{};
  /// Observations kept for the DSL VM replay (every kSampleEvery-th step,
  /// at most kMaxSamples per thread).
  std::vector<nada::dsl::Bindings> samples;
};

/// Decorates a TaskDomain: every episode it starts is wrapped so step() and
/// reset() are timed per thread. The scope hooks delegate, so a traced pass
/// opens and writes exactly the journals an untraced pass would.
class TracedDomain final : public nada::env::TaskDomain {
 public:
  explicit TracedDomain(const nada::env::TaskDomain& inner);
  TracedDomain(const TracedDomain&) = delete;
  TracedDomain& operator=(const TracedDomain&) = delete;

  const std::string& name() const override { return inner_->name(); }
  const nada::dsl::BindingCatalog& catalog() const override {
    return inner_->catalog();
  }
  std::size_t num_actions() const override { return inner_->num_actions(); }
  std::size_t episode_length() const override {
    return inner_->episode_length();
  }
  double reward_scale_hint() const override {
    return inner_->reward_scale_hint();
  }
  const std::string& baseline_state_source() const override {
    return inner_->baseline_state_source();
  }
  std::unique_ptr<nada::env::Episode> start_train_episode(
      nada::env::Fidelity fidelity, nada::util::Rng& rng) const override;
  std::size_t num_eval_units() const override {
    return inner_->num_eval_units();
  }
  std::unique_ptr<nada::env::Episode> start_eval_episode(
      std::size_t unit, nada::env::Fidelity fidelity,
      nada::util::Rng& rng) const override;
  std::string scope_env() const override { return inner_->scope_env(); }
  void append_scope_spec(std::ostream& out) const override {
    inner_->append_scope_spec(out);
  }

  /// The stage env time is attributed to (set by FunnelObserver).
  void set_stage(nada::search::StageKind stage) {
    stage_.store(static_cast<int>(stage), std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t stage_index() const {
    return static_cast<std::size_t>(stage_.load(std::memory_order_relaxed));
  }

  /// The calling thread's tally (created on first use).
  [[nodiscard]] EnvTally& local() const;
  /// Sum over threads (samples concatenated). Call only after the pass (no
  /// episode running).
  [[nodiscard]] EnvTally totals() const;

 private:
  std::unique_ptr<nada::env::Episode> wrap(
      std::unique_ptr<nada::env::Episode> inner) const;

  const nada::env::TaskDomain* inner_;
  /// Distinguishes this domain from any earlier one that lived at the same
  /// address, so a thread never reuses a stale cached tally.
  std::uint64_t generation_;
  std::atomic<int> stage_{0};
  mutable std::mutex tallies_mutex_;
  mutable std::deque<std::unique_ptr<EnvTally>> tallies_;
};

// ---- gen layer ------------------------------------------------------------------

/// Decorates a CandidateSource: times every generate() pull and keeps a
/// sample of state-program sources for the DSL VM replay.
class TimedSource final : public nada::search::CandidateSource {
 public:
  explicit TimedSource(nada::search::CandidateSource& inner)
      : inner_(&inner) {}

  std::vector<nada::search::CandidateSpec> generate(std::size_t n) override;
  void reset() override { inner_->reset(); }

  [[nodiscard]] double pull_s() const { return pull_s_; }
  [[nodiscard]] std::uint64_t pulled() const { return pulled_; }
  [[nodiscard]] const std::vector<std::string>& program_samples() const {
    return program_samples_;
  }

 private:
  nada::search::CandidateSource* inner_;
  double pull_s_ = 0.0;
  std::uint64_t pulled_ = 0;
  std::vector<std::string> program_samples_;
};

// ---- search layer -------------------------------------------------------------

/// Stage and window spans plus candidate accounting of one pass.
class FunnelObserver final : public nada::search::Observer {
 public:
  /// `domain` (may be null) receives the current stage for env attribution.
  explicit FunnelObserver(TracedDomain* domain) : domain_(domain) {}

  void on_stage_start(nada::search::StageKind stage) override;
  void on_stage_finish(const nada::search::StageEvent& event) override;
  void on_candidate(const nada::search::CandidateEvent& event) override;
  void on_window_finish(const nada::search::WindowEvent& event) override;

  [[nodiscard]] double stage_s(nada::search::StageKind stage) const {
    return stage_s_[static_cast<std::size_t>(stage)];
  }
  /// Window spans. A batch pass is one window: generate through probe.
  [[nodiscard]] std::vector<double> window_s() const;
  /// Entered candidates that reached no failed / out-of-shard / cache-hit /
  /// probed event (each candidate counted once however many it got).
  [[nodiscard]] std::uint64_t unaccounted() const;

 private:
  TracedDomain* domain_;
  mutable std::mutex mutex_;
  std::array<double, kStages> stage_s_{};
  std::vector<double> windows_;        ///< streaming: WindowEvent spans
  std::vector<double> batch_windows_;  ///< generate start to probe finish
  bool batch_window_open_ = false;
  Clock::time_point batch_window_start_{};
  std::uint64_t entered_ = 0;
  std::vector<bool> accounted_;  ///< indexed by stream position
};

// ---- dsl layer ------------------------------------------------------------------

/// Replays StateProgram::run over `observations` for every program in
/// `sources` that compiles and runs on them; returns mean ns per run (0
/// when nothing ran). Single-threaded, after the pass.
[[nodiscard]] double vm_ns_per_run(
    const std::vector<std::string>& sources,
    const nada::dsl::BindingCatalog& catalog,
    const std::vector<nada::dsl::Bindings>& observations);

}  // namespace funnelbench
