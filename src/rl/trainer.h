// Advantage actor-critic training over any TaskDomain, following
// Pensieve's training protocol: each epoch rolls one full episode in an
// environment randomly chosen from the train split, the discounted-return
// advantage drives the policy gradient (with entropy regularization), and
// model checkpoints are periodically evaluated on the held-out eval split.
//
// One engine trains everything — the funnel's short probes, the baseline,
// and full multi-seed training. It trains a *block* of jobs in lockstep:
// every job keeps its own RNG stream, episode, and trajectory; the rollout
// captures each step's activations row by row into the network's batch
// caches (nn::ActorCriticNet::forward_capture), so the per-epoch update is
// one fused backward_batch over the whole episode with no second forward
// pass, and the state program runs once per step. The thread pool
// schedules blocks. Jobs never share a random draw and the batched kernels
// keep the per-element accumulation order fixed (nn/mat.h), so a job's
// result is the same bits at any block size, thread count, or block
// neighbours — pinned against golden outputs by tests/batch_probe_test.cpp
// (ABR) and tests/cc_funnel_test.cpp (CC).
//
// The trainer is domain-generic: ABR and congestion control train through
// the same loop, differing only in the env::TaskDomain they are given.
// Episodes must span exactly TaskDomain::episode_length() steps, which
// sizes the capture caches up front. ABR-shaped convenience overloads
// (dataset + video) construct an env::AbrDomain internally.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsl/state_program.h"
#include "env/abr_domain.h"
#include "env/domain.h"
#include "nn/arch.h"
#include "obs/metrics.h"
#include "rl/agent.h"
#include "trace/generator.h"
#include "util/thread_pool.h"
#include "video/video.h"

namespace nada::rl {

struct TrainConfig {
  std::size_t epochs = 400;
  std::size_t test_interval = 10;  ///< evaluate a checkpoint every N epochs
  double gamma = 0.99;
  double learning_rate = 1e-3;
  double entropy_start = 1.0;  ///< entropy weight, annealed linearly
  double entropy_end = 0.05;
  double critic_weight = 0.5;
  double grad_clip = 5.0;
  /// Rewards are divided by this for gradient computation so policy/value
  /// gradients have comparable magnitudes across reward regimes (QoE_lin
  /// on the 53 Mbps YouTube ladder is ~12x Pensieve's). 0 = auto: use the
  /// domain's reward_scale_hint (ABR: the ladder's top bitrate in Mbps).
  /// Reported test scores are unscaled.
  double reward_scale = 0.0;
  /// Standardize advantages within each episode (zero mean, unit variance)
  /// before the policy-gradient step. Off by default: with QoE_lin's
  /// skewed rewards, episodes that are uniformly bad would have half their
  /// actions pushed up after standardization.
  bool normalize_advantages = false;
  /// Symmetric clip on the (scaled) advantage; bounds the gradient of any
  /// single catastrophic stall. 0 disables.
  double advantage_clip = 0.0;
  /// Huber transition point for the critic loss (scaled-return units).
  double huber_delta = 1.0;
  env::Fidelity fidelity = env::Fidelity::kSimulation;
  /// When false, skips test-set evaluation entirely (early probes only need
  /// the training-reward curve); final_score falls back to the tail of the
  /// training rewards.
  bool evaluate_checkpoints = true;
  /// Caps how many eval units each checkpoint evaluation streams
  /// (0 = all). Scaled-down runs use this to keep evaluation from
  /// dominating training cost.
  std::size_t max_eval_traces = 0;
  /// After training completes, additionally evaluate the final policy on
  /// the eval split under emulation fidelity (paper Table 4: sim-trained
  /// designs validated in emulation). Domains without an emulation model
  /// evaluate under their only simulator.
  bool emulation_final_eval = false;
};

/// Everything one training session produces. Reward curves feed the
/// early-stopping classifier; test curves feed Figures 3 and 4.
struct TrainResult {
  std::vector<double> train_rewards;  ///< per-epoch mean step reward
  std::vector<double> test_epochs;    ///< checkpoint positions
  std::vector<double> test_scores;    ///< checkpoint test scores
  double final_score = 0.0;  ///< mean of the last <=10 checkpoint scores
  /// Final policy's test score under emulation fidelity (only populated
  /// when TrainConfig::emulation_final_eval is set).
  double emulation_score = 0.0;
  bool failed = false;       ///< state program or architecture blew up
  std::string error;
};

/// Mean per-step reward of a greedy rollout over the eval units in
/// `indices` (ascending). `eval_seed` fixes the episode start offsets so
/// successive checkpoint evaluations are comparable.
[[nodiscard]] double evaluate_agent(PolicyAgent& agent,
                                    const env::TaskDomain& domain,
                                    std::span<const std::size_t> indices,
                                    env::Fidelity fidelity,
                                    std::uint64_t eval_seed);

/// As above over the domain's whole eval split.
[[nodiscard]] double evaluate_agent(PolicyAgent& agent,
                                    const env::TaskDomain& domain,
                                    env::Fidelity fidelity,
                                    std::uint64_t eval_seed);

/// Deterministic evaluation subset: `cap` indices strided evenly across
/// [0, num_traces) (all indices when cap is 0 or >= num_traces). A strided
/// pick keeps the subset representative of the whole split — evaluating a
/// prefix would bias every checkpoint score toward whatever traces happen
/// to sort first.
[[nodiscard]] std::vector<std::size_t> eval_trace_indices(
    std::size_t num_traces, std::size_t cap);

/// One training run: a design (state program + architecture) and the seed
/// that fixes its weight init, episode draws, and action sampling.
struct TrainJob {
  const dsl::StateProgram* program = nullptr;
  const nn::ArchSpec* spec = nullptr;
  std::uint64_t seed = 0;
};

class Trainer {
 public:
  /// Domain-generic; `domain` must outlive the trainer. `block_size` jobs
  /// train in lockstep per scheduled task (>= 1). `metrics` is an optional
  /// profiling registry (pure readout) that must outlive the trainer:
  /// per-block wall clock in rl.probe_block.seconds, volumes in
  /// rl.probe_blocks / rl.probe_block_candidates, DSL execution volume in
  /// dsl.exec.*, and batched mat-mat kernel volume in nn.matmul.calls /
  /// nn.matmul.flops plus the active flavor in the nn.kernel.flavor gauge
  /// (0=scalar, 1=avx2). The funnel passes it for the probe stage
  /// only, so those series describe probe training. Throws
  /// std::invalid_argument on a degenerate config, and std::runtime_error
  /// when NADA_NN_KERNEL names a flavor this build or CPU cannot run.
  Trainer(const env::TaskDomain& domain, TrainConfig config,
          std::size_t block_size = 1,
          obs::MetricsRegistry* metrics = nullptr);

  /// ABR convenience: wraps (dataset, video) in an owned env::AbrDomain.
  Trainer(const trace::Dataset& dataset, const video::Video& video,
          TrainConfig config, std::size_t block_size = 1,
          obs::MetricsRegistry* metrics = nullptr);

  /// Trains every job from scratch; blocks are scheduled on `pool` when
  /// non-null. Results depend only on each job's (design, seed): block
  /// size, scheduling, and the other jobs in a block never change a bit.
  /// Failures (runtime errors in the state program, invalid architectures,
  /// non-finite values) are captured in that job's result rather than
  /// thrown: NADA treats them as filtered-out designs.
  [[nodiscard]] std::vector<TrainResult> train(std::span<const TrainJob> jobs,
                                               util::ThreadPool* pool =
                                                   nullptr) const;

  /// One design under one seed.
  [[nodiscard]] TrainResult train(const dsl::StateProgram& program,
                                  const nn::ArchSpec& spec,
                                  std::uint64_t seed) const;

 private:
  struct Candidate;

  /// All public constructors funnel here; a non-owning aliasing pointer
  /// carries borrowed domains.
  Trainer(std::shared_ptr<const env::TaskDomain> domain, TrainConfig config,
          std::size_t block_size, obs::MetricsRegistry* metrics);

  void train_block(std::span<const TrainJob> jobs,
                   std::span<TrainResult> results) const;
  void step_candidate(Candidate& c) const;
  void update_candidate(Candidate& c, double entropy_weight) const;
  void checkpoint_eval(Candidate& c, double epoch) const;
  void finalize_candidate(Candidate& c) const;

  std::shared_ptr<const env::TaskDomain> owned_domain_;
  const env::TaskDomain* domain_;
  TrainConfig config_;
  std::size_t block_size_;
  obs::MetricsRegistry* metrics_;
  std::vector<std::size_t> eval_indices_;
};

}  // namespace nada::rl
