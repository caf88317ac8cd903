#include "rl/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "nn/mat_kernels.h"
#include "nn/optimizer.h"
#include "obs/scoped_timer.h"
#include "util/stats.h"

namespace nada::rl {

double evaluate_agent(PolicyAgent& agent, const env::TaskDomain& domain,
                      std::span<const std::size_t> indices,
                      env::Fidelity fidelity, std::uint64_t eval_seed) {
  util::Rng eval_rng(eval_seed);
  util::RunningStats step_rewards;
  for (std::size_t idx : indices) {
    const auto episode = domain.start_eval_episode(idx, fidelity, eval_rng);
    dsl::Bindings obs = episode->reset();
    while (!episode->done()) {
      const auto decision = agent.decide(obs, /*sample=*/false, eval_rng);
      env::DomainStep step = episode->step(decision.action);
      step_rewards.add(step.reward);
      obs = std::move(step.observation);
    }
  }
  return step_rewards.mean();
}

double evaluate_agent(PolicyAgent& agent, const env::TaskDomain& domain,
                      env::Fidelity fidelity, std::uint64_t eval_seed) {
  return evaluate_agent(agent, domain,
                        eval_trace_indices(domain.num_eval_units(), 0),
                        fidelity, eval_seed);
}

std::vector<std::size_t> eval_trace_indices(std::size_t num_traces,
                                            std::size_t cap) {
  if (cap == 0 || cap >= num_traces) {
    std::vector<std::size_t> all(num_traces);
    for (std::size_t i = 0; i < num_traces; ++i) all[i] = i;
    return all;
  }
  // Even stride across the whole split: index j -> floor(j * n / cap).
  // Indices are strictly increasing (cap < n), so no trace repeats.
  std::vector<std::size_t> picked(cap);
  for (std::size_t j = 0; j < cap; ++j) {
    picked[j] = j * num_traces / cap;
  }
  return picked;
}

namespace {

// ---- A2C loss arithmetic ----------------------------------------------------

/// TrainConfig::reward_scale with its 0 = "domain hint" default resolved.
double resolve_reward_scale(const TrainConfig& config,
                            const env::TaskDomain& domain) {
  return config.reward_scale > 0.0 ? config.reward_scale
                                   : domain.reward_scale_hint();
}

/// Discounted returns over scaled rewards, newest-to-oldest accumulation.
std::vector<double> discounted_returns(std::span<const double> rewards,
                                       double reward_scale, double gamma) {
  std::vector<double> returns(rewards.size());
  double running = 0.0;
  for (std::size_t t = rewards.size(); t-- > 0;) {
    running = rewards[t] / reward_scale + gamma * running;
    returns[t] = running;
  }
  return returns;
}

/// In-place advantage standardization and clipping per TrainConfig.
void condition_advantages(const TrainConfig& config,
                          std::vector<double>& advantages) {
  if (config.normalize_advantages && advantages.size() > 1) {
    const double mean_adv = util::mean(advantages);
    const double sd = std::max(util::stddev(advantages), 1e-6);
    for (double& a : advantages) a = (a - mean_adv) / sd;
  }
  if (config.advantage_clip > 0.0) {
    for (double& a : advantages) {
      a = std::clamp(a, -config.advantage_clip, config.advantage_clip);
    }
  }
}

/// One step's policy gradient (entropy-regularized, written into `dlogits`)
/// and Huber critic gradient (returned).
double a2c_step_gradient(const TrainConfig& config, const nn::Vec& probs,
                         std::size_t action, double advantage,
                         double step_return, double value,
                         double entropy_weight, double scale,
                         std::span<double> dlogits) {
  const double ent = nn::entropy(probs);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const double onehot = i == action ? 1.0 : 0.0;
    const double policy_grad = advantage * (probs[i] - onehot);
    const double entropy_grad =
        entropy_weight * probs[i] *
        (std::log(std::max(probs[i], 1e-12)) + ent);
    dlogits[i] = (policy_grad + entropy_grad) * scale;
  }
  // Huber (smooth-L1) critic: bounded gradient so early catastrophic
  // returns cannot dominate the update.
  const double value_error =
      std::clamp(value - step_return, -config.huber_delta,
                 config.huber_delta);
  return 2.0 * config.critic_weight * value_error * scale;
}

}  // namespace

/// Everything one job carries through the lockstep loop. The RNG is the
/// job's private stream: episode choice, episode offset, action sampling,
/// and — under emulation fidelity — the session's jitter all draw from it
/// in a fixed order, so no other job in the block can shift its draws.
struct Trainer::Candidate {
  const TrainJob* job = nullptr;
  TrainResult* result = nullptr;
  util::Rng rng;
  std::unique_ptr<PolicyAgent> agent;
  std::unique_ptr<nn::Adam> optimizer;
  std::unique_ptr<env::Episode> episode;
  dsl::Bindings obs;
  bool failed = false;
  bool episode_done = false;
  // Current episode's trajectory. The rollout's forward_capture fills the
  // network's batch caches row by row and its outputs are recorded here,
  // so the fused update needs no forward pass at all.
  std::vector<nn::Vec> step_probs;
  nn::Vec step_values;
  std::vector<std::size_t> actions;
  std::vector<double> rewards;

  Candidate(const TrainJob& j, TrainResult& r)
      : job(&j), result(&r), rng(j.seed) {}

  void fail(const std::exception& e) {
    failed = true;
    result->failed = true;
    result->error = e.what();
    result->final_score = -1e9;
  }
};

Trainer::Trainer(std::shared_ptr<const env::TaskDomain> domain,
                 TrainConfig config, std::size_t block_size,
                 obs::MetricsRegistry* metrics)
    : owned_domain_(std::move(domain)), domain_(owned_domain_.get()),
      config_(config), block_size_(block_size), metrics_(metrics) {
  if (config_.epochs == 0) {
    throw std::invalid_argument("Trainer: zero epochs");
  }
  if (config_.test_interval == 0) {
    throw std::invalid_argument("Trainer: zero test interval");
  }
  if (block_size_ == 0) {
    throw std::invalid_argument("Trainer: zero block size");
  }
  // Resolve NADA_NN_KERNEL here, on the caller's thread: a bad value must
  // throw to the caller, not surface inside train() where every job's
  // first kernel call would turn it into a per-job training failure.
  (void)nn::kernel_flavor();
  eval_indices_ =
      eval_trace_indices(domain_->num_eval_units(), config_.max_eval_traces);
}

Trainer::Trainer(const env::TaskDomain& domain, TrainConfig config,
                 std::size_t block_size, obs::MetricsRegistry* metrics)
    : Trainer(std::shared_ptr<const env::TaskDomain>(
                  std::shared_ptr<void>{}, &domain),
              config, block_size, metrics) {}

Trainer::Trainer(const trace::Dataset& dataset, const video::Video& video,
                 TrainConfig config, std::size_t block_size,
                 obs::MetricsRegistry* metrics)
    : Trainer(std::make_shared<env::AbrDomain>(dataset, video), config,
              block_size, metrics) {}

std::vector<TrainResult> Trainer::train(std::span<const TrainJob> jobs,
                                        util::ThreadPool* pool) const {
  for (const auto& job : jobs) {
    if (job.program == nullptr || job.spec == nullptr) {
      throw std::invalid_argument("Trainer: null job member");
    }
  }
  std::vector<TrainResult> results(jobs.size());
  if (jobs.empty()) return results;
  const std::size_t num_blocks = (jobs.size() + block_size_ - 1) / block_size_;
  auto run_block = [&](std::size_t bi) {
    const std::size_t begin = bi * block_size_;
    const std::size_t count = std::min(block_size_, jobs.size() - begin);
    train_block(jobs.subspan(begin, count),
                std::span<TrainResult>(results).subspan(begin, count));
  };
  if (pool != nullptr && num_blocks > 1) {
    pool->parallel_for(num_blocks, run_block);
  } else {
    for (std::size_t bi = 0; bi < num_blocks; ++bi) run_block(bi);
  }
  return results;
}

TrainResult Trainer::train(const dsl::StateProgram& program,
                           const nn::ArchSpec& spec,
                           std::uint64_t seed) const {
  const TrainJob job{&program, &spec, seed};
  return std::move(train(std::span<const TrainJob>(&job, 1)).front());
}

void Trainer::step_candidate(Candidate& c) const {
  // PolicyAgent::decide(obs, sample=true, rng) followed by episode->step(),
  // keeping the step's outputs for the fused update.
  const dsl::StateMatrix& matrix = c.agent->eval_state(c.obs);
  if (!matrix.all_finite()) {
    throw dsl::RuntimeError("state program produced non-finite values");
  }
  // Capture forward: runs on the synced fast inference path and writes
  // this step's row of the batch caches, so the epoch update can go
  // straight to backward_batch.
  auto out = c.agent->net().forward_capture(c.agent->network_rows(matrix),
                                            c.actions.size());
  const std::size_t action = c.rng.weighted_index(out.probs);
  env::DomainStep sr = c.episode->step(action);
  c.step_probs.push_back(std::move(out.probs));
  c.step_values.push_back(out.value);
  c.actions.push_back(action);
  c.rewards.push_back(sr.reward);
  c.obs = std::move(sr.observation);
  c.episode_done = sr.done;
}

void Trainer::update_candidate(Candidate& c, double entropy_weight) const {
  const std::size_t steps = c.actions.size();

  const double reward_scale = resolve_reward_scale(config_, *domain_);
  const std::vector<double> returns =
      discounted_returns(c.rewards, reward_scale, config_.gamma);

  // The rollout's capture pass already computed every activation this
  // update needs (the weights do not move within an epoch): probs and
  // values were recorded per step, and the layers' batch caches hold the
  // rows backward_batch reads. Episodes always span the domain's full
  // fixed length, so the capture must have filled every row.
  if (steps != domain_->episode_length()) {
    throw std::logic_error("Trainer: episode/capture length skew");
  }
  std::vector<double> advantages(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    advantages[t] = returns[t] - c.step_values[t];
  }
  condition_advantages(config_, advantages);

  c.agent->net().zero_grad();
  const double scale = 1.0 / static_cast<double>(steps);
  const std::size_t num_actions = c.agent->net().num_actions();
  double reward_sum = 0.0;
  nn::Mat dlogits(steps, num_actions);
  nn::Vec dvalues(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    reward_sum += c.rewards[t];
    dvalues[t] = a2c_step_gradient(config_, c.step_probs[t], c.actions[t],
                                   advantages[t], returns[t],
                                   c.step_values[t], entropy_weight, scale,
                                   dlogits.row(t));
  }
  c.agent->net().backward_batch(dlogits, dvalues);
  auto params = c.agent->net().params();
  nn::Optimizer::clip_global_norm(params, config_.grad_clip);
  c.optimizer->step(params);
  // Weights moved: refresh the transposed caches the next rollout's
  // forward_capture (and any checkpoint evaluation's forward_inference)
  // reads.
  c.agent->net().sync_inference_cache();

  c.result->train_rewards.push_back(reward_sum /
                                    static_cast<double>(steps));
}

void Trainer::checkpoint_eval(Candidate& c, double epoch) const {
  const double score =
      evaluate_agent(*c.agent, *domain_, eval_indices_, config_.fidelity,
                     c.job->seed ^ 0x5eedf00d);
  c.result->test_epochs.push_back(epoch);
  c.result->test_scores.push_back(score);
}

void Trainer::finalize_candidate(Candidate& c) const {
  TrainResult& result = *c.result;
  if (config_.evaluate_checkpoints && result.test_scores.empty()) {
    // Budget smaller than the checkpoint interval: evaluate once at end.
    checkpoint_eval(c, static_cast<double>(config_.epochs));
  }
  result.final_score = config_.evaluate_checkpoints
                           ? util::tail_mean(result.test_scores, 10)
                           : util::tail_mean(result.train_rewards, 10);
  if (config_.emulation_final_eval) {
    result.emulation_score =
        evaluate_agent(*c.agent, *domain_, env::Fidelity::kEmulation,
                       c.job->seed ^ 0xe111u);
  }
}

void Trainer::train_block(std::span<const TrainJob> jobs,
                          std::span<TrainResult> results) const {
  obs::ScopedTimer timer(
      obs::maybe_histogram(metrics_, "rl.probe_block.seconds"));
  // A block runs entirely on one thread, so the delta of this thread's
  // kernel tallies across the block is exactly the block's own mat-mat
  // volume (published below alongside the dsl.exec.* aggregates).
  const nn::KernelCounters kernels_before = nn::thread_kernel_counters();
  if (metrics_ != nullptr) {
    metrics_->counter("rl.probe_blocks").add();
    metrics_->counter("rl.probe_block_candidates").add(jobs.size());
    metrics_->gauge("nn.kernel.flavor")
        .set(static_cast<double>(static_cast<int>(nn::kernel_flavor())));
  }
  std::vector<Candidate> block;
  block.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    block.emplace_back(jobs[i], results[i]);
  }

  // The weight init draws from a stream derived from the job seed, apart
  // from the episode/action stream.
  for (Candidate& c : block) {
    try {
      util::Rng init_rng(c.job->seed ^ 0xabcdef1234567890ULL);
      c.agent = std::make_unique<PolicyAgent>(*c.job->program, *c.job->spec,
                                              domain_->num_actions(),
                                              domain_->catalog(), init_rng);
      c.agent->net().sync_inference_cache();
      c.optimizer = std::make_unique<nn::Adam>(config_.learning_rate);
    } catch (const std::exception& e) {
      c.fail(e);
    }
  }

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    bool any_live = false;
    for (const Candidate& c : block) any_live |= !c.failed;
    if (!any_live) break;

    const double progress =
        config_.epochs > 1 ? static_cast<double>(epoch) /
                                 static_cast<double>(config_.epochs - 1)
                           : 1.0;
    const double entropy_weight =
        config_.entropy_start +
        (config_.entropy_end - config_.entropy_start) * progress;

    // Episode starts: per-job environment choice and offset, drawn from
    // the job's own stream (choice, then reset).
    for (Candidate& c : block) {
      if (c.failed) continue;
      try {
        c.episode = domain_->start_train_episode(config_.fidelity, c.rng);
        c.obs = c.episode->reset();
        c.agent->net().begin_batch_capture(domain_->episode_length());
        c.step_probs.clear();
        c.step_values.clear();
        c.actions.clear();
        c.rewards.clear();
        c.episode_done = false;
      } catch (const std::exception& e) {
        c.fail(e);
      }
    }

    // Lockstep rollout: one env step per live job per sweep, until every
    // episode in the block has finished.
    bool active = true;
    while (active) {
      active = false;
      for (Candidate& c : block) {
        if (c.failed || c.episode_done) continue;
        try {
          step_candidate(c);
        } catch (const std::exception& e) {
          c.fail(e);
          continue;
        }
        active |= !c.episode_done;
      }
    }

    // Fused per-job update over the full episode.
    for (Candidate& c : block) {
      if (c.failed) continue;
      try {
        update_candidate(c, entropy_weight);
      } catch (const std::exception& e) {
        c.fail(e);
      }
    }

    if (config_.evaluate_checkpoints &&
        (epoch + 1) % config_.test_interval == 0) {
      for (Candidate& c : block) {
        if (c.failed) continue;
        try {
          checkpoint_eval(c, static_cast<double>(epoch + 1));
        } catch (const std::exception& e) {
          c.fail(e);
        }
      }
    }
  }

  for (Candidate& c : block) {
    if (c.failed) continue;
    try {
      finalize_candidate(c);
    } catch (const std::exception& e) {
      c.fail(e);
    }
  }

  // DSL execution volume, aggregated once per block rather than per step
  // (the counters are atomics; per-step adds would serialize the pool).
  if (metrics_ != nullptr) {
    std::uint64_t runs = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cost_units = 0;
    for (const Candidate& c : block) {
      if (c.agent == nullptr) continue;
      runs += c.agent->exec_runs();
      instructions += c.agent->exec_stats().instructions;
      cost_units += c.agent->exec_stats().cost_units;
    }
    metrics_->counter("dsl.exec.runs").add(runs);
    metrics_->counter("dsl.exec.instructions").add(instructions);
    metrics_->counter("dsl.exec.cost_units").add(cost_units);
    const nn::KernelCounters& kernels_after = nn::thread_kernel_counters();
    metrics_->counter("nn.matmul.calls")
        .add(kernels_after.matmul_calls - kernels_before.matmul_calls);
    metrics_->counter("nn.matmul.flops")
        .add(kernels_after.matmul_flops - kernels_before.matmul_flops);
  }
}

}  // namespace nada::rl
