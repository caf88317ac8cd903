#include "rl/session.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "util/stats.h"

namespace nada::rl {

SessionResult aggregate_sessions(std::vector<TrainResult> sessions,
                                 bool emulation_eval) {
  SessionResult result;
  result.sessions = std::move(sessions);

  // Median of per-session final scores over the sessions that ran.
  std::vector<double> finals;
  for (const auto& s : result.sessions) {
    if (!s.failed) finals.push_back(s.final_score);
  }
  if (finals.empty()) {
    result.failed = true;
    result.test_score = -1e9;
    return result;
  }
  result.test_score = util::median(finals);
  if (emulation_eval) {
    std::vector<double> emu_finals;
    for (const auto& s : result.sessions) {
      if (!s.failed) emu_finals.push_back(s.emulation_score);
    }
    result.emulation_score = util::median(emu_finals);
  }

  // Median curve: align checkpoints by index (sessions share the cadence).
  std::size_t num_checkpoints = 0;
  for (const auto& s : result.sessions) {
    if (!s.failed) {
      num_checkpoints = std::max(num_checkpoints, s.test_scores.size());
    }
  }
  for (std::size_t c = 0; c < num_checkpoints; ++c) {
    std::vector<double> at_c;
    for (const auto& s : result.sessions) {
      if (!s.failed && c < s.test_scores.size()) {
        at_c.push_back(s.test_scores[c]);
      }
    }
    if (!at_c.empty()) {
      result.median_curve.push_back(util::median(at_c));
      for (const auto& s : result.sessions) {
        if (!s.failed && c < s.test_epochs.size()) {
          if (result.curve_epochs.size() <= c) {
            result.curve_epochs.push_back(s.test_epochs[c]);
          }
          break;
        }
      }
    }
  }
  return result;
}

SessionResult run_sessions(const env::TaskDomain& domain,
                           const dsl::StateProgram& program,
                           const nn::ArchSpec& spec,
                           const SessionConfig& config,
                           std::uint64_t base_seed, util::ThreadPool* pool) {
  return std::move(run_session_batch(
      domain, {SessionJob{&program, &spec, base_seed}}, config, pool)[0]);
}

SessionResult run_sessions(const trace::Dataset& dataset,
                           const video::Video& video,
                           const dsl::StateProgram& program,
                           const nn::ArchSpec& spec,
                           const SessionConfig& config,
                           std::uint64_t base_seed, util::ThreadPool* pool) {
  const env::AbrDomain domain(dataset, video);
  return run_sessions(domain, program, spec, config, base_seed, pool);
}

std::vector<SessionResult> run_session_batch(const env::TaskDomain& domain,
                                             const std::vector<SessionJob>& jobs,
                                             const SessionConfig& config,
                                             util::ThreadPool* pool) {
  if (config.seeds == 0) {
    throw std::invalid_argument("run_session_batch: zero seeds");
  }
  for (const auto& job : jobs) {
    if (job.program == nullptr || job.spec == nullptr) {
      throw std::invalid_argument("run_session_batch: null job member");
    }
  }
  // Flatten (job, seed) into one list, one job per lockstep block: the
  // pool schedules every (design, seed) pair as its own task.
  std::vector<TrainJob> flat;
  flat.reserve(jobs.size() * config.seeds);
  for (const auto& job : jobs) {
    for (std::size_t s = 0; s < config.seeds; ++s) {
      flat.push_back(TrainJob{job.program, job.spec,
                              job.base_seed + 0x9e3779b9ULL * (s + 1)});
    }
  }
  const Trainer trainer(domain, config.train, /*block_size=*/1);
  std::vector<TrainResult> trained = trainer.train(flat, pool);
  std::vector<SessionResult> results;
  results.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto first = std::make_move_iterator(
        trained.begin() + static_cast<std::ptrdiff_t>(j * config.seeds));
    results.push_back(aggregate_sessions(
        std::vector<TrainResult>(
            first, first + static_cast<std::ptrdiff_t>(config.seeds)),
        config.train.emulation_final_eval));
  }
  return results;
}

std::vector<SessionResult> run_session_batch(
    const trace::Dataset& dataset, const video::Video& video,
    const std::vector<SessionJob>& jobs, const SessionConfig& config,
    util::ThreadPool* pool) {
  const env::AbrDomain domain(dataset, video);
  return run_session_batch(domain, jobs, config, pool);
}

}  // namespace nada::rl
