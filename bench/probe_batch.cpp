// Probe-throughput bench: candidates/sec for the early-probe stage on
// rl::Trainer, one job per block against lockstep blocks of four, at
// several cohort sizes.
//
// The funnel spends nearly all its compute here (thousands of short runs
// that only feed the early-stop ranker), so this is the number that decides
// how many candidates a machine can screen per hour. The bench also checks
// the engine's results, and exits nonzero when one fails:
//   * a fixed, unscaled 16-job probe cohort must reproduce a golden digest
//     of its reward curves at block sizes 1, 4 and 16 (the digest was
//     recorded from the single-sample trainer the engine replaced),
//   * every timed row must produce the same curves at both block sizes.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "gen/state_gen.h"
#include "nn/mat_kernels.h"
#include "rl/trainer.h"
#include "trace/generator.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "video/video.h"

namespace {

using namespace nada;

/// FNV-1a digest of every job's failure flag, reward curve and final score
/// as hex floats: equal digests mean bitwise-equal curves.
std::uint64_t results_digest(const std::vector<rl::TrainResult>& results) {
  std::string text;
  char buf[64];
  for (const auto& r : results) {
    text += r.failed ? "failed" : "ok";
    for (double v : r.train_rewards) {
      std::snprintf(buf, sizeof buf, " %a", v);
      text += buf;
    }
    std::snprintf(buf, sizeof buf, " %a\n", r.final_score);
    text += buf;
  }
  return util::fnv1a64(text);
}

bool same_curves(const std::vector<rl::TrainResult>& a,
                 const std::vector<rl::TrainResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].failed != b[i].failed ||
        a[i].train_rewards != b[i].train_rewards) {
      return false;
    }
  }
  return true;
}

std::vector<rl::TrainJob> make_jobs(
    const std::vector<dsl::StateProgram>& programs, const nn::ArchSpec& arch,
    std::size_t cohort) {
  std::vector<rl::TrainJob> jobs;
  jobs.reserve(cohort);
  for (std::size_t i = 0; i < cohort; ++i) {
    jobs.push_back(rl::TrainJob{&programs[i % programs.size()], &arch,
                                0x9e3779b9ULL * (i + 1)});
  }
  return jobs;
}

/// Golden digest of the fixed cohort in check_golden().
constexpr std::uint64_t kGoldenDigest = 0x8427c34fd1515498ULL;

/// The fixed golden cohort: independent of NADA_SCALE_*, so the digest
/// holds at any scale. Returns false on a mismatch.
bool check_golden(const std::vector<dsl::StateProgram>& programs,
                  const nn::ArchSpec& arch) {
  const trace::Dataset dataset =
      trace::build_dataset(trace::Environment::kFcc, 0.05, 7);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 11);
  rl::TrainConfig config;
  config.epochs = 12;
  config.evaluate_checkpoints = false;
  const auto jobs = make_jobs(programs, arch, 16);
  bool ok = true;
  std::uint64_t first = 0;
  for (const std::size_t block : {1u, 4u, 16u}) {
    const rl::Trainer trainer(dataset, video, config, block);
    const std::uint64_t digest = results_digest(trainer.train(jobs));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::cout << "golden cohort, block size " << block << ": digest " << hex;
    if (block == 1) first = digest;
    if (digest != first) {
      std::cout << "  ERROR: differs from block size 1";
      ok = false;
    } else if (digest != kGoldenDigest) {
      std::cout << "  ERROR: golden mismatch";
      ok = false;
    } else {
      std::cout << "  matches golden";
    }
    std::cout << "\n";
  }
  return ok;
}

}  // namespace

int main() {
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Lockstep probe training — candidates/sec by block size",
                scale);

  const trace::Environment env = trace::Environment::kFcc;
  const trace::Dataset dataset = trace::build_dataset(env, scale.traces, 7);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 11);
  util::ThreadPool pool;

  rl::TrainConfig probe_config;
  probe_config.epochs = scale.epoch_count(60, 12);
  probe_config.evaluate_checkpoints = false;

  // A pool of distinct state programs cycled across the cohort, as the
  // funnel's pre-check survivors would be.
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                2024);
  std::vector<dsl::StateProgram> programs;
  programs.push_back(
      dsl::StateProgram::compile(dsl::pensieve_state_source()));
  for (const auto& candidate : generator.generate_batch(64)) {
    if (programs.size() >= 8) break;
    try {
      programs.push_back(dsl::StateProgram::compile(candidate.source));
    } catch (const dsl::CompileError&) {
      continue;
    }
  }
  nn::ArchSpec arch = nn::ArchSpec::pensieve();
  arch.conv_filters = 32;
  arch.scalar_hidden = 32;
  arch.merge_hidden = 32;

  // Every row is labeled with the NN kernel flavor it ran under. Results
  // are bit-identical across flavors; throughput is not.
  const std::string flavor = nn::kernel_flavor_name(nn::kernel_flavor());
  std::cout << "nn kernel flavor: " << flavor << "\n";

  // CI runs this bench as the result check: any divergence must fail the
  // job, not just print.
  bool all_identical = check_golden(programs, arch);

  util::TextTable table("Early-probe throughput (higher is better)");
  table.set_header({"candidates", "kernel", "block 1 cand/s",
                    "block 4 cand/s", "speedup", "identical"});

  for (const std::size_t cohort : {8u, 16u, 32u}) {
    const auto jobs = make_jobs(programs, arch, cohort);

    const rl::Trainer single_trainer(dataset, video, probe_config, 1);
    bench::Stopwatch single_timer;
    const auto single_results = single_trainer.train(jobs, nullptr);
    const double single_s = single_timer.seconds();

    const rl::Trainer block_trainer(dataset, video, probe_config, 4);
    bench::Stopwatch block_timer;
    const auto block_results = block_trainer.train(jobs, nullptr);
    const double block_s = block_timer.seconds();

    const bool identical = same_curves(single_results, block_results);
    const double single_rate = cohort / std::max(single_s, 1e-9);
    const double block_rate = cohort / std::max(block_s, 1e-9);
    table.add_row_mixed({std::to_string(cohort), flavor},
                        {single_rate, block_rate, block_rate / single_rate,
                         identical ? 1.0 : 0.0},
                        2);
    if (!identical) {
      all_identical = false;
      std::cout << "ERROR: block-size-4 curves diverged from block size 1 "
                   "at cohort " << cohort << "\n";
    }
  }

  // Pool-scheduled runs: one task per job vs one task per block of four.
  {
    const std::size_t cohort = 32;
    const auto jobs = make_jobs(programs, arch, cohort);
    const rl::Trainer single_trainer(dataset, video, probe_config, 1);
    bench::Stopwatch single_timer;
    const auto single_results = single_trainer.train(jobs, &pool);
    const double single_s = single_timer.seconds();

    const rl::Trainer block_trainer(dataset, video, probe_config, 4);
    bench::Stopwatch block_timer;
    const auto block_results = block_trainer.train(jobs, &pool);
    const double block_s = block_timer.seconds();
    std::cout << "pool-scheduled, " << cohort << " candidates on "
              << pool.size() << " threads: block 1 "
              << cohort / std::max(single_s, 1e-9) << " cand/s, block 4 "
              << cohort / std::max(block_s, 1e-9) << " cand/s ("
              << single_s / std::max(block_s, 1e-9) << "x)\n";
    if (!same_curves(single_results, block_results)) {
      all_identical = false;
      std::cout << "ERROR: pool-scheduled block-size-4 curves diverged from "
                   "block size 1\n";
    }
  }

  // Kernel-flavor sweep: the same cohort under each runnable flavor.
  // avx2 must reproduce the scalar curves bit-for-bit (a divergence fails
  // the bench).
  {
    const nn::KernelFlavor entry_flavor = nn::kernel_flavor();
    std::vector<nn::KernelFlavor> flavors = {nn::KernelFlavor::kScalar};
    if (nn::built_with_avx2_kernels() && nn::cpu_supports_avx2()) {
      flavors.push_back(nn::KernelFlavor::kAvx2);
    }

    const std::size_t cohort = 16;
    const auto jobs = make_jobs(programs, arch, cohort);
    const rl::Trainer batch_trainer(dataset, video, probe_config, 4);

    util::TextTable sweep("Kernel-flavor sweep (batched, cohort 16)");
    sweep.set_header({"kernel", "batched cand/s", "vs scalar"});
    std::vector<rl::TrainResult> scalar_results;
    for (const nn::KernelFlavor f : flavors) {
      nn::set_kernel_flavor(f);
      bench::Stopwatch flavor_timer;
      const auto flavor_results = batch_trainer.train(jobs, nullptr);
      const double rate = cohort / std::max(flavor_timer.seconds(), 1e-9);
      std::string comparison = "(reference)";
      if (f == nn::KernelFlavor::kScalar) {
        scalar_results = flavor_results;
      } else {
        bool identical = true;
        for (std::size_t i = 0; i < cohort; ++i) {
          identical &= flavor_results[i].train_rewards ==
                       scalar_results[i].train_rewards;
        }
        comparison = identical ? "bit-identical" : "DIVERGED";
        if (!identical) {
          all_identical = false;
          std::cout << "ERROR: avx2 curves diverged from scalar — the "
                       "bit-identity contract is broken\n";
        }
      }
      sweep.add_row({nn::kernel_flavor_name(f), util::format_double(rate, 2),
                     comparison});
    }
    nn::set_kernel_flavor(entry_flavor);
    std::cout << sweep.to_string() << "\n";
  }

  std::cout << table.to_string() << "\n";
  bench::save_csv("probe_batch.csv", table);
  if (!all_identical) {
    std::cout << "FAILED: probe results diverged (see ERROR lines)\n";
    return 1;
  }
  return 0;
}
