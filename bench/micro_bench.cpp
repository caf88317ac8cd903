// Microbenchmarks (google-benchmark) for the substrates: NadaScript
// evaluation, network forward/backward, simulator stepping, trace
// generation, and the pre-checks. These quantify the per-unit costs the
// experiment budgets are built on.
#include <benchmark/benchmark.h>

#include "dsl/state_program.h"
#include "env/abr_env.h"
#include "filter/checks.h"
#include "gen/state_gen.h"
#include "nn/arch.h"
#include "rl/agent.h"
#include "trace/generator.h"
#include "video/video.h"
#include "env/abr_domain.h"

namespace {

using namespace nada;

void BM_DslCompile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dsl::StateProgram::compile(dsl::pensieve_state_source()));
  }
}
BENCHMARK(BM_DslCompile);

void BM_DslRunPensieveState(benchmark::State& state) {
  const auto program = dsl::StateProgram::compile(dsl::pensieve_state_source());
  const auto obs = env::bindings_from_observation(env::canned_observation());
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.run(obs));
  }
}
BENCHMARK(BM_DslRunPensieveState);

void BM_DslRunAdvancedState(benchmark::State& state) {
  const auto program = dsl::StateProgram::compile(
      "emit \"tput\" = smooth(throughput_mbps, 3) / 8.0;\n"
      "emit \"pred\" = linreg_predict(throughput_mbps) / 8.0;\n"
      "emit \"buf\" = savgol(buffer_size_s_history) / 60.0;\n"
      "emit \"bufd\" = diff(buffer_size_s_history) / 10.0;\n");
  const auto obs = env::bindings_from_observation(env::canned_observation());
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.run(obs));
  }
}
BENCHMARK(BM_DslRunAdvancedState);

void BM_NetForward(benchmark::State& state) {
  nn::ArchSpec spec = nn::ArchSpec::pensieve();
  const auto width = static_cast<std::size_t>(state.range(0));
  spec.conv_filters = spec.scalar_hidden = spec.merge_hidden = width;
  util::Rng rng(1);
  nn::StateSignature sig;
  sig.row_lengths = {1, 1, 8, 8, 6, 1};
  nn::ActorCriticNet net(spec, sig, 6, rng);
  const std::vector<nn::Vec> rows = {
      {0.3}, {0.9}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
      {0.2, 0.2, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2},
      {0.1, 0.2, 0.4, 0.7, 1.1, 1.7}, {0.5}};
  net.sync_inference_cache();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward_inference(rows));
  }
}
BENCHMARK(BM_NetForward)->Arg(32)->Arg(128);

void BM_NetForwardBackward(benchmark::State& state) {
  nn::ArchSpec spec = nn::ArchSpec::pensieve();
  const auto width = static_cast<std::size_t>(state.range(0));
  spec.conv_filters = spec.scalar_hidden = spec.merge_hidden = width;
  util::Rng rng(1);
  nn::StateSignature sig;
  sig.row_lengths = {1, 1, 8, 8, 6, 1};
  nn::ActorCriticNet net(spec, sig, 6, rng);
  const std::vector<nn::Vec> rows = {
      {0.3}, {0.9}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
      {0.2, 0.2, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2},
      {0.1, 0.2, 0.4, 0.7, 1.1, 1.7}, {0.5}};
  nn::Mat dlogits(1, 6);
  const nn::Vec dlogit_row = {0.1, -0.2, 0.3, 0.0, -0.1, -0.1};
  std::copy(dlogit_row.begin(), dlogit_row.end(), dlogits.row(0).begin());
  net.sync_inference_cache();
  for (auto _ : state) {
    net.begin_batch_capture(1);
    benchmark::DoNotOptimize(net.forward_capture(rows, 0));
    net.backward_batch(dlogits, {0.5});
  }
}
BENCHMARK(BM_NetForwardBackward)->Arg(32)->Arg(128);

void BM_SimulatorEpisode(benchmark::State& state) {
  util::Rng rng(3);
  const auto tr = trace::generate_trace(trace::Environment::k4G, 400.0, rng);
  const auto video = video::make_test_video(video::youtube_ladder(), 5);
  for (auto _ : state) {
    env::AbrEnv env(tr, video, env::Fidelity::kSimulation, rng);
    env.reset();
    double total = 0.0;
    std::size_t level = 0;
    while (!env.done()) {
      const auto step = env.step(level);
      total += step.reward;
      level = (level + 1) % 6;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SimulatorEpisode);

void BM_EmulationEpisode(benchmark::State& state) {
  util::Rng rng(4);
  const auto tr = trace::generate_trace(trace::Environment::k4G, 400.0, rng);
  const auto video = video::make_test_video(video::youtube_ladder(), 5);
  for (auto _ : state) {
    env::AbrEnv env(tr, video, env::Fidelity::kEmulation, rng);
    env.reset();
    double total = 0.0;
    while (!env.done()) total += env.step(2).reward;
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EmulationEpisode);

void BM_TraceGeneration(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::generate_trace(trace::Environment::kStarlink, 300.0, rng));
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_CandidateGeneration(benchmark::State& state) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate());
  }
}
BENCHMARK(BM_CandidateGeneration);

void BM_CompilationCheck(benchmark::State& state) {
  gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                7);
  const auto batch = generator.generate_batch(256);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        filter::compilation_check(batch[i % batch.size()].source, env::abr_catalog()));
    ++i;
  }
}
BENCHMARK(BM_CompilationCheck);

void BM_NormalizationCheck(benchmark::State& state) {
  const auto program =
      dsl::StateProgram::compile(dsl::pensieve_state_source());
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::normalization_check(program, env::abr_catalog()));
  }
}
BENCHMARK(BM_NormalizationCheck);

}  // namespace

BENCHMARK_MAIN();
