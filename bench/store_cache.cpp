// Candidate-store cache bench: the same funnel run cold (empty store),
// warm (fully journaled store), and sharded across simulated workers.
//
// The paper's whole premise is not spending training compute on duds; the
// persistent store extends that across processes — a repeated or resumed
// search replays recorded outcomes instead of retraining. This bench
// measures exactly that saving, and demonstrates the shard-plan split of
// one search across N independent stores merged at the end.
#include <filesystem>
#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "env/abr_domain.h"
#include "gen/state_gen.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "store/shard.h"
#include "trace/generator.h"
#include "util/thread_pool.h"
#include "video/video.h"

int main() {
  using namespace nada;
  const auto scale = util::ScaleConfig::from_env();
  bench::banner("Candidate store — cold vs warm funnel runs", scale);

  const trace::Environment env = trace::Environment::kStarlink;
  const trace::Dataset dataset = trace::build_dataset(env, scale.traces, 7);
  const video::Video video =
      video::make_test_video(video::pensieve_ladder(), 11);
  const env::AbrDomain domain(dataset, video);
  util::ThreadPool pool;

  search::SearchConfig config = search::scaled_config(env, scale);
  config.num_candidates = std::min<std::size_t>(config.num_candidates, 120);

  const auto run_once = [&](store::CandidateStore* cache,
                            double* seconds) {
    gen::StateGenerator generator(gen::gpt4_profile(), gen::PromptStrategy{},
                                  2024);
    search::StateCandidateSource source(generator);
    bench::Stopwatch timer;
    search::SearchResult result =
        search::SearchJob(domain, config, 31337, source,
                          {nullptr, &config.baseline_arch},
                          {.store = cache, .pool = &pool})
            .run_to_completion();
    *seconds = timer.seconds();
    return result;
  };

  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "nada_store_bench").string();
  std::filesystem::remove_all(store_dir);
  const store::StoreScope scope = search::store_scope(domain, config, 31337);
  const std::string journal = store_dir + "/funnel.nsb";

  double cold_s = 0.0;
  double warm_s = 0.0;
  search::SearchResult cold;
  search::SearchResult warm;
  {
    store::CandidateStore cache(journal, scope);
    cold = run_once(&cache, &cold_s);
  }
  {
    store::CandidateStore cache(journal, scope);
    warm = run_once(&cache, &warm_s);
  }

  util::TextTable table("Funnel runs over one generator stream");
  table.set_header({"run", "seconds", "probes run", "full trains run",
                    "cache hits"});
  table.add_row_mixed({"cold"}, {cold_s, double(cold.n_probes_run),
                                 double(cold.n_full_trains_run),
                                 double(cold.cache_hits())},
                      2);
  table.add_row_mixed({"warm"}, {warm_s, double(warm.n_probes_run),
                                 double(warm.n_full_trains_run),
                                 double(warm.cache_hits())},
                      2);
  std::cout << table.to_string() << "\n";
  std::cout << "warm speedup: " << (warm_s > 0 ? cold_s / warm_s : 0.0)
            << "x (identical ranked result: "
            << (cold.best_index == warm.best_index ? "yes" : "NO") << ")\n";

  // Shard-plan demo: split the journal across 3 simulated workers by
  // fingerprint range, then merge back into one store.
  const store::ShardPlan plan(3);
  std::vector<std::string> shard_paths;
  {
    store::CandidateStore full(journal, scope);
    std::vector<std::unique_ptr<store::CandidateStore>> shards;
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      shard_paths.push_back(store_dir + "/shard-" + std::to_string(s) +
                            ".nsb");
      shards.push_back(
          std::make_unique<store::CandidateStore>(shard_paths[s], scope));
    }
    for (const auto& record : full.records()) {
      shards[plan.shard_of(record.fingerprint)]->put(record);
    }
    std::cout << "sharded " << full.size() << " records across "
              << plan.num_shards() << " worker stores:";
    for (const auto& shard : shards) std::cout << " " << shard->size();
    std::cout << "\n";
  }
  store::CandidateStore merged(store_dir + "/merged.nsb", scope);
  const std::size_t merged_count =
      store::merge_shard_files(shard_paths, merged);
  std::cout << "merged " << merged_count << " records back into one store ("
            << merged.size() << " distinct candidates)\n";

  bench::save_csv("store_cache.csv", table);
  return 0;
}
