#include "search/shard_runner.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include "store/shard.h"
#include "util/fs.h"

namespace nada::search {

ShardRunner::ShardRunner(const env::TaskDomain& domain, SearchConfig config,
                         std::uint64_t seed, ShardRunnerConfig shards,
                         util::ThreadPool* pool)
    : domain_(&domain), config_(std::move(config)), seed_(seed),
      shards_(std::move(shards)), pool_(pool),
      scope_(store_scope(domain, config_, seed)) {
  validate_config(config_);
  if (shards_.num_shards == 0) {
    throw std::invalid_argument("ShardRunner: zero shards");
  }
}

std::string ShardRunner::shard_store_path(std::size_t shard) const {
  if (shard >= shards_.num_shards) {
    throw std::out_of_range("ShardRunner::shard_store_path: shard " +
                            std::to_string(shard) + " out of range");
  }
  return shards_.store_dir + "/" + scope_.env + "-" +
         scope_.config_digest.substr(0, 12) + "-shard-" +
         std::to_string(shard) + "-of-" +
         std::to_string(shards_.num_shards) +
         store::kJournalExtension;
}

std::string ShardRunner::merged_store_path() const {
  return shards_.store_dir + "/" + scope_.env + "-" +
         scope_.config_digest.substr(0, 12) + "-merged-" +
         std::to_string(shards_.num_shards) +
         store::kJournalExtension;
}

std::string ShardRunner::worker_status_path(std::size_t shard) const {
  return shard_store_path(shard) + ".status.json";
}

std::string ShardRunner::merged_status_path() const {
  return merged_store_path() + ".status.json";
}

std::string ShardRunner::aggregate_status_path() const {
  return merged_store_path() + ".cluster.json";
}

SearchResult ShardRunner::run_worker(std::size_t shard,
                                     CandidateSource& source,
                                     const FixedDesign& fixed,
                                     const std::vector<Observer*>& observers) {
  util::ensure_directories(shards_.store_dir);
  // Every worker replays the same stream from the start; rewinding here
  // lets one in-process generator drive several shards in a loop.
  source.reset();
  store::CandidateStore store(shard_store_path(shard), scope_);
  SearchJob::Options options;
  options.store = &store;
  options.pool = pool_;
  options.shard = ShardSlice{shards_.num_shards, shard};
  options.metrics = shards_.metrics;
  SearchJob job(*domain_, config_, seed_, source, fixed, options);
  std::unique_ptr<obs::StatusWriter> status;
  if (shards_.worker_status) {
    status = std::make_unique<obs::StatusWriter>(obs::StatusConfig{
        worker_status_path(shard),
        "worker-" + std::to_string(shard) + "/" +
            std::to_string(shards_.num_shards),
        config_.num_candidates});
    job.add_observer(status.get());
  }
  for (Observer* observer : observers) job.add_observer(observer);
  // Per-candidate stages only: the baseline and everything after it need
  // the whole cohort, which is the driver's job.
  SearchResult result = job.run_until(StageKind::kBaseline);
  if (status != nullptr) status->finish();
  return result;
}

SearchResult ShardRunner::merge_and_rank(CandidateSource& source,
                                         const FixedDesign& fixed,
                                         const filter::EarlyStopModel* early_stop,
                                         const std::vector<Observer*>& observers) {
  util::ensure_directories(shards_.store_dir);
  source.reset();
  store::CandidateStore merged(merged_store_path(), scope_);
  std::vector<std::string> paths;
  paths.reserve(shards_.num_shards);
  for (std::size_t shard = 0; shard < shards_.num_shards; ++shard) {
    paths.push_back(shard_store_path(shard));
  }
  store::merge_shard_files(paths, merged);
  SearchJob::Options options;
  options.store = &merged;
  options.pool = pool_;
  options.early_stop_model = early_stop;
  options.metrics = shards_.metrics;
  SearchJob job(*domain_, config_, seed_, source, fixed, options);
  std::unique_ptr<obs::StatusWriter> status;
  if (shards_.worker_status) {
    status = std::make_unique<obs::StatusWriter>(obs::StatusConfig{
        merged_status_path(), "driver", config_.num_candidates});
    job.add_observer(status.get());
  }
  for (Observer* observer : observers) job.add_observer(observer);
  SearchResult result = job.run_to_completion();
  if (status != nullptr) status->finish();
  return result;
}

SearchResult ShardRunner::run_range(const store::ShardPlan::Range& range,
                                    const std::string& journal_path,
                                    CandidateSource& source,
                                    const FixedDesign& fixed,
                                    const std::vector<Observer*>& observers) {
  const std::string parent = util::parent_directory(journal_path);
  if (!parent.empty()) util::ensure_directories(parent);
  source.reset();
  store::CandidateStore store(journal_path, scope_);
  SearchJob::Options options;
  options.store = &store;
  options.pool = pool_;
  options.range = range;
  options.metrics = shards_.metrics;
  SearchJob job(*domain_, config_, seed_, source, fixed, options);
  std::unique_ptr<obs::StatusWriter> status;
  if (shards_.worker_status) {
    status = std::make_unique<obs::StatusWriter>(obs::StatusConfig{
        journal_path + ".status.json", "lease-" + std::to_string(range.lo),
        config_.num_candidates});
    job.add_observer(status.get());
  }
  for (Observer* observer : observers) job.add_observer(observer);
  SearchResult result = job.run_until(StageKind::kBaseline);
  if (status != nullptr) status->finish();
  return result;
}

SearchResult ShardRunner::merge_and_rank_paths(
    std::span<const std::string> journals, CandidateSource& source,
    const FixedDesign& fixed, const filter::EarlyStopModel* early_stop,
    const std::vector<Observer*>& observers) {
  util::ensure_directories(shards_.store_dir);
  source.reset();
  store::CandidateStore merged(merged_store_path(), scope_);
  store::merge_existing_shard_files(journals, merged);
  SearchJob::Options options;
  options.store = &merged;
  options.pool = pool_;
  options.early_stop_model = early_stop;
  options.metrics = shards_.metrics;
  SearchJob job(*domain_, config_, seed_, source, fixed, options);
  std::unique_ptr<obs::StatusWriter> status;
  if (shards_.worker_status) {
    status = std::make_unique<obs::StatusWriter>(obs::StatusConfig{
        merged_status_path(), "driver", config_.num_candidates});
    job.add_observer(status.get());
  }
  for (Observer* observer : observers) job.add_observer(observer);
  SearchResult result = job.run_to_completion();
  if (status != nullptr) status->finish();
  return result;
}

std::string ShardRunner::service_prefix() const {
  return scope_.env + "-" + scope_.config_digest.substr(0, 12) + "-svc-";
}

std::vector<std::optional<obs::StatusSnapshot>> ShardRunner::worker_statuses()
    const {
  std::vector<std::optional<obs::StatusSnapshot>> statuses;
  statuses.reserve(shards_.num_shards);
  for (std::size_t shard = 0; shard < shards_.num_shards; ++shard) {
    statuses.push_back(obs::read_status(worker_status_path(shard)));
  }
  return statuses;
}

util::JsonValue ShardRunner::write_merged_status(
    double staleness_threshold_seconds) const {
  util::ensure_directories(shards_.store_dir);
  util::JsonValue doc =
      obs::aggregate_status(worker_statuses(), obs::unix_now(),
                            staleness_threshold_seconds);
  util::write_file_atomic(aggregate_status_path(), doc.dump() + "\n");
  return doc;
}

}  // namespace nada::search
