// funnel_bench: one run of one workload of the NADA funnel benchmark.
//
//   funnel_bench --workload abr-state-cold --seed 3 --seconds 10
//                --trace 0 --work-dir DIR [--scale full|tiny]
//
// A run cycles through the workload's K candidate streams (generator seeds
// 77..77+K-1, job seed kJobSeed), one funnel pass per step, in whole cycles
// until --seconds have passed; a traced run stops after the first pair that
// ends past --seconds. On batch workloads --seed draws the order in which
// each stream's candidates reach the program (ShuffledSource); streaming
// workloads keep generator order, so there --seed only numbers the run.
// Each pass runs in a forked child with a fresh set-up (domain data,
// generators, pool, store) and a fresh directory. After each pass the
// stream is replayed in batch mode against the pass's own journal: the
// replay must execute zero probes and zero full trainings and print
// identical RANK lines. A pass that crashes or fails that check is a failed
// operation; a crashed pass is run once more.
//
// --trace 0 runs untraced passes and reports the end-to-end metrics.
// --trace 1 pairs every untraced pass with a traced pass of the same
// stream (decorated domain and source, an Observer, and a metrics
// registry), requires identical rankings from the two, and reports the
// per-layer metrics. README.md defines every metric.
//
// Output: progress on stderr; `FUNNELBENCH_DETAIL <json>` (machine and
// build fingerprint, seeds, every pass) and, last,
// `FUNNELBENCH_RESULT <json>` on stdout. run.py builds this program and
// turns those lines into the benchmark's result line.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dsl/state_program.h"
#include "layers.h"
#include "nn/mat_kernels.h"
#include "obs/metrics.h"
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/candidate_store.h"
#include "svc/lease_log.h"
#include "svc/process.h"
#include "svc/supervisor.h"
#include "tools/cli_common.h"
#include "util/json.h"
#include "util/thread_pool.h"

extern char** environ;

namespace {

using namespace nada;
using funnelbench::Clock;
using funnelbench::HistogramData;
using funnelbench::seconds_since;
namespace fs = std::filesystem;

// ---- workloads -------------------------------------------------------------

enum class Mode {
  kCold,        ///< one process, fresh store
  kWarm,        ///< one process, replaying a journal a cold pass wrote
  kSupervised,  ///< svc::Supervisor driving shard_worker lease workers
};

struct Workload {
  std::string name;
  std::string domain;  ///< "abr" | "cc"
  std::string search;  ///< "state" | "arch"
  std::size_t candidates = 0;
  std::size_t window = 0;  ///< 0 = batch mode
  Mode mode = Mode::kCold;
  /// Candidate streams per run; one cycle over them takes about a run.
  std::size_t streams = 1;
};

std::optional<Workload> find_workload(const std::string& name, bool tiny) {
  const std::size_t abr = tiny ? 48 : 2400;
  const std::size_t cc = tiny ? 16 : 128;
  const Workload all[] = {
      {"abr-state-cold", "abr", "state", abr, 0, Mode::kCold, 4},
      {"cc-arch-stream", "cc", "arch", cc, 4, Mode::kCold, 3},
      {"abr-state-warm", "abr", "state", abr, 0, Mode::kWarm, 1},
      {"abr-state-supervised", "abr", "state", abr, 0, Mode::kSupervised, 4},
  };
  for (const auto& w : all) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

/// The job seed of every pass. It is fixed: the trained baseline's score
/// swings widely across job seeds, which no bound on best_gain would absorb.
constexpr std::uint64_t kJobSeed = 1234;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "funnel_bench: " << error << "\n"
            << "usage: funnel_bench --workload NAME --seed N --seconds S"
            << " --trace 0|1 --work-dir DIR [--scale full|tiny]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--workload") args.workload = value(i);
      else if (flag == "--seed") args.seed = std::stoull(value(i));
      else if (flag == "--seconds") args.seconds = std::stod(value(i));
      else if (flag == "--trace") args.trace = value(i) == "1";
      else if (flag == "--work-dir") args.work_dir = value(i);
      else if (flag == "--scale") args.tiny = value(i) == "tiny";
      else usage("unknown flag " + flag);
    }
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
  return args;
}

// ---- inputs ------------------------------------------------------------------

/// A batch workload's input: one generator stream, its candidates in an
/// order drawn from the run's --seed. What each candidate costs is fixed by
/// its content (per-candidate seeds are fingerprint-derived), so the seed
/// moves which candidates share a probe block, not how much work a pass
/// does. The whole stream is pulled on the first generate() call, inside
/// the generate stage, as the program's own batch pull does.
class ShuffledSource final : public search::CandidateSource {
 public:
  ShuffledSource(search::CandidateSource& inner, std::size_t total,
                 std::uint64_t seed)
      : inner_(&inner), total_(total), seed_(seed) {}

  std::vector<search::CandidateSpec> generate(std::size_t n) override {
    if (!loaded_) {
      specs_ = inner_->generate(total_);
      std::mt19937_64 rng(seed_);
      for (std::size_t i = specs_.size(); i > 1; --i) {
        std::swap(specs_[i - 1], specs_[rng() % i]);
      }
      loaded_ = true;
    }
    const std::size_t end = std::min(specs_.size(), next_ + n);
    std::vector<search::CandidateSpec> out(specs_.begin() + next_,
                                           specs_.begin() + end);
    next_ = end;
    return out;
  }
  void reset() override { next_ = 0; }

 private:
  search::CandidateSource* inner_;
  std::size_t total_;
  std::uint64_t seed_;
  bool loaded_ = false;
  std::vector<search::CandidateSpec> specs_;
  std::size_t next_ = 0;
};

// ---- process accounting ------------------------------------------------------

double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// User + sys CPU of this process and its reaped children.
double process_cpu_s() {
  return rusage_cpu_s(RUSAGE_SELF) + rusage_cpu_s(RUSAGE_CHILDREN);
}

double median(std::vector<double> values) {
  return funnelbench::sample_quantile(std::move(values), 0.5);
}

/// Peak RSS so far of this process and of the largest child it reaped.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // KiB
}

/// Runs `body` in a forked child and returns what it produced. The caller
/// must be single-threaded (no pool alive), so the child starts clean.
std::string run_in_child(const std::function<std::string()>& body) {
  std::cout.flush();
  std::cerr.flush();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string out;
    try {
      out = body();
    } catch (const std::exception& e) {
      std::cerr << "funnel_bench: " << e.what() << "\n";
      code = 1;
    }
    for (std::size_t done = 0; done < out.size();) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::_Exit(code);
  }
  close(fds[1]);
  std::string result;
  char buffer[4096];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof buffer)) > 0;) {
    result.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("pass process failed");
  }
  return result;
}

// ---- one benchmark run ---------------------------------------------------------

/// One funnel pass: the end-to-end samples plus its check verdict.
struct Pass {
  std::size_t stream = 0;
  std::size_t cycle = 0;  ///< which pass over all streams it belongs to
  bool traced = false;
  bool ok = true;         ///< ran to completion and passed its check
  bool mismatch = false;  ///< completed, but its output failed the check
  std::string error;
  double setup_s = 0.0;
  double funnel_s = 0.0;
  double cpu_s = 0.0;
  /// Peak RSS of the pass's process and its workers up to the ranked
  /// result (the output check that follows is left out).
  double rss_mb = 0.0;
  std::uint64_t entered = 0;
  double gain = 0.0;
  std::vector<std::string> ranking;  ///< RANK lines, best first

  [[nodiscard]] util::JsonValue to_json() const {
    auto p = util::JsonValue::object();
    const auto number = [](auto v) {
      return util::JsonValue::number(static_cast<double>(v));
    };
    p.set("stream", number(stream));
    p.set("cycle", number(cycle));
    p.set("traced", util::JsonValue::boolean(traced));
    p.set("ok", util::JsonValue::boolean(ok));
    p.set("mismatch", util::JsonValue::boolean(mismatch));
    p.set("error", util::JsonValue::string(error));
    p.set("setup_s", number(setup_s));
    p.set("funnel_s", number(funnel_s));
    p.set("cpu_s", number(cpu_s));
    p.set("rss_mb", number(rss_mb));
    p.set("entered", number(entered));
    p.set("gain", number(gain));
    auto lines = util::JsonValue::array();
    for (const auto& line : ranking) {
      lines.push_back(util::JsonValue::string(line));
    }
    p.set("ranking", std::move(lines));
    return p;
  }

  [[nodiscard]] static Pass from_json(const util::JsonValue& p) {
    Pass pass;
    pass.stream = static_cast<std::size_t>(p.get("stream").as_number());
    pass.cycle = static_cast<std::size_t>(p.get("cycle").as_number());
    pass.traced = p.get("traced").as_bool();
    pass.ok = p.get("ok").as_bool();
    pass.mismatch = p.get("mismatch").as_bool();
    pass.error = p.get("error").as_string();
    pass.setup_s = p.get("setup_s").as_number();
    pass.funnel_s = p.get("funnel_s").as_number();
    pass.cpu_s = p.get("cpu_s").as_number();
    pass.rss_mb = p.get("rss_mb").as_number();
    pass.entered = static_cast<std::uint64_t>(p.get("entered").as_number());
    pass.gain = p.get("gain").as_number();
    for (const auto& line : p.get("ranking").items()) {
      pass.ranking.push_back(line.as_string());
    }
    return pass;
  }
};

/// Per-layer quantities summed over the traced passes (extensive ones are
/// reported per pass, intensive ones as ratios of the sums).
struct LayerLedger {
  std::size_t passes = 0;
  std::map<std::string, double> sums;
  HistogramData probe_block;
  HistogramData lookup;
  HistogramData append;
  std::vector<double> windows;
  std::vector<double> lease_s;
  std::vector<double> vm_ns;
  std::vector<double> overhead;

  void add(const std::string& key, double value) { sums[key] += value; }
  [[nodiscard]] double sum(const std::string& key) const {
    const auto it = sums.find(key);
    return it == sums.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double per_pass(const std::string& key) const {
    return passes == 0 ? 0.0 : sum(key) / static_cast<double>(passes);
  }
  [[nodiscard]] double ratio(const std::string& num, const std::string& den,
                             double scale = 1.0) const {
    const double d = sum(den);
    return d > 0.0 ? sum(num) / d * scale : 0.0;
  }

  /// Round trip through a forked pass's output (`overhead` stays with the
  /// parent, which pairs the passes).
  [[nodiscard]] util::JsonValue to_json() const {
    const auto numbers = [](const std::vector<double>& values) {
      auto out = util::JsonValue::array();
      for (double v : values) out.push_back(util::JsonValue::number(v));
      return out;
    };
    auto out = util::JsonValue::object();
    out.set("passes", util::JsonValue::number(static_cast<double>(passes)));
    auto totals = util::JsonValue::array();  // [[key, value], ...]
    for (const auto& [key, value] : sums) {
      auto entry = util::JsonValue::array();
      entry.push_back(util::JsonValue::string(key));
      entry.push_back(util::JsonValue::number(value));
      totals.push_back(std::move(entry));
    }
    out.set("sums", std::move(totals));
    out.set("probe_block", probe_block.to_json());
    out.set("lookup", lookup.to_json());
    out.set("append", append.to_json());
    out.set("windows", numbers(windows));
    out.set("lease_s", numbers(lease_s));
    out.set("vm_ns", numbers(vm_ns));
    return out;
  }
  void merge(const util::JsonValue& json) {
    const auto append_numbers = [](std::vector<double>& to,
                                   const util::JsonValue& from) {
      for (const auto& v : from.items()) to.push_back(v.as_number());
    };
    passes += static_cast<std::size_t>(json.get("passes").as_number());
    for (const auto& entry : json.get("sums").items()) {
      add(entry.at(0).as_string(), entry.at(1).as_number());
    }
    probe_block.merge(HistogramData::of(json.get("probe_block")));
    lookup.merge(HistogramData::of(json.get("lookup")));
    append.merge(HistogramData::of(json.get("append")));
    append_numbers(windows, json.get("windows"));
    append_numbers(lease_s, json.get("lease_s"));
    append_numbers(vm_ns, json.get("vm_ns"));
  }
};

std::vector<std::string> rank_lines(const tools::SearchSetup& setup,
                                    search::CandidateSource& source,
                                    const search::SearchResult& result) {
  std::ostringstream text;
  tools::print_ranking(
      text, result,
      tools::ranked_fingerprints(source, setup.fixed, result,
                                 setup.config.num_candidates));
  std::vector<std::string> lines;
  std::istringstream in(text.str());
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("RANK,", 0) == 0) lines.push_back(line);
  }
  return lines;
}

/// A ranking without candidate ids: "<fingerprint>,<score>" per position.
/// Clones (one fingerprint, one score) tie and are listed by stream
/// position, so their ids depend on the candidate order; the designs do not.
std::vector<std::string> designs(const std::vector<std::string>& ranking) {
  std::vector<std::string> out;
  for (const auto& line : ranking) {
    // RANK,<position>,<id>,<fingerprint>,<score>
    std::size_t comma = 0;
    for (int i = 0; i < 3 && comma != std::string::npos; ++i) {
      comma = line.find(',', comma + (i > 0 ? 1 : 0));
    }
    out.push_back(comma == std::string::npos ? line : line.substr(comma + 1));
  }
  return out;
}

std::size_t distinct_fingerprints(const std::vector<std::string>& ranking) {
  std::set<std::string> fps;
  for (const auto& design : designs(ranking)) {
    fps.insert(design.substr(0, design.find(',')));
  }
  return fps.size();
}

/// Counters the program exports through JobOptions::metrics that the
/// per-layer metrics are built from (summed over driver and workers).
constexpr const char* kProgramCounters[] = {
    "rl.probe_blocks", "nn.matmul.calls",       "nn.matmul.flops",
    "dsl.exec.runs",   "dsl.exec.instructions", "store.lookups",
    "store.lookup_hits", "store.appends"};

/// What the post-pass replay saw of the pass's journal.
struct ReplayCheck {
  std::optional<std::string> error;
  double open_s = 0.0;
  std::size_t records = 0;
};

class Bench {
 public:
  explicit Bench(Args args, Workload workload)
      : args_(std::move(args)),
        workload_(std::move(workload)),
        threads_(std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                         1, 8)),
        dir_(args_.work_dir) {
    for (std::size_t k = 0; k < workload_.streams; ++k) {
      gen_seeds_.push_back(77 + k);
    }
  }

  int run();

 private:
  [[nodiscard]] std::unique_ptr<tools::SearchSetup> make_setup(
      std::size_t stream, std::size_t window) const {
    return tools::make_search_setup(workload_.domain, workload_.search,
                                    workload_.candidates, gen_seeds_[stream],
                                    window);
  }
  /// Everything built before a pass's first stage: domain data,
  /// generators, pool and (single-process workloads) the opened store.
  struct Prepared {
    std::unique_ptr<tools::SearchSetup> setup;
    std::unique_ptr<ShuffledSource> shuffled;  ///< batch workloads only
    std::unique_ptr<util::ThreadPool> pool;
    std::unique_ptr<store::CandidateStore> store;
    std::string journal;
    double open_s = 0.0;
    double setup_s = 0.0;

    [[nodiscard]] search::CandidateSource& input() const {
      return shuffled ? *shuffled : *setup->source;
    }
  };
  [[nodiscard]] Prepared prepare(std::size_t stream, const fs::path& dir) const;
  /// Batch workloads shuffle their stream; streaming workloads keep
  /// generator order, so the program's per-window pulls stay per window.
  [[nodiscard]] std::unique_ptr<ShuffledSource> make_shuffled(
      tools::SearchSetup& setup, std::size_t stream) const {
    if (workload_.window != 0) return nullptr;
    return std::make_unique<ShuffledSource>(
        *setup.source, workload_.candidates,
        args_.seed * 1000003 + gen_seeds_[stream]);
  }
  [[nodiscard]] std::vector<std::string> search_flags(std::size_t stream) const;
  void build_warm_journals();
  Pass run_pass(std::size_t stream, bool traced, const fs::path& dir);
  /// A pass in a forked child, so its peak RSS is its own and it starts
  /// from the same clean process state as every other pass.
  Pass run_isolated_pass(std::size_t stream, bool traced, const fs::path& dir);
  /// One pass of `cycle`; a pass that crashed is run once more (the failed
  /// attempt is recorded too). A check mismatch is final.
  Pass attempt(std::size_t stream, bool traced, std::size_t cycle);
  /// Times `count` set-ups of `stream`, each in a fresh forked child as a
  /// pass sets up, so every sample starts from the same process state.
  void sample_setups(std::size_t stream, std::size_t count);
  [[nodiscard]] fs::path next_dir(const char* kind) {
    return dir_ / (kind + std::to_string(next_dir_++));
  }
  ReplayCheck replay_check(std::size_t stream, const std::string& journal,
                           const std::vector<std::string>& expected) const;
  void record_layers(const Pass& pass, const search::SearchResult& result,
                     const tools::SearchSetup& setup,
                     const funnelbench::TracedDomain& domain,
                     const funnelbench::TimedSource& source,
                     const funnelbench::FunnelObserver& observer,
                     const obs::MetricsRegistry& registry);
  void record_workers(const svc::SupervisorReport& report);
  [[nodiscard]] util::JsonValue end_to_end_metrics() const;
  [[nodiscard]] util::JsonValue layer_metrics() const;
  [[nodiscard]] util::JsonValue detail() const;

  Args args_;
  Workload workload_;
  std::size_t threads_;
  fs::path dir_;
  std::vector<std::uint64_t> gen_seeds_;
  std::vector<std::string> warm_journals_;
  std::vector<std::vector<std::string>> warm_rankings_;
  std::map<std::size_t, double> stream_gain_;  ///< first untraced pass
  std::vector<double> setup_samples_;
  std::vector<Pass> passes_;
  std::size_t next_dir_ = 0;
  LayerLedger ledger_;
};

std::vector<std::string> Bench::search_flags(std::size_t stream) const {
  return {"--domain",     workload_.domain,
          "--search",     workload_.search,
          "--candidates", std::to_string(workload_.candidates),
          "--seed",       std::to_string(kJobSeed),
          "--gen-seed",   std::to_string(gen_seeds_[stream]),
          "--window",     std::to_string(workload_.window),
          "--quiet"};
}

/// abr-state-warm: one cold pass per stream, run as a separate shard_worker
/// process before timing starts so it counts toward no metric (peak RSS
/// included). Its RANK lines are what every warm pass must reproduce.
void Bench::build_warm_journals() {
  for (std::size_t k = 0; k < gen_seeds_.size(); ++k) {
    const fs::path cold = dir_ / ("cold-" + std::to_string(k));
    fs::create_directories(cold);
    const std::string out = (cold / "stdout.txt").string();
    std::vector<std::string> argv{
        "/bin/sh", "-c", "out=$1; shift; exec \"$@\" > \"$out\"", "sh", out,
        FUNNELBENCH_WORKER_BIN, "--mode", "single", "--store-dir",
        cold.string(), "--threads", std::to_string(threads_)};
    for (auto& flag : search_flags(k)) argv.push_back(std::move(flag));
    auto child = svc::ChildProcess::spawn(argv);
    const auto status = child.wait();
    if (!status.ok()) {
      throw std::runtime_error("warm journal build failed: " +
                               status.describe());
    }
    std::vector<std::string> ranking;
    std::string journal;
    std::istringstream in(util::read_file(out));
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("RANK,", 0) == 0) ranking.push_back(line);
      if (line.rfind("journal: ", 0) == 0) journal = line.substr(9);
    }
    if (journal.empty() || !fs::exists(journal)) {
      throw std::runtime_error("warm journal missing: '" + journal + "'");
    }
    warm_journals_.push_back(std::move(journal));
    warm_rankings_.push_back(std::move(ranking));
  }
}

Bench::Prepared Bench::prepare(std::size_t stream, const fs::path& dir) const {
  Prepared out;
  const auto start = Clock::now();
  out.setup = make_setup(stream, workload_.window);
  out.shuffled = make_shuffled(*out.setup, stream);
  out.pool = std::make_unique<util::ThreadPool>(threads_);
  if (workload_.mode != Mode::kSupervised) {
    const auto scope =
        search::store_scope(*out.setup->domain, out.setup->config, kJobSeed);
    out.journal =
        workload_.mode == Mode::kWarm
            ? warm_journals_[stream]
            : (dir / "journal").string() +
                  store::journal_extension(store::store_format_from_env());
    const auto open_start = Clock::now();
    out.store = std::make_unique<store::CandidateStore>(out.journal, scope);
    out.open_s = seconds_since(open_start);
  }
  out.setup_s = seconds_since(start);
  return out;
}

Pass Bench::run_pass(std::size_t stream, bool traced, const fs::path& dir) {
  Pass pass;
  pass.stream = stream;
  pass.traced = traced;
  fs::create_directories(dir);
  std::string journal;
  try {
    Prepared prepared = prepare(stream, dir);
    auto& setup = prepared.setup;
    auto& pool = *prepared.pool;
    auto& store = prepared.store;
    journal = prepared.journal;
    pass.setup_s = prepared.setup_s;

    // ---- readout (traced passes only; built outside the timed window) ----
    funnelbench::TracedDomain traced_domain(*setup->domain);
    funnelbench::TimedSource timed_source(prepared.input());
    funnelbench::FunnelObserver observer(&traced_domain);
    obs::MetricsRegistry registry;
    for (const char* name : {"rl.probe_block.seconds", "store.lookup.seconds",
                             "store.append.seconds"}) {
      static_cast<void>(registry.histogram(name, funnelbench::fine_bounds()));
    }
    const env::TaskDomain& domain =
        traced ? static_cast<const env::TaskDomain&>(traced_domain)
               : *setup->domain;
    search::CandidateSource& source =
        traced ? static_cast<search::CandidateSource&>(timed_source)
               : prepared.input();
    std::vector<search::Observer*> observers;
    if (traced) observers.push_back(&observer);

    // ---- the funnel: first stage to ranked result ----
    search::SearchResult result;
    svc::SupervisorReport report;
    double driver_s = 0.0;
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    if (workload_.mode == Mode::kSupervised) {
      search::ShardRunnerConfig shard_config;
      shard_config.num_shards = 1;
      shard_config.store_dir = dir.string();
      if (traced) shard_config.metrics = &registry;
      search::ShardRunner runner(domain, setup->config, kJobSeed,
                                 shard_config, &pool);
      svc::SupervisorConfig config;
      config.num_workers = threads_;
      config.initial_leases = 2 * threads_;
      config.dir = dir.string();
      config.prefix = runner.service_prefix();
      config.resume = false;
      const auto flags = search_flags(stream);
      svc::Supervisor supervisor(config, [&](const svc::Lease& lease) {
        std::vector<std::string> argv{
            FUNNELBENCH_WORKER_BIN, "--mode", "worker",
            "--journal", lease.journal_path,
            "--range-lo", svc::hex_u64(lease.range.lo),
            "--range-hi", svc::hex_u64(lease.range.hi),
            "--store-dir", dir.string(), "--threads", "0"};
        argv.insert(argv.end(), flags.begin(), flags.end());
        if (traced) {
          argv.push_back("--metrics-out");
          argv.push_back(lease.journal_path + ".metrics.json");
        }
        return argv;
      });
      report = supervisor.run();
      if (!report.success) {
        throw std::runtime_error("supervision failed: " + report.error);
      }
      const auto driver_start = Clock::now();
      result = runner.merge_and_rank_paths(report.journal_paths, source,
                                           setup->fixed, nullptr, observers);
      driver_s = seconds_since(driver_start);
      journal = runner.merged_store_path();
    } else {
      search::JobOptions options;
      options.store = store.get();
      options.pool = &pool;
      if (traced) options.metrics = &registry;
      search::SearchJob job(domain, setup->config, kJobSeed, source,
                            setup->fixed, options);
      for (search::Observer* o : observers) job.add_observer(o);
      result = job.run_to_completion();
    }
    pass.funnel_s = seconds_since(start);
    pass.cpu_s = process_cpu_s() - cpu_start;
    pass.entered = result.n_total;
    pass.gain = result.improvement();
    pass.ranking = rank_lines(*setup, prepared.input(), result);
    pass.rss_mb = peak_rss_mb();

    if (traced) {
      record_layers(pass, result, *setup, traced_domain, timed_source,
                    observer, registry);
      ledger_.add("store.open_s", prepared.open_s);
      if (workload_.mode == Mode::kSupervised) {
        record_workers(report);
        ledger_.add("svc.driver_s", driver_s);
      }
    }
    store.reset();

    // ---- output check: batch replay against the pass's own journal ----
    ReplayCheck check = replay_check(stream, journal, pass.ranking);
    if (workload_.mode == Mode::kWarm &&
        designs(pass.ranking) != designs(warm_rankings_[stream])) {
      check.error = "warm ranking differs from the cold pass that built its "
                    "journal";
    }
    if (workload_.mode == Mode::kWarm &&
        (result.n_probes_run != 0 || result.n_full_trains_run != 0)) {
      check.error = "warm pass executed probes or full trainings";
    }
    if (check.error) {
      pass.ok = false;
      pass.mismatch = true;
      pass.error = *check.error;
    }
    if (traced) {
      ledger_.add("store.bytes", static_cast<double>(fs::file_size(journal)));
      ledger_.add("store.records", static_cast<double>(check.records));
      if (workload_.mode == Mode::kSupervised) {
        ledger_.add("store.open_s", check.open_s);
      }
    }
  } catch (const std::exception& e) {
    pass.ok = false;
    pass.error = e.what();
  }
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return pass;
}

ReplayCheck Bench::replay_check(std::size_t stream, const std::string& journal,
                                const std::vector<std::string>& expected) const {
  ReplayCheck check;
  auto setup = make_setup(stream, /*window=*/0);
  const auto shuffled = make_shuffled(*setup, stream);
  search::CandidateSource& input = shuffled ? *shuffled : *setup->source;
  util::ThreadPool pool(threads_);
  const auto scope =
      search::store_scope(*setup->domain, setup->config, kJobSeed);
  const auto open_start = Clock::now();
  store::CandidateStore store(journal, scope);
  check.open_s = seconds_since(open_start);
  check.records = store.size();
  search::JobOptions options;
  options.store = &store;
  options.pool = &pool;
  search::SearchJob job(*setup->domain, setup->config, kJobSeed, input,
                        setup->fixed, options);
  const auto result = job.run_to_completion();
  if (result.n_probes_run != 0 || result.n_full_trains_run != 0) {
    check.error = "replay executed " + std::to_string(result.n_probes_run) +
                  " probes and " + std::to_string(result.n_full_trains_run) +
                  " full trainings";
  } else if (rank_lines(*setup, input, result) != expected) {
    check.error = "replay ranking differs from the pass";
  } else if (expected.empty()) {
    check.error = "pass ranked no design";
  }
  return check;
}

void Bench::record_layers(const Pass& pass, const search::SearchResult& result,
                          const tools::SearchSetup& setup,
                          const funnelbench::TracedDomain& domain,
                          const funnelbench::TimedSource& source,
                          const funnelbench::FunnelObserver& observer,
                          const obs::MetricsRegistry& registry) {
  using search::StageKind;
  auto& l = ledger_;
  ++l.passes;
  l.add("wall_s", pass.funnel_s);
  l.add("cpu_s", pass.cpu_s);
  for (const auto& [stage, key] :
       {std::pair{StageKind::kGenerate, "search.generate_s"},
        std::pair{StageKind::kPrecheck, "search.precheck_s"},
        std::pair{StageKind::kProbe, "search.probe_s"},
        std::pair{StageKind::kBaseline, "search.baseline_s"},
        std::pair{StageKind::kFullTrain, "search.full_train_s"}}) {
    l.add(key, observer.stage_s(stage));
  }
  for (double w : observer.window_s()) l.windows.push_back(w);
  l.add("search.unaccounted", static_cast<double>(observer.unaccounted()));
  l.add("search.distinct_top",
        static_cast<double>(distinct_fingerprints(pass.ranking)));

  const auto snapshot = registry.snapshot();
  const auto& counters = snapshot.get("counters");
  for (const char* name : kProgramCounters) {
    l.add(name, counters.get(name).as_number());
  }
  const auto& histograms = snapshot.get("histograms");
  const auto block = HistogramData::of(histograms.get("rl.probe_block.seconds"));
  l.add("rl.probe_block_thread_s", block.sum);
  l.probe_block.merge(block);
  l.lookup.merge(HistogramData::of(histograms.get("store.lookup.seconds")));
  l.append.merge(HistogramData::of(histograms.get("store.append.seconds")));
  l.add("gen.fingerprint_s",
        histograms.get("search.generate.fingerprint_seconds").get("sum")
            .as_number());
  l.add("gen.pull_s", source.pull_s());
  l.add("gen.pulled", static_cast<double>(source.pulled()));
  l.add("full_train_sessions",
        static_cast<double>(result.n_full_trains_run * setup.config.seeds));
  l.add("n_total", static_cast<double>(result.n_total));
  l.add("n_compiled", static_cast<double>(result.n_compiled));
  l.add("n_normalized", static_cast<double>(result.n_normalized));
  l.add("n_early_stopped", static_cast<double>(result.n_early_stopped));

  const auto env = domain.totals();
  l.add("env.steps", static_cast<double>(env.steps));
  l.add("env.resets", static_cast<double>(env.resets));
  l.add("env.step_s", env.step_s);
  l.add("env.reset_s", env.reset_s);
  l.add("env.probe_s", env.stage_s[static_cast<std::size_t>(StageKind::kProbe)]);

  std::vector<std::string> programs = source.program_samples();
  programs.push_back(domain.baseline_state_source());
  const double ns = funnelbench::vm_ns_per_run(programs, domain.catalog(),
                                               env.samples);
  if (ns > 0.0) l.vm_ns.push_back(ns);
}

/// Supervised traced passes: the workers' own metrics snapshots (stage
/// spans, probe blocks, kernels, VM, store) and the lease log.
void Bench::record_workers(const svc::SupervisorReport& report) {
  auto& l = ledger_;
  for (const auto& journal : report.journal_paths) {
    const std::string path = journal + ".metrics.json";
    if (!fs::exists(path)) continue;
    const auto snapshot = util::JsonValue::parse(util::read_file(path));
    const auto& counters = snapshot.get("counters");
    for (const char* name : kProgramCounters) {
      l.add(name, counters.get(name).as_number());
    }
    l.add("gen.pulled", counters.get("search.candidates.entered").as_number());
    const auto& histograms = snapshot.get("histograms");
    // Workers export the default 1-3-10 buckets: probe blocks run only in
    // workers here, so their quantiles are that coarse; store latency
    // quantiles stay driver-only (fine buckets).
    const auto block =
        HistogramData::of(histograms.get("rl.probe_block.seconds"));
    l.add("rl.probe_block_thread_s", block.sum);
    l.probe_block.merge(block);
    l.add("gen.pull_s",
          histograms.get("search.generate.pull_seconds").get("sum").as_number());
    l.add("gen.fingerprint_s",
          histograms.get("search.generate.fingerprint_seconds").get("sum")
              .as_number());
    for (const auto& [label, key] :
         {std::pair{"generate", "search.generate_s"},
          std::pair{"precheck", "search.precheck_s"},
          std::pair{"probe", "search.probe_s"}}) {
      l.add(key, histograms.get(std::string("search.stage.") + label +
                                ".seconds")
                     .get("sum")
                     .as_number());
    }
  }

  // Lease spans (last spawn to completion) and the idle tail: slot-seconds
  // between each worker's final completion after the queue drained and the
  // last completion.
  std::map<std::uint64_t, double> spawned;
  std::vector<double> completions;
  double last_spawn = 0.0;
  for (const auto& event : svc::LeaseLog::read_events(report.event_log_path)) {
    const std::string& type = event.get("event").as_string();
    const auto lease = static_cast<std::uint64_t>(event.get("lease").as_number());
    const double ts = event.get("ts_unix").as_number();
    if (type == "spawn") {
      spawned[lease] = ts;
      last_spawn = std::max(last_spawn, ts);
    } else if (type == "complete" && spawned.count(lease) != 0) {
      l.lease_s.push_back(ts - spawned[lease]);
      completions.push_back(ts);
    }
  }
  const double end = completions.empty()
                         ? 0.0
                         : *std::max_element(completions.begin(),
                                             completions.end());
  double tail = 0.0;
  for (double c : completions) {
    if (c >= last_spawn) tail += end - c;
  }
  l.add("svc.tail_idle_s", tail);
  l.add("svc.spawned", static_cast<double>(report.spawned));
  l.add("svc.restarts",
        static_cast<double>(report.crash_restarts + report.stale_kills));
}

util::JsonValue metric(double value, const char* unit) {
  auto m = util::JsonValue::object();
  m.set("value", util::JsonValue::number(value));
  m.set("unit", util::JsonValue::string(unit));
  return m;
}

/// Throughput is taken per cycle (one pass over every stream, so every
/// cycle does the same work) and reported as the median over the run's
/// complete, passing cycles. Memory is each pass's own peak, median over
/// the passes: in streaming mode a pass's peak depends on which candidates
/// share a window, so the max over passes would follow the candidate order.
util::JsonValue Bench::end_to_end_metrics() const {
  std::map<std::size_t, std::vector<const Pass*>> cycles;
  std::vector<const Pass*> untraced;
  for (const auto& pass : passes_) {
    if (pass.traced) continue;
    untraced.push_back(&pass);
    if (pass.ok) cycles[pass.cycle].push_back(&pass);
  }
  std::vector<double> rate;
  std::vector<double> cpu;
  for (const auto& [cycle, members] : cycles) {
    if (members.size() != gen_seeds_.size()) continue;  // incomplete
    double entered = 0.0;
    double wall = 0.0;
    double cpu_s = 0.0;
    for (const Pass* pass : members) {
      entered += static_cast<double>(pass->entered);
      wall += pass->funnel_s;
      cpu_s += pass->cpu_s;
    }
    rate.push_back(entered / wall);
    cpu.push_back(cpu_s * 1e3 / entered);
  }
  std::vector<double> rss;
  for (const Pass* pass : untraced) {
    if (pass->ok) rss.push_back(pass->rss_mb);
  }
  std::vector<double> setup = setup_samples_;
  for (const Pass* pass : untraced) {
    if (pass->ok) setup.push_back(pass->setup_s);
  }
  auto out = util::JsonValue::object();
  out.set("cand_per_s", metric(median(rate), "cand/s"));
  out.set("cpu_ms_per_cand", metric(median(cpu), "ms"));
  out.set("setup_s", metric(median(setup), "s"));
  out.set("peak_rss_mb", metric(median(rss), "MB"));
  std::vector<double> gains;
  for (const auto& [stream, gain] : stream_gain_) gains.push_back(gain);
  out.set("best_gain", metric(median(gains), "ratio"));
  return out;
}

util::JsonValue Bench::layer_metrics() const {
  const auto& l = ledger_;
  auto out = util::JsonValue::object();
  auto put = [&](const char* name, double value, const char* unit) {
    out.set(name, metric(value, unit));
  };
  const auto tail = [](const HistogramData& h) {
    return h.quantile(funnelbench::tail_quantile(h.total()));
  };
  const bool supervised = workload_.mode == Mode::kSupervised;

  put("search.generate_s", l.per_pass("search.generate_s"), "s");
  put("search.precheck_s", l.per_pass("search.precheck_s"), "s");
  put("search.probe_s", l.per_pass("search.probe_s"), "s");
  put("search.baseline_s", l.per_pass("search.baseline_s"), "s");
  put("search.full_train_s", l.per_pass("search.full_train_s"), "s");
  put("search.window_s.p50", funnelbench::sample_quantile(l.windows, 0.5), "s");
  put("search.window_s.max", funnelbench::sample_quantile(l.windows, 1.0), "s");
  put("search.unaccounted", l.per_pass("search.unaccounted"), "count");
  put("search.distinct_top", l.per_pass("search.distinct_top"), "count");

  put("rl.probe_blocks", l.per_pass("rl.probe_blocks"), "count");
  put("rl.probe_block_s.p50", l.probe_block.quantile(0.5), "s");
  put("rl.probe_block_s.tail", tail(l.probe_block), "s");
  put("rl.probe_self_thread_s",
      l.per_pass("rl.probe_block_thread_s") - l.per_pass("env.probe_s"), "s");
  put("rl.full_train_s_per_session",
      l.ratio("search.full_train_s", "full_train_sessions"), "s");
  put("nn.matmul.calls", l.per_pass("nn.matmul.calls"), "count");
  put("nn.matmul.gflop", l.per_pass("nn.matmul.flops") * 1e-9, "GFLOP");
  put("nn.gflop_per_thread_s",
      l.ratio("nn.matmul.flops", "rl.probe_block_thread_s", 1e-9), "GFLOP/s");
  put("dsl.exec.runs", l.per_pass("dsl.exec.runs"), "count");
  put("dsl.exec.instructions", l.per_pass("dsl.exec.instructions"), "count");
  put("dsl.vm_ns_per_run", median(l.vm_ns), "ns");

  put("env.steps", l.per_pass("env.steps"), "count");
  put("env.step_ns", l.ratio("env.step_s", "env.steps", 1e9), "ns");
  put("env.reset_ns", l.ratio("env.reset_s", "env.resets", 1e9), "ns");
  put("env.step_share", l.ratio("env.step_s", "cpu_s"), "ratio");

  put("gen.pull_us_per_cand", l.ratio("gen.pull_s", "gen.pulled", 1e6), "us");
  put("gen.fingerprint_us_per_cand",
      l.ratio("gen.fingerprint_s", "gen.pulled", 1e6), "us");
  put("filter.precheck_us_per_cand",
      l.ratio("search.precheck_s", "gen.pulled", 1e6), "us");
  put("filter.compile_pass_ratio", l.ratio("n_compiled", "n_total"), "ratio");
  put("filter.normalize_pass_ratio", l.ratio("n_normalized", "n_compiled"),
      "ratio");
  put("filter.early_stop_ratio", l.ratio("n_early_stopped", "n_normalized"),
      "ratio");

  put("store.open_s", l.per_pass("store.open_s"), "s");
  put("store.lookups", l.per_pass("store.lookups"), "count");
  put("store.lookup_hit_ratio", l.ratio("store.lookup_hits", "store.lookups"),
      "ratio");
  put("store.lookup_us.p50", l.lookup.quantile(0.5) * 1e6, "us");
  put("store.lookup_us.tail", tail(l.lookup) * 1e6, "us");
  put("store.appends", l.per_pass("store.appends"), "count");
  put("store.append_us.p50", l.append.quantile(0.5) * 1e6, "us");
  put("store.append_us.tail", tail(l.append) * 1e6, "us");
  put("store.bytes_per_record", l.ratio("store.bytes", "store.records"),
      "B/record");

  put("pool.utilization",
      l.ratio("cpu_s", "wall_s") / static_cast<double>(threads_), "ratio");
  put("svc.spawned", l.per_pass("svc.spawned"), "count");
  put("svc.restarts", l.per_pass("svc.restarts"), "count");
  put("svc.lease_s.p50", funnelbench::sample_quantile(l.lease_s, 0.5), "s");
  put("svc.lease_s.max", funnelbench::sample_quantile(l.lease_s, 1.0), "s");
  put("svc.tail_idle_s", l.per_pass("svc.tail_idle_s"), "s");
  put("svc.driver_s", supervised ? l.per_pass("svc.driver_s") : 0.0, "s");

  put("trace.overhead_ratio", median(l.overhead), "ratio");
  return out;
}

util::JsonValue Bench::detail() const {
  auto out = util::JsonValue::object();
  out.set("workload", util::JsonValue::string(workload_.name));
  out.set("candidates",
          util::JsonValue::number(static_cast<double>(workload_.candidates)));
  out.set("window",
          util::JsonValue::number(static_cast<double>(workload_.window)));
  out.set("nproc", util::JsonValue::number(
                       static_cast<double>(std::thread::hardware_concurrency())));
  out.set("threads", util::JsonValue::number(static_cast<double>(threads_)));
  out.set("compiler", util::JsonValue::string(FUNNELBENCH_COMPILER));
  out.set("build_type", util::JsonValue::string(FUNNELBENCH_BUILD_TYPE));
  out.set("nn_kernel",
          util::JsonValue::string(nn::kernel_flavor_name(nn::kernel_flavor())));
  out.set("store_format",
          util::JsonValue::string(store::store_format_from_env() ==
                                          store::StoreFormat::kBinary
                                      ? "binary"
                                      : "jsonl"));
  out.set("dsl_engine", util::JsonValue::string(
                            dsl::exec_mode() == dsl::ExecMode::kVm ? "vm"
                                                                   : "tree"));
  out.set("seed", util::JsonValue::number(static_cast<double>(args_.seed)));
  out.set("job_seed", util::JsonValue::number(static_cast<double>(kJobSeed)));
  auto seeds = util::JsonValue::array();
  for (auto s : gen_seeds_) {
    seeds.push_back(util::JsonValue::number(static_cast<double>(s)));
  }
  out.set("gen_seeds", std::move(seeds));
  auto passes = util::JsonValue::array();
  for (const auto& pass : passes_) passes.push_back(pass.to_json());
  out.set("passes", std::move(passes));
  auto samples = util::JsonValue::object();
  samples.set("rl.probe_blocks", util::JsonValue::number(static_cast<double>(
                                     ledger_.probe_block.total())));
  samples.set("store.lookups", util::JsonValue::number(
                                   static_cast<double>(ledger_.lookup.total())));
  samples.set("store.appends", util::JsonValue::number(
                                   static_cast<double>(ledger_.append.total())));
  samples.set("search.windows", util::JsonValue::number(
                                    static_cast<double>(ledger_.windows.size())));
  samples.set("svc.leases", util::JsonValue::number(
                                static_cast<double>(ledger_.lease_s.size())));
  out.set("layer_samples", std::move(samples));
  return out;
}

Pass Bench::run_isolated_pass(std::size_t stream, bool traced,
                              const fs::path& dir) {
  try {
    const auto doc = util::JsonValue::parse(run_in_child([&] {
      ledger_ = LayerLedger{};  // the child reports this pass's share only
      auto out = util::JsonValue::object();
      out.set("pass", run_pass(stream, traced, dir).to_json());
      out.set("ledger", ledger_.to_json());
      return out.dump();
    }));
    Pass pass = Pass::from_json(doc.get("pass"));
    if (traced && pass.ok) ledger_.merge(doc.get("ledger"));
    return pass;
  } catch (const std::exception& e) {
    Pass pass;
    pass.stream = stream;
    pass.traced = traced;
    pass.ok = false;
    pass.error = e.what();
    return pass;
  }
}

void Bench::sample_setups(std::size_t stream, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const fs::path dir = next_dir("setup-");
    setup_samples_.push_back(std::stod(run_in_child([&] {
      fs::create_directories(dir);
      std::ostringstream text;
      text.precision(17);
      text << prepare(stream, dir).setup_s;
      fs::remove_all(dir);
      return text.str();
    })));
  }
}

Pass Bench::attempt(std::size_t stream, bool traced, std::size_t cycle) {
  Pass pass = run_isolated_pass(stream, traced, next_dir("pass-"));
  pass.cycle = cycle;
  if (!pass.ok && !pass.mismatch) {
    passes_.push_back(std::move(pass));
    pass = run_isolated_pass(stream, traced, next_dir("pass-"));
    pass.cycle = cycle;
  }
  return pass;
}

int Bench::run() {
  fs::create_directories(dir_);
  if (workload_.mode == Mode::kWarm) build_warm_journals();
  // Set-up is short next to a pass, so it is also timed on its own:
  // kSetupSamples extra set-ups, spread over the first cycle so that they
  // meet the host as its passes do, not in one burst. The reported setup_s
  // is the median over these and every untraced pass's set-up.
  constexpr std::size_t kSetupSamples = 12;
  const std::size_t k = gen_seeds_.size();
  const std::size_t setups_per_pass = (kSetupSamples + k - 1) / k;

  // Hard stop well inside the harness's per-run limit, whatever --seconds.
  constexpr double kMaxLoopSeconds = 120.0;
  const auto loop_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t stream = i % k;
    if (!args_.trace && i < k) sample_setups(stream, setups_per_pass);
    Pass plain = attempt(stream, /*traced=*/false, i / k);
    if (plain.ok && stream_gain_.count(stream) == 0) {
      stream_gain_[stream] = plain.gain;
    }
    if (args_.trace) {
      Pass traced = attempt(stream, /*traced=*/true, i / k);
      if (traced.ok && plain.ok) {
        if (traced.ranking != plain.ranking) {
          traced.ok = false;
          traced.mismatch = true;
          traced.error = "traced ranking differs from the untraced pass";
        } else {
          ledger_.overhead.push_back(traced.funnel_s / plain.funnel_s);
        }
      }
      passes_.push_back(std::move(plain));
      passes_.push_back(std::move(traced));
    } else {
      passes_.push_back(std::move(plain));
    }
    const auto& last = passes_.back();
    std::cerr << "funnel_bench: pass " << passes_.size() << " stream "
              << last.stream << (last.ok ? " ok" : " FAILED: " + last.error)
              << " (" << last.funnel_s << " s)\n";
    const double elapsed = seconds_since(loop_start);
    if (elapsed >= kMaxLoopSeconds) break;
    // Untraced runs end on a whole cycle, so every run of a workload does
    // the same work; traced runs need one pair only (their per-layer
    // numbers carry no bound).
    const bool cycle_done = (i + 1) % k == 0;
    if ((args_.trace || cycle_done) && elapsed >= args_.seconds) break;
  }

  // `failed` counts crashes and check mismatches; `correct` says every
  // output that was produced passed its check, and every stream produced one.
  std::size_t failed = 0;
  bool mismatch = false;
  for (const auto& pass : passes_) {
    failed += pass.ok ? 0 : 1;
    mismatch |= pass.mismatch;
  }
  auto result = util::JsonValue::object();
  const bool covered = args_.trace ? !stream_gain_.empty()
                                    : stream_gain_.size() == gen_seeds_.size();
  result.set("correct", util::JsonValue::boolean(!mismatch && covered));
  result.set("attempted",
             util::JsonValue::number(static_cast<double>(passes_.size())));
  result.set("failed", util::JsonValue::number(static_cast<double>(failed)));
  result.set("metrics", args_.trace ? layer_metrics() : end_to_end_metrics());
  std::cout << "FUNNELBENCH_DETAIL " << detail().dump() << "\n"
            << "FUNNELBENCH_RESULT " << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark measures the program's defaults. A stray NADA_* override
  // (kernel flavor, store format, DSL engine, scale) would silently compare
  // two different programs.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::string(*env).rfind("NADA_", 0) == 0) {
      std::cerr << "funnel_bench: refusing to run with "
                << std::string(*env).substr(0, std::string(*env).find('='))
                << " set; unset every NADA_* variable\n";
      return 2;
    }
  }
  const Args args = parse_args(argc, argv);
  const auto workload = find_workload(args.workload, args.tiny);
  if (!workload) usage("unknown workload " + args.workload);
  try {
    Bench bench(args, *workload);
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "funnel_bench: " << e.what() << "\n";
    return 1;
  }
}
