#include "layers.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "dsl/state_program.h"

namespace funnelbench {
namespace {

using namespace nada;

/// Observation sampling for the DSL VM replay: rare enough that copying a
/// binding map costs nothing measurable, plenty for a stable ns/run.
constexpr std::uint64_t kSampleEvery = 251;
constexpr std::size_t kMaxSamples = 64;
/// State-program sources kept by TimedSource (every kProgramEvery-th).
constexpr std::uint64_t kProgramEvery = 37;
constexpr std::size_t kMaxPrograms = 24;

std::atomic<std::uint64_t> next_generation{1};

class TracedEpisode final : public env::Episode {
 public:
  TracedEpisode(const TracedDomain& domain, std::unique_ptr<env::Episode> inner)
      : domain_(&domain), inner_(std::move(inner)) {}

  dsl::Bindings reset() override {
    EnvTally& tally = domain_->local();
    const auto start = Clock::now();
    dsl::Bindings observation = inner_->reset();
    const double s = seconds_since(start);
    ++tally.resets;
    tally.reset_s += s;
    tally.stage_s[domain_->stage_index()] += s;
    return observation;
  }

  env::DomainStep step(std::size_t action) override {
    EnvTally& tally = domain_->local();
    const auto start = Clock::now();
    env::DomainStep out = inner_->step(action);
    const double s = seconds_since(start);
    ++tally.steps;
    tally.step_s += s;
    tally.stage_s[domain_->stage_index()] += s;
    if (tally.steps % kSampleEvery == 0 && tally.samples.size() < kMaxSamples) {
      tally.samples.push_back(out.observation);
    }
    return out;
  }

  bool done() const override { return inner_->done(); }

 private:
  const TracedDomain* domain_;
  std::unique_ptr<env::Episode> inner_;
};

}  // namespace

// ---- histograms -------------------------------------------------------------

std::span<const double> fine_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> out;
    for (double b = 1e-7; b <= 1e3; b *= 1.02) out.push_back(b);
    return out;
  }();
  return bounds;
}

std::uint64_t HistogramData::total() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return n;
}

void HistogramData::merge(const HistogramData& other) {
  if (bounds.empty()) bounds = other.bounds;
  counts.resize(bounds.size() + 1, 0);
  for (std::size_t j = 0; j < other.counts.size(); ++j) {
    if (other.counts[j] == 0) continue;
    const double value = j < other.bounds.size()
                             ? other.bounds[j]
                             : std::numeric_limits<double>::infinity();
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
    counts[static_cast<std::size_t>(it - bounds.begin())] += other.counts[j];
  }
  sum += other.sum;
}

double HistogramData::quantile(double q) const {
  const std::uint64_t n = total();
  if (n == 0 || bounds.empty()) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    seen += counts[j];
    if (seen >= rank) return j < bounds.size() ? bounds[j] : bounds.back();
  }
  return bounds.back();
}

HistogramData HistogramData::of(const obs::Histogram& h) {
  return HistogramData{h.bounds(), h.bucket_counts(), h.sum()};
}

HistogramData HistogramData::of(const util::JsonValue& json) {
  HistogramData out;
  for (const auto& bucket : json.get("buckets").items()) {
    const auto& le = bucket.get("le");
    if (le.type() == util::JsonValue::Type::kNumber) {
      out.bounds.push_back(le.as_number());
    }
    out.counts.push_back(
        static_cast<std::uint64_t>(bucket.get("count").as_number()));
  }
  out.sum = json.get("sum").as_number();
  return out;
}

util::JsonValue HistogramData::to_json() const {
  auto buckets = util::JsonValue::array();
  for (std::size_t j = 0; j < counts.size(); ++j) {
    auto bucket = util::JsonValue::object();
    bucket.set("le", j < bounds.size() ? util::JsonValue::number(bounds[j])
                                       : util::JsonValue::string("inf"));
    bucket.set("count", util::JsonValue::number(static_cast<double>(counts[j])));
    buckets.push_back(std::move(bucket));
  }
  auto out = util::JsonValue::object();
  out.set("buckets", std::move(buckets));
  out.set("sum", util::JsonValue::number(sum));
  return out;
}

double tail_quantile(std::uint64_t samples) {
  for (const double p : {0.9999, 0.999, 0.99, 0.9}) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) return p;
  }
  return 0.5;
}

double sample_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// ---- env layer ----------------------------------------------------------------

TracedDomain::TracedDomain(const env::TaskDomain& inner)
    : inner_(&inner), generation_(next_generation.fetch_add(1)) {}

std::unique_ptr<env::Episode> TracedDomain::wrap(
    std::unique_ptr<env::Episode> inner) const {
  return std::make_unique<TracedEpisode>(*this, std::move(inner));
}

std::unique_ptr<env::Episode> TracedDomain::start_train_episode(
    env::Fidelity fidelity, util::Rng& rng) const {
  return wrap(inner_->start_train_episode(fidelity, rng));
}

std::unique_ptr<env::Episode> TracedDomain::start_eval_episode(
    std::size_t unit, env::Fidelity fidelity, util::Rng& rng) const {
  return wrap(inner_->start_eval_episode(unit, fidelity, rng));
}

EnvTally& TracedDomain::local() const {
  struct Cache {
    std::uint64_t generation = 0;
    EnvTally* tally = nullptr;
  };
  thread_local Cache cache;
  if (cache.generation != generation_) {
    std::lock_guard lock(tallies_mutex_);
    tallies_.push_back(std::make_unique<EnvTally>());
    cache = Cache{generation_, tallies_.back().get()};
  }
  return *cache.tally;
}

EnvTally TracedDomain::totals() const {
  std::lock_guard lock(tallies_mutex_);
  EnvTally out;
  for (const auto& tally : tallies_) {
    out.steps += tally->steps;
    out.resets += tally->resets;
    out.step_s += tally->step_s;
    out.reset_s += tally->reset_s;
    for (std::size_t s = 0; s < kStages; ++s) out.stage_s[s] += tally->stage_s[s];
    out.samples.insert(out.samples.end(), tally->samples.begin(),
                       tally->samples.end());
  }
  return out;
}

// ---- gen layer ------------------------------------------------------------------

std::vector<search::CandidateSpec> TimedSource::generate(std::size_t n) {
  const auto start = Clock::now();
  std::vector<search::CandidateSpec> specs = inner_->generate(n);
  pull_s_ += seconds_since(start);
  for (const auto& spec : specs) {
    if (spec.kind == search::CandidateKind::kStateProgram &&
        pulled_ % kProgramEvery == 0 &&
        program_samples_.size() < kMaxPrograms) {
      program_samples_.push_back(spec.source);
    }
    ++pulled_;
  }
  return specs;
}

// ---- search layer -------------------------------------------------------------

void FunnelObserver::on_stage_start(search::StageKind stage) {
  if (domain_ != nullptr) domain_->set_stage(stage);
  std::lock_guard lock(mutex_);
  if (stage == search::StageKind::kGenerate && !batch_window_open_) {
    batch_window_open_ = true;
    batch_window_start_ = Clock::now();
  }
}

void FunnelObserver::on_stage_finish(const search::StageEvent& event) {
  std::lock_guard lock(mutex_);
  stage_s_[static_cast<std::size_t>(event.stage)] += event.seconds;
  if (event.stage == search::StageKind::kProbe && batch_window_open_) {
    batch_windows_.push_back(seconds_since(batch_window_start_));
    batch_window_open_ = false;
  }
}

void FunnelObserver::on_candidate(const search::CandidateEvent& event) {
  std::lock_guard lock(mutex_);
  switch (event.type) {
    case search::CandidateEventType::kEntered:
      ++entered_;
      return;
    case search::CandidateEventType::kFailed:
    case search::CandidateEventType::kOutOfShard:
    case search::CandidateEventType::kCacheHit:
    case search::CandidateEventType::kProbed:
      if (event.index >= accounted_.size()) accounted_.resize(event.index + 1);
      accounted_[event.index] = true;
      return;
    case search::CandidateEventType::kEarlyStopped:
    case search::CandidateEventType::kTrained:
      return;
  }
}

void FunnelObserver::on_window_finish(const search::WindowEvent& event) {
  std::lock_guard lock(mutex_);
  windows_.push_back(event.seconds);
}

std::vector<double> FunnelObserver::window_s() const {
  std::lock_guard lock(mutex_);
  return windows_.empty() ? batch_windows_ : windows_;
}

std::uint64_t FunnelObserver::unaccounted() const {
  std::lock_guard lock(mutex_);
  const auto accounted = static_cast<std::uint64_t>(
      std::count(accounted_.begin(), accounted_.end(), true));
  return entered_ > accounted ? entered_ - accounted : 0;
}

// ---- dsl layer ------------------------------------------------------------------

double vm_ns_per_run(const std::vector<std::string>& sources,
                     const dsl::BindingCatalog& catalog,
                     const std::vector<dsl::Bindings>& observations) {
  if (observations.empty()) return 0.0;
  std::vector<dsl::StateProgram> programs;
  for (const auto& source : sources) {
    try {
      auto program = dsl::StateProgram::compile(source, &catalog);
      for (const auto& observation : observations) {
        static_cast<void>(program.run(observation));
      }
      programs.push_back(std::move(program));
    } catch (const std::exception&) {
      // Fails on these observations: not a program the funnel would train.
    }
  }
  if (programs.empty()) return 0.0;
  std::uint64_t runs = 0;
  std::size_t sink = 0;
  const auto start = Clock::now();
  do {
    for (const auto& program : programs) {
      for (const auto& observation : observations) {
        sink += program.run(observation).rows.size();
        ++runs;
      }
    }
  } while (seconds_since(start) < 0.02);
  const double elapsed = seconds_since(start);
  return sink == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(runs);
}

}  // namespace funnelbench
