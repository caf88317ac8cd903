#include "gen/arch_gen.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/scale.h"
#include "util/strings.h"

namespace nada::gen {
namespace {

constexpr std::size_t kWidths[] = {32, 64, 96, 128, 192, 256};
constexpr std::size_t kKernels[] = {2, 3, 4, 5, 6};
constexpr nn::Activation kActivations[] = {
    nn::Activation::kRelu, nn::Activation::kLeakyRelu, nn::Activation::kTanh,
    nn::Activation::kElu};
constexpr nn::TemporalUnit kUnits[] = {
    nn::TemporalUnit::kConv1D, nn::TemporalUnit::kRnn, nn::TemporalUnit::kLstm,
    nn::TemporalUnit::kDense};

template <typename T, std::size_t N>
const T& pick(util::Rng& rng, const T (&table)[N]) {
  return table[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(N) - 1))];
}

}  // namespace

ArchGenerator::ArchGenerator(const LlmProfile& profile,
                             const PromptStrategy& strategy,
                             std::uint64_t seed, double width_scale)
    : profile_(profile.with_strategy(strategy)), seed_(seed), rng_(seed),
      width_scale_(width_scale) {
  if (width_scale_ <= 0.0 || width_scale_ > 1.0) {
    throw std::invalid_argument("ArchGenerator: width_scale outside (0, 1]");
  }
  id_prefix_ = util::to_lower(profile_.name);
  std::erase_if(id_prefix_, [](char c) { return c == '.' || c == ' '; });
}

void ArchGenerator::reset() {
  rng_.reseed(seed_);
  counter_ = 0;
}

std::size_t ArchGenerator::scaled_width(std::size_t w) const {
  return util::scaled_width(w, width_scale_);
}

nn::ArchSpec ArchGenerator::sample_valid_spec() {
  nn::ArchSpec spec = nn::ArchSpec::pensieve();
  spec.conv_filters = scaled_width(spec.conv_filters);
  spec.rnn_hidden = scaled_width(spec.rnn_hidden);
  spec.scalar_hidden = scaled_width(spec.scalar_hidden);
  spec.merge_hidden = scaled_width(spec.merge_hidden);
  const double mutate = 0.3 + 0.5 * profile_.creativity;

  if (rng_.bernoulli(mutate)) spec.temporal = pick(rng_, kUnits);
  if (rng_.bernoulli(mutate)) spec.activation = pick(rng_, kActivations);
  if (rng_.bernoulli(mutate * 0.8)) {
    spec.merge_hidden = scaled_width(pick(rng_, kWidths));
  }
  if (rng_.bernoulli(mutate * 0.6)) {
    spec.scalar_hidden = scaled_width(pick(rng_, kWidths));
  }
  if (rng_.bernoulli(mutate * 0.5)) {
    spec.merge_layers = static_cast<std::size_t>(rng_.uniform_int(1, 3));
  }
  if (rng_.bernoulli(mutate * 0.4)) spec.shared_trunk = true;
  switch (spec.temporal) {
    case nn::TemporalUnit::kConv1D:
      if (rng_.bernoulli(mutate * 0.7)) {
        spec.conv_filters = scaled_width(pick(rng_, kWidths));
      }
      if (rng_.bernoulli(mutate * 0.5)) spec.conv_kernel = pick(rng_, kKernels);
      break;
    case nn::TemporalUnit::kRnn:
    case nn::TemporalUnit::kLstm:
      if (rng_.bernoulli(mutate * 0.7)) {
        spec.rnn_hidden = scaled_width(pick(rng_, kWidths));
      }
      break;
    case nn::TemporalUnit::kDense:
      break;
  }
  return spec;
}

void ArchGenerator::make_invalid(nn::ArchSpec& spec) {
  // The flavours of broken architecture code the paper's compilation check
  // rejects: dimension mismatches, degenerate widths, runaway depth/width.
  switch (rng_.uniform_int(0, 4)) {
    case 0:  // kernel longer than the shortest history row
      spec.temporal = nn::TemporalUnit::kConv1D;
      spec.conv_kernel =
          static_cast<std::size_t>(rng_.uniform_int(7, 16));
      break;
    case 1:  // zero-width layer
      if (rng_.bernoulli(0.5)) {
        spec.merge_hidden = 0;
      } else {
        spec.temporal = nn::TemporalUnit::kConv1D;
        spec.conv_filters = 0;
      }
      break;
    case 2:  // absurd width (exceeds instantiation cap)
      spec.merge_hidden =
          static_cast<std::size_t>(rng_.uniform_int(2048, 1 << 16));
      break;
    case 3:  // runaway merge depth
      spec.merge_layers = static_cast<std::size_t>(rng_.uniform_int(4, 12));
      break;
    default:  // zero-width recurrent state
      spec.temporal = rng_.bernoulli(0.5) ? nn::TemporalUnit::kRnn
                                          : nn::TemporalUnit::kLstm;
      spec.rnn_hidden = 0;
      break;
  }
}

ArchCandidate ArchGenerator::generate() {
  ArchCandidate cand;
  {
    std::ostringstream id;
    id << id_prefix_ << "-arch-" << counter_++;
    cand.id = id.str();
  }
  cand.spec = sample_valid_spec();
  if (rng_.bernoulli(profile_.p_arch_invalid)) {
    cand.intended_invalid = true;
    make_invalid(cand.spec);
  }
  cand.description = cand.spec.describe();
  return cand;
}

std::vector<ArchCandidate> ArchGenerator::generate_batch(std::size_t n) {
  std::vector<ArchCandidate> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(generate());
  return out;
}

}  // namespace nada::gen
