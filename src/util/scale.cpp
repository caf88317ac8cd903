#include "util/scale.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace nada::util {

namespace {

/// A scale factor must parse as a positive finite number. Unparseable,
/// zero, negative, or NaN values would all silently run the workload at an
/// unintended size, so a set-but-invalid variable is an error, not a
/// fallback. `!(value > 0.0)` is deliberate — it also catches NaN.
double positive_factor(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  double value = fallback;
  if (raw != nullptr && *raw != '\0') {
    char* end = nullptr;
    value = std::strtod(raw, &end);
    const bool parsed = end != raw && *end == '\0';
    if (!parsed || !(value > 0.0) || !std::isfinite(value)) {
      throw std::runtime_error(std::string(name) +
                               " must be a positive finite number, got \"" +
                               raw + "\"");
    }
  }
  return value;
}

}  // namespace

ScaleConfig ScaleConfig::from_env() {
  ScaleConfig cfg;
  // Bench-friendly defaults: each table bench completes in roughly a minute.
  cfg.gen = positive_factor("NADA_SCALE_GEN", 0.04);
  cfg.epochs = positive_factor("NADA_SCALE_EPOCHS", 0.12);
  cfg.seeds = positive_factor("NADA_SCALE_SEEDS", 0.6);  // 5 -> 3 seeds
  cfg.traces = positive_factor("NADA_SCALE_TRACES", 0.15);
  cfg.model = positive_factor("NADA_SCALE_MODEL", 0.25);  // 128 -> 32 units
  // Widths only shrink: gen::ArchGenerator refuses a width scale above 1,
  // and a bench should learn that here, not after its first search.
  if (cfg.model > 1.0) {
    throw std::runtime_error(
        std::string("NADA_SCALE_MODEL must be in (0, 1], got \"") +
        std::getenv("NADA_SCALE_MODEL") + "\"");
  }
  return cfg;
}

std::size_t ScaleConfig::apply(std::size_t paper_value, double factor,
                               std::size_t min_value) {
  if (factor < 0.0) factor = 0.0;
  const double scaled = std::round(static_cast<double>(paper_value) * factor);
  const auto value = static_cast<std::size_t>(std::max(scaled, 0.0));
  return std::max(value, min_value);
}

std::size_t scaled_width(std::size_t width, double factor) {
  return std::max<std::size_t>(
      static_cast<std::size_t>(
          std::lround(static_cast<double>(width) * factor)),
      8);
}

std::string ScaleConfig::describe() const {
  std::ostringstream out;
  out << "scale{gen=" << gen << ", epochs=" << epochs << ", seeds=" << seeds
      << ", traces=" << traces << ", model=" << model << "}";
  return out.str();
}

}  // namespace nada::util
