// RL-facing ABR environment.
//
// AbrEnv runs a StreamingSession (or EmuSession) and exposes the *raw*
// observation quantities Pensieve's state function consumes: throughput and
// download-time histories, next-chunk sizes per bitrate, buffer level,
// chunks remaining, and the last selected bitrate. It also tracks a buffer
// history — unused by the original design, but exactly the signal the
// paper reports LLM-generated states exploiting (§4).
//
// The mapping from Observation to the network's input tensor is the *state
// function* — the component NADA searches over — and lives in src/dsl.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "env/domain.h"
#include "env/session.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "video/video.h"

namespace nada::env {

/// Number of past samples kept for every history (Pensieve's S_LEN).
inline constexpr std::size_t kHistoryLen = 8;

/// Raw inputs available to a state function. Histories are oldest-first and
/// zero-padded until enough chunks have been downloaded.
struct Observation {
  std::vector<double> throughput_mbps;   ///< last kHistoryLen measurements
  std::vector<double> download_time_s;   ///< last kHistoryLen download times
  std::vector<double> buffer_s_history;  ///< last kHistoryLen buffer levels
  std::vector<double> next_chunk_bytes;  ///< next chunk's size per level
  double buffer_s = 0.0;                 ///< current playback buffer
  double chunks_remaining = 0.0;
  double total_chunks = 0.0;
  double last_bitrate_kbps = 0.0;
  double chunk_len_s = 4.0;
  std::vector<double> ladder_kbps;       ///< the bitrate ladder
};

/// Step outcome.
struct StepResult {
  Observation observation;
  double reward = 0.0;       ///< QoE_lin for the downloaded chunk
  double rebuffer_s = 0.0;
  double download_time_s = 0.0;
  /// The chunk's transfer hit the session's stall deadline before the last
  /// byte arrived; the reward is capped at zero and the reported throughput
  /// reflects only the bytes actually delivered.
  bool truncated = false;
  bool done = false;
};

// Fidelity (kSimulation: paper Tables 3/5, Figures 3/4; kEmulation: paper
// Table 4) lives in env/domain.h so every domain shares the enum.

/// One episode = one video streamed over one trace. The session starts at a
/// random offset into the trace, as in Pensieve's training setup.
///
/// Construction consumes no randomness: the RNG is only drawn when reset()
/// starts an episode, so the caller's seed stream is a pure function of the
/// episodes it actually runs — the property the trainer's block-size
/// independence rests on. reset() must be called before step().
class AbrEnv {
 public:
  AbrEnv(const trace::Trace& trace, const video::Video& video,
         Fidelity fidelity, util::Rng& rng);

  /// Starts a fresh episode (new random trace offset); returns the initial
  /// observation. The first chunk has not been downloaded yet, so histories
  /// are zeros and last_bitrate is the lowest level, as in Pensieve.
  Observation reset();

  /// Downloads the next chunk at bitrate index `level`.
  StepResult step(std::size_t level);

  [[nodiscard]] bool done() const;
  [[nodiscard]] std::size_t num_levels() const {
    return video_->ladder().levels();
  }

 private:
  [[nodiscard]] Observation make_observation() const;
  void push_history(std::vector<double>& hist, double value);
  /// Unrolls a ring-buffer history into an oldest-first vector.
  [[nodiscard]] std::vector<double> history_in_order(
      const std::vector<double>& hist) const;
  void require_session() const;

  const trace::Trace* trace_;
  const video::Video* video_;
  Fidelity fidelity_;
  util::Rng* rng_;
  video::QoELin qoe_;
  std::unique_ptr<StreamingSession> session_;
  // Histories are fixed-size ring buffers indexed by head_: the oldest
  // sample lives at head_, so a push is O(1) instead of an O(n)
  // erase-from-front. They are materialized oldest-first only when an
  // observation is built.
  std::vector<double> throughput_hist_;
  std::vector<double> download_hist_;
  std::vector<double> buffer_hist_;
  std::size_t hist_head_ = 0;
  std::size_t last_level_ = 0;
};

}  // namespace nada::env
