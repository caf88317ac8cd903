// Neural network layers with explicit forward/backward passes.
//
// Every layer has two training paths over the same math:
//  - single-sample: forward() caches one sample's inputs, backward()
//    consumes the upstream gradient, accumulates parameter gradients (so
//    multi-step A2C batches sum naturally), and returns the input gradient;
//  - batched: forward_batch(), or a begin_capture()/forward_capture()
//    sequence that fills one cache row per rollout step, followed by one
//    backward_batch() per update. Rows are samples, and parameter gradients
//    accumulate in ascending sample order, bit-identical to the
//    single-sample loop. The probe trainer (rl::BatchProbeTrainer) runs on
//    this path.
//
// Capture-cache lifecycle: a batched forward (or a completed capture
// sequence) fills the batch caches, and backward_batch() consumes them —
// Dense overwrites its pre-activation z cache with dz in place — so each
// backward_batch() needs a fresh batched forward or capture before it.
// backward_batch() computes the input gradient only when given somewhere
// to put it: the actor-critic tower's observation-facing branches pass
// nullptr, since their upstream is the observation, not a trainable tensor.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/mat.h"
#include "util/rng.h"

namespace nada::nn {

enum class Activation { kLinear, kRelu, kLeakyRelu, kTanh, kSigmoid, kElu };

[[nodiscard]] const char* activation_name(Activation a);
[[nodiscard]] double activate(Activation a, double z);
/// Derivative with respect to pre-activation z, given z and y=activate(z).
[[nodiscard]] double activate_grad(Activation a, double z, double y);

/// A trainable parameter and its gradient accumulator.
struct ParamRef {
  Mat* value = nullptr;
  Mat* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output, caching what backward needs.
  virtual Vec forward(const Vec& x) = 0;

  /// Backpropagates dy (gradient of loss wrt output); accumulates parameter
  /// gradients and returns gradient wrt the input of the last forward().
  virtual Vec backward(const Vec& dy) = 0;

  /// Batched forward: each row of `x` is one sample. Row b of the result is
  /// bit-identical to forward(row b); caches (separately from the
  /// single-sample caches) what backward_batch needs.
  virtual Mat forward_batch(const Mat& x) = 0;

  /// Batched backward for the last forward_batch() (or a completed
  /// begin_capture()/forward_capture() sequence). Accumulates parameter
  /// gradients in ascending sample order — bit-identical to a loop of
  /// single-sample forward/backward calls. When `dx` is non-null it
  /// receives the per-row input gradients (reshaped to batch x in_dim; it
  /// must not alias `dy`); when null, that work is skipped and the
  /// parameter gradients are unchanged. Consumes the batch caches (see the
  /// file comment): call it once per batched forward or capture sequence.
  virtual void backward_batch(const Mat& dy, Mat* dx) = 0;

  /// Row-at-a-time batched forward, for callers that produce samples one
  /// step at a time (a policy rollout) but want the batch caches filled as
  /// they go so no second forward pass is needed before backward_batch.
  /// begin_capture sizes the caches; forward_capture computes one sample
  /// (bit-identical to forward()) and writes its caches into `row`.
  virtual void begin_capture(std::size_t batch) = 0;
  virtual Vec forward_capture(const Vec& x, std::size_t row) = 0;

  /// Allocation-light inference: same math as forward() but touches no
  /// training caches, so it is const and safe on a shared layer.
  [[nodiscard]] virtual Vec infer(const Vec& x) const = 0;

  /// Rebuilds derived read-only state the fast paths use (e.g. Dense's
  /// transposed weights, which turn the latency-bound matvec into a
  /// vectorizable sweep with the same per-element accumulation order).
  /// Contract: once a layer has been synced, it must be re-synced after
  /// every parameter change before the next infer(), forward_capture(),
  /// or forward_batch() — those paths read the cached transpose when one
  /// exists. forward()/backward() always read the live weights, so plain
  /// single-sample training never needs syncing; a layer that has never
  /// been synced uses its slow exact path everywhere.
  virtual void sync_inference_cache() {}

  virtual std::vector<ParamRef> params() = 0;

  [[nodiscard]] virtual std::size_t in_dim() const = 0;
  [[nodiscard]] virtual std::size_t out_dim() const = 0;

  void zero_grad();
};

/// Fully connected layer with optional activation: y = act(Wx + b).
class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, Activation act, util::Rng& rng);

  Vec forward(const Vec& x) override;
  Vec backward(const Vec& dy) override;
  Mat forward_batch(const Mat& x) override;
  void backward_batch(const Mat& dy, Mat* dx) override;
  void begin_capture(std::size_t batch) override;
  Vec forward_capture(const Vec& x, std::size_t row) override;
  [[nodiscard]] Vec infer(const Vec& x) const override;
  void sync_inference_cache() override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return w_.cols(); }
  [[nodiscard]] std::size_t out_dim() const override { return w_.rows(); }

 private:
  Mat w_, dw_;
  Mat b_, db_;
  Activation act_;
  Vec x_cache_, z_cache_, y_cache_;
  Mat xb_cache_, yb_cache_;
  Mat zb_cache_;  ///< batch z; backward_batch overwrites it with dz
  Mat wt_cache_;  ///< w_^T; empty until sync_inference_cache()
};

/// 1-D convolution over a scalar sequence (in_channels = 1, stride 1,
/// valid padding), followed by an activation; output is flattened
/// time-major: out[t * filters + f]. This is the temporal unit in
/// Pensieve's original architecture.
class Conv1D : public Layer {
 public:
  Conv1D(std::size_t seq_len, std::size_t filters, std::size_t kernel,
         Activation act, util::Rng& rng);

  Vec forward(const Vec& x) override;
  Vec backward(const Vec& dy) override;
  Mat forward_batch(const Mat& x) override;
  void backward_batch(const Mat& dy, Mat* dx) override;
  void begin_capture(std::size_t batch) override;
  Vec forward_capture(const Vec& x, std::size_t row) override;
  [[nodiscard]] Vec infer(const Vec& x) const override;
  void sync_inference_cache() override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override {
    return out_len_ * filters_;
  }
  [[nodiscard]] std::size_t out_len() const { return out_len_; }

 private:
  /// z for one sample, written filter-major per t with the serial
  /// accumulation order (bias first, then kernel taps k-ascending).
  void conv_one(const double* x, double* z) const;

  std::size_t seq_len_, filters_, kernel_, out_len_;
  Mat w_, dw_;  // filters x kernel
  Mat b_, db_;  // filters x 1
  Activation act_;
  Vec x_cache_, z_cache_, y_cache_;
  Mat xb_cache_, zb_cache_, yb_cache_;
  Mat wt_cache_;  ///< w_^T (kernel x filters); empty until synced
};

/// Elman RNN over a scalar sequence; returns the final hidden state.
/// h_t = tanh(Wx * x_t + Wh * h_{t-1} + b). Used by the paper's best
/// Starlink architecture (RNN in place of the 1D-CNN).
class SimpleRnn : public Layer {
 public:
  SimpleRnn(std::size_t seq_len, std::size_t hidden, util::Rng& rng);

  Vec forward(const Vec& x) override;
  Vec backward(const Vec& dy) override;
  Mat forward_batch(const Mat& x) override;
  void backward_batch(const Mat& dy, Mat* dx) override;
  void begin_capture(std::size_t batch) override;
  Vec forward_capture(const Vec& x, std::size_t row) override;
  [[nodiscard]] Vec infer(const Vec& x) const override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override { return hidden_; }

 private:
  std::size_t seq_len_, hidden_;
  Mat wx_, dwx_;  // hidden x 1
  Mat wh_, dwh_;  // hidden x hidden
  Mat b_, db_;    // hidden x 1
  Vec x_cache_;
  std::vector<Vec> h_cache_;  // h_0..h_T (h_0 = zeros)
  Mat xb_cache_;
  std::vector<std::vector<Vec>> hb_cache_;  // per sample: h_0..h_T
};

/// LSTM over a scalar sequence; returns the final hidden state. Used by the
/// paper's best 4G architecture (LSTM in place of the 1D-CNN).
class Lstm : public Layer {
 public:
  Lstm(std::size_t seq_len, std::size_t hidden, util::Rng& rng);

  Vec forward(const Vec& x) override;
  Vec backward(const Vec& dy) override;
  Mat forward_batch(const Mat& x) override;
  void backward_batch(const Mat& dy, Mat* dx) override;
  void begin_capture(std::size_t batch) override;
  Vec forward_capture(const Vec& x, std::size_t row) override;
  [[nodiscard]] Vec infer(const Vec& x) const override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override { return hidden_; }

 private:
  struct StepCache {
    Vec i, f, g, o;  // gate activations
    Vec c, h;        // post-step cell and hidden
  };

  /// One sample's forward recurrence; appends per-step caches to `steps`.
  Vec forward_one(std::span<const double> x, std::vector<StepCache>& steps)
      const;
  /// One sample's BPTT; accumulates dw_/db_ and adds the input gradient
  /// into `dx` (skipped when `dx` is empty).
  void backward_one(std::span<const double> x,
                    const std::vector<StepCache>& steps, const Vec& dy,
                    std::span<double> dx);

  std::size_t seq_len_, hidden_;
  // Gate weights stacked [i; f; g; o]: (4H x (1 + H)) over [x_t, h_{t-1}].
  Mat w_, dw_;
  Mat b_, db_;  // 4H x 1
  Vec x_cache_;
  std::vector<StepCache> steps_;
  Mat xb_cache_;
  std::vector<std::vector<StepCache>> steps_batch_;
};

}  // namespace nada::nn
