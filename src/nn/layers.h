// Neural network layers with explicit forward/backward passes.
//
// Every layer has one training path: a begin_capture()/forward_capture()
// sequence fills one cache row per sample — a rollout step, or one sample
// of a classifier mini-batch — and one backward_batch() per update
// consumes it. Rows are samples, and parameter gradients accumulate in
// ascending row order on top of whatever the gradient buffers hold, so N
// one-row captures each followed by backward_batch() (no zero_grad in
// between) sum to exactly the bits of one N-row capture and one
// backward_batch(). infer() is the separate cache-free inference path.
//
// Capture-cache lifecycle: begin_capture(batch) sizes every batch cache
// (reallocating only when the shape changes, so a fixed episode length
// allocates once), forward_capture(x, row) overwrites row `row` in full,
// and backward_batch() consumes the rows — Dense overwrites its output
// cache with dz in place — so each backward_batch() needs a fresh capture
// sequence before it. Dense and Conv1D capture inputs and outputs only
// (activate_grad needs no pre-activation). The recurrent layers keep a whole
// sample's recurrence flat in one row of a single Mat: SimpleRnn stores
// h_0..h_T (h_0 = 0), and Lstm stores, per step, the gate activations
// i, f, g, o and the post-step cell c (backward recomputes h = o * tanh(c)
// with the same bits the forward pass produced).
//
// backward_batch() computes the input gradient only when given somewhere
// to put it: the actor-critic tower's observation-facing branches pass
// nullptr, since their upstream is the observation, not a trainable tensor.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/mat.h"
#include "util/rng.h"

namespace nada::nn {

enum class Activation { kLinear, kRelu, kLeakyRelu, kTanh, kSigmoid, kElu };

[[nodiscard]] const char* activation_name(Activation a);
[[nodiscard]] double activate(Activation a, double z);
/// Derivative with respect to the pre-activation z, from y = activate(a, z)
/// alone: every activation here has y > 0 exactly when z > 0, so the
/// piecewise ones branch on y and the capture caches need not keep z.
[[nodiscard]] double activate_grad(Activation a, double y);

/// A trainable parameter and its gradient accumulator.
struct ParamRef {
  Mat* value = nullptr;
  Mat* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Sizes the batch caches for `batch` samples (see the file comment).
  virtual void begin_capture(std::size_t batch) = 0;

  /// Computes one sample's output and writes what backward_batch needs
  /// into cache row `row`.
  virtual Vec forward_capture(const Vec& x, std::size_t row) = 0;

  /// Backpropagates `dy` (one row per captured sample) through the last
  /// capture sequence. Adds the parameter gradients to the gradient
  /// buffers in ascending row order. When `dx` is non-null it receives the
  /// per-row input gradients (reshaped to batch x in_dim; it must not
  /// alias `dy`); when null, that work is skipped and the parameter
  /// gradients are unchanged. Consumes the batch caches.
  virtual void backward_batch(const Mat& dy, Mat* dx) = 0;

  /// Cache-free inference: same math as forward_capture but touches no
  /// training caches, so it is const and safe on a shared layer.
  [[nodiscard]] virtual Vec infer(const Vec& x) const = 0;

  /// Rebuilds derived read-only state the fast paths use (e.g. Dense's
  /// transposed weights, which turn the latency-bound matvec into a
  /// vectorizable sweep with the same per-element accumulation order).
  /// Contract: once a layer has been synced, it must be re-synced after
  /// every parameter change before the next infer() or forward_capture() —
  /// both read the cached transpose when one exists. A layer that has
  /// never been synced uses its slow exact path everywhere, with the same
  /// result bits.
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

  void begin_capture(std::size_t batch) override;
  Vec forward_capture(const Vec& x, std::size_t row) override;
  void backward_batch(const Mat& dy, Mat* dx) override;
  [[nodiscard]] Vec infer(const Vec& x) const override;
  void sync_inference_cache() override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return w_.cols(); }
  [[nodiscard]] std::size_t out_dim() const override { return w_.rows(); }

 private:
  Mat w_, dw_;
  Mat b_, db_;
  Activation act_;
  Mat xb_cache_;
  Mat yb_cache_;  ///< batch outputs; backward_batch overwrites them with dz
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

  void begin_capture(std::size_t batch) override;
  Vec forward_capture(const Vec& x, std::size_t row) override;
  void backward_batch(const Mat& dy, Mat* dx) override;
  [[nodiscard]] Vec infer(const Vec& x) const override;
  void sync_inference_cache() override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override {
    return out_len_ * filters_;
  }
  [[nodiscard]] std::size_t out_len() const { return out_len_; }

 private:
  /// z for one sample, written filter-major per t with a fixed
  /// accumulation order (bias first, then kernel taps k-ascending).
  void conv_one(const double* x, double* z) const;

  std::size_t seq_len_, filters_, kernel_, out_len_;
  Mat w_, dw_;  // filters x kernel
  Mat b_, db_;  // filters x 1
  Activation act_;
  Mat xb_cache_, yb_cache_;
  Mat wt_cache_;  ///< w_^T (kernel x filters); empty until synced
};

/// Elman RNN over a scalar sequence; returns the final hidden state.
/// h_t = tanh(Wx * x_t + Wh * h_{t-1} + b). Used by the paper's best
/// Starlink architecture (RNN in place of the 1D-CNN).
class SimpleRnn : public Layer {
 public:
  SimpleRnn(std::size_t seq_len, std::size_t hidden, util::Rng& rng);

  void begin_capture(std::size_t batch) override;
  Vec forward_capture(const Vec& x, std::size_t row) override;
  void backward_batch(const Mat& dy, Mat* dx) override;
  [[nodiscard]] Vec infer(const Vec& x) const override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override { return hidden_; }

 private:
  /// One sample's recurrence: writes h_0..h_T ((seq_len + 1) x hidden,
  /// h_0 = 0) to `hs`.
  void forward_one(std::span<const double> x, double* hs) const;

  std::size_t seq_len_, hidden_;
  Mat wx_, dwx_;  // hidden x 1
  Mat wh_, dwh_;  // hidden x hidden
  Mat b_, db_;    // hidden x 1
  Mat xb_cache_;
  Mat hb_cache_;  ///< per sample: h_0..h_T, (seq_len + 1) * hidden wide
};

/// LSTM over a scalar sequence; returns the final hidden state. Used by the
/// paper's best 4G architecture (LSTM in place of the 1D-CNN).
class Lstm : public Layer {
 public:
  Lstm(std::size_t seq_len, std::size_t hidden, util::Rng& rng);

  void begin_capture(std::size_t batch) override;
  Vec forward_capture(const Vec& x, std::size_t row) override;
  void backward_batch(const Mat& dy, Mat* dx) override;
  [[nodiscard]] Vec infer(const Vec& x) const override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::size_t in_dim() const override { return seq_len_; }
  [[nodiscard]] std::size_t out_dim() const override { return hidden_; }

 private:
  /// Per-step cache fields, each `hidden` wide: gates i, f, g, o, then the
  /// post-step cell c.
  static constexpr std::size_t kStepFields = 5;

  [[nodiscard]] std::size_t step_width() const {
    return kStepFields * hidden_;
  }
  /// One sample's forward recurrence; writes every step's fields to
  /// `steps` (seq_len x step_width()) and returns the final hidden state.
  Vec forward_one(std::span<const double> x, double* steps) const;
  /// One sample's BPTT; accumulates dw_/db_ and adds the input gradient
  /// into `dx` (skipped when `dx` is empty).
  void backward_one(std::span<const double> x, const double* steps,
                    std::span<const double> dy, std::span<double> dx);

  std::size_t seq_len_, hidden_;
  // Gate weights stacked [i; f; g; o]: (4H x (1 + H)) over [x_t, h_{t-1}].
  Mat w_, dw_;
  Mat b_, db_;  // 4H x 1
  Mat xb_cache_;
  Mat steps_cache_;  ///< per sample: seq_len * step_width() step fields
};

}  // namespace nada::nn
