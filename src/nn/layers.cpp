#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/mat_kernels.h"

namespace nada::nn {

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kLinear: return "linear";
    case Activation::kRelu: return "relu";
    case Activation::kLeakyRelu: return "leaky_relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kElu: return "elu";
  }
  return "?";
}

double activate(Activation a, double z) {
  switch (a) {
    case Activation::kLinear: return z;
    case Activation::kRelu: return z > 0.0 ? z : 0.0;
    case Activation::kLeakyRelu: return z > 0.0 ? z : 0.01 * z;
    case Activation::kTanh: return std::tanh(z);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-z));
    case Activation::kElu: return z > 0.0 ? z : std::expm1(z);
  }
  return z;
}

double activate_grad(Activation a, double y) {
  switch (a) {
    case Activation::kLinear: return 1.0;
    case Activation::kRelu: return y > 0.0 ? 1.0 : 0.0;
    case Activation::kLeakyRelu: return y > 0.0 ? 1.0 : 0.01;
    case Activation::kTanh: return 1.0 - y * y;
    case Activation::kSigmoid: return y * (1.0 - y);
    case Activation::kElu: return y > 0.0 ? 1.0 : y + 1.0;
  }
  return 1.0;
}

void Layer::zero_grad() {
  for (auto& p : params()) p.grad->zero();
}

// ---- Dense ----------------------------------------------------------------

Dense::Dense(std::size_t in, std::size_t out, Activation act, util::Rng& rng)
    : w_(out, in), dw_(out, in), b_(out, 1), db_(out, 1), act_(act) {
  if (act == Activation::kTanh || act == Activation::kSigmoid) {
    w_.init_xavier(rng);
  } else {
    w_.init_he(rng);
  }
}

Vec Dense::infer(const Vec& x) const {
  if (x.size() != w_.cols()) {
    throw std::invalid_argument("Dense::infer: input size mismatch");
  }
  Vec z;
  if (!wt_cache_.empty()) {
    // Fast path over W^T: z[j] accumulates the k-th product at sweep k —
    // the same k-ascending chain as matvec, with a contiguous inner loop
    // dispatched to the active kernel flavor.
    z.assign(w_.rows(), 0.0);
    active_kernels().wt_axpy(wt_cache_.ptr(), x.data(), z.data(), x.size(),
                             w_.rows());
  } else {
    z = w_.matvec(x);
  }
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = activate(act_, z[i] + b_(i, 0));
  }
  return z;
}

void Dense::sync_inference_cache() { w_.transpose_into(wt_cache_); }

void Dense::begin_capture(std::size_t batch) {
  // Rows are fully overwritten by forward_capture, so the caches are only
  // reallocated when the episode length changes.
  if (xb_cache_.rows() != batch || xb_cache_.cols() != w_.cols()) {
    xb_cache_ = Mat(batch, w_.cols());
    yb_cache_ = Mat(batch, w_.rows());
  }
}

Vec Dense::forward_capture(const Vec& x, std::size_t row) {
  if (x.size() != w_.cols()) {
    throw std::invalid_argument("Dense::forward_capture: input mismatch");
  }
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  const std::size_t out = w_.rows();
  const auto yr = yb_cache_.row(row);  // holds Wx until activated in place
  if (!wt_cache_.empty()) {
    std::fill(yr.begin(), yr.end(), 0.0);
    active_kernels().wt_axpy(wt_cache_.ptr(), x.data(), yr.data(), x.size(),
                             out);
  } else {
    const Vec z = w_.matvec(x);
    std::copy(z.begin(), z.end(), yr.begin());
  }
  for (std::size_t i = 0; i < out; ++i) {
    yr[i] = activate(act_, yr[i] + b_(i, 0));
  }
  return Vec(yr.begin(), yr.end());
}

void Dense::backward_batch(const Mat& dy, Mat* dx) {
  if (dy.rows() != yb_cache_.rows() || dy.cols() != w_.rows()) {
    throw std::invalid_argument("Dense::backward_batch: grad shape mismatch");
  }
  // dz overwrites the output capture in place: each y is dead once its own
  // activate_grad has read it, and the next capture sequence refills it.
  Mat& dz = yb_cache_;
  for (std::size_t j = 0; j < dz.size(); ++j) {
    dz.data()[j] = dy.data()[j] * activate_grad(act_, dz.data()[j]);
  }
  add_matmul_tn(dw_, dz, xb_cache_);
  for (std::size_t i = 0; i < dy.cols(); ++i) {
    double acc = db_(i, 0);
    for (std::size_t n = 0; n < dy.rows(); ++n) acc += dz(n, i);
    db_(i, 0) = acc;
  }
  if (dx != nullptr) *dx = matmul(dz, w_);
}

std::vector<ParamRef> Dense::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

// ---- Conv1D ---------------------------------------------------------------

Conv1D::Conv1D(std::size_t seq_len, std::size_t filters, std::size_t kernel,
               Activation act, util::Rng& rng)
    : seq_len_(seq_len),
      filters_(filters),
      kernel_(kernel),
      out_len_(0),
      w_(filters, kernel),
      dw_(filters, kernel),
      b_(filters, 1),
      db_(filters, 1),
      act_(act) {
  if (kernel_ == 0 || kernel_ > seq_len_) {
    throw std::invalid_argument("Conv1D: kernel must be in [1, seq_len]");
  }
  out_len_ = seq_len_ - kernel_ + 1;
  if (act == Activation::kTanh || act == Activation::kSigmoid) {
    w_.init_xavier(rng);
  } else {
    w_.init_he(rng);
  }
}

void Conv1D::conv_one(const double* x, double* z) const {
  if (!wt_cache_.empty()) {
    // Vectorized form over W^T: initialize with the bias, then add the
    // kernel taps k-ascending — the identical per-element chain as the
    // f-major loops below, dispatched to the active kernel flavor.
    const KernelTable& kernels = active_kernels();
    for (std::size_t t = 0; t < out_len_; ++t) {
      double* zt = z + t * filters_;
      for (std::size_t f = 0; f < filters_; ++f) zt[f] = b_(f, 0);
      kernels.wt_axpy(wt_cache_.ptr(), x + t, zt, kernel_, filters_);
    }
    return;
  }
  for (std::size_t t = 0; t < out_len_; ++t) {
    for (std::size_t f = 0; f < filters_; ++f) {
      double acc = b_(f, 0);
      for (std::size_t k = 0; k < kernel_; ++k) {
        acc += w_(f, k) * x[t + k];
      }
      z[t * filters_ + f] = acc;
    }
  }
}

void Conv1D::sync_inference_cache() { w_.transpose_into(wt_cache_); }

void Conv1D::begin_capture(std::size_t batch) {
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
    yb_cache_ = Mat(batch, out_len_ * filters_);
  }
}

Vec Conv1D::forward_capture(const Vec& x, std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Conv1D::forward_capture: input mismatch");
  }
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  const auto yr = yb_cache_.row(row);
  conv_one(x.data(), yr.data());
  for (double& v : yr) v = activate(act_, v);
  return Vec(yr.begin(), yr.end());
}

Vec Conv1D::infer(const Vec& x) const {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Conv1D::infer: input size mismatch");
  }
  Vec y(out_len_ * filters_);
  conv_one(x.data(), y.data());
  for (double& v : y) v = activate(act_, v);
  return y;
}

void Conv1D::backward_batch(const Mat& dy, Mat* dx) {
  if (dy.rows() != yb_cache_.rows() || dy.cols() != out_len_ * filters_) {
    throw std::invalid_argument("Conv1D::backward_batch: grad shape mismatch");
  }
  if (dx != nullptr) {
    dx->reshape(dy.rows(), seq_len_);
    dx->zero();
  }
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    const auto xr = xb_cache_.row(n);
    const auto dyr = dy.row(n);
    const auto yr = yb_cache_.row(n);
    double* dxr = dx != nullptr ? dx->row(n).data() : nullptr;
    for (std::size_t t = 0; t < out_len_; ++t) {
      for (std::size_t f = 0; f < filters_; ++f) {
        const std::size_t idx = t * filters_ + f;
        const double dz = dyr[idx] * activate_grad(act_, yr[idx]);
        db_(f, 0) += dz;
        // dw and dx accumulate into disjoint elements, so each keeps its
        // own k-ascending chain whether or not dx is computed.
        for (std::size_t k = 0; k < kernel_; ++k) {
          dw_(f, k) += dz * xr[t + k];
        }
        if (dxr != nullptr) {
          for (std::size_t k = 0; k < kernel_; ++k) {
            dxr[t + k] += dz * w_(f, k);
          }
        }
      }
    }
  }
}

std::vector<ParamRef> Conv1D::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

// ---- SimpleRnn -------------------------------------------------------------

SimpleRnn::SimpleRnn(std::size_t seq_len, std::size_t hidden, util::Rng& rng)
    : seq_len_(seq_len),
      hidden_(hidden),
      wx_(hidden, 1),
      dwx_(hidden, 1),
      wh_(hidden, hidden),
      dwh_(hidden, hidden),
      b_(hidden, 1),
      db_(hidden, 1) {
  wx_.init_xavier(rng);
  wh_.init_xavier(rng);
}

void SimpleRnn::forward_one(std::span<const double> x, double* hs) const {
  std::fill(hs, hs + hidden_, 0.0);  // h_0
  for (std::size_t t = 0; t < seq_len_; ++t) {
    const double* h = hs + t * hidden_;
    double* h_next = hs + (t + 1) * hidden_;
    const Vec wh_h = wh_.matvec({h, hidden_});
    for (std::size_t i = 0; i < hidden_; ++i) {
      h_next[i] = std::tanh(wx_(i, 0) * x[t] + wh_h[i] + b_(i, 0));
    }
  }
}

Vec SimpleRnn::infer(const Vec& x) const {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("SimpleRnn::infer: input size mismatch");
  }
  Vec hs((seq_len_ + 1) * hidden_);
  forward_one(x, hs.data());
  return Vec(hs.end() - static_cast<std::ptrdiff_t>(hidden_), hs.end());
}

void SimpleRnn::begin_capture(std::size_t batch) {
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
    hb_cache_ = Mat(batch, (seq_len_ + 1) * hidden_);
  }
}

Vec SimpleRnn::forward_capture(const Vec& x, std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("SimpleRnn::forward_capture: input mismatch");
  }
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  const auto hs = hb_cache_.row(row);
  forward_one(x, hs.data());
  return Vec(hs.end() - static_cast<std::ptrdiff_t>(hidden_), hs.end());
}

void SimpleRnn::backward_batch(const Mat& dy, Mat* dx) {
  if (dy.rows() != xb_cache_.rows() || dy.cols() != hidden_) {
    throw std::invalid_argument("SimpleRnn::backward_batch: grad mismatch");
  }
  if (dx != nullptr) {
    dx->reshape(dy.rows(), seq_len_);
    dx->zero();
  }
  Vec dz(hidden_);
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    const auto xr = xb_cache_.row(n);
    double* dxr = dx != nullptr ? dx->row(n).data() : nullptr;
    const double* hs = hb_cache_.row(n).data();
    Vec dh(dy.row(n).begin(), dy.row(n).end());
    for (std::size_t t = seq_len_; t-- > 0;) {
      const double* h_next = hs + (t + 1) * hidden_;
      for (std::size_t i = 0; i < hidden_; ++i) {
        dz[i] = dh[i] * (1.0 - h_next[i] * h_next[i]);  // tanh'
      }
      for (std::size_t i = 0; i < hidden_; ++i) {
        dwx_(i, 0) += dz[i] * xr[t];
        db_(i, 0) += dz[i];
      }
      if (dxr != nullptr) {
        for (std::size_t i = 0; i < hidden_; ++i) dxr[t] += dz[i] * wx_(i, 0);
      }
      dwh_.add_outer(dz, {hs + t * hidden_, hidden_});
      dh = wh_.matvec_transposed(dz);
    }
  }
}

std::vector<ParamRef> SimpleRnn::params() {
  return {{&wx_, &dwx_}, {&wh_, &dwh_}, {&b_, &db_}};
}

// ---- Lstm -------------------------------------------------------------------

Lstm::Lstm(std::size_t seq_len, std::size_t hidden, util::Rng& rng)
    : seq_len_(seq_len),
      hidden_(hidden),
      w_(4 * hidden, 1 + hidden),
      dw_(4 * hidden, 1 + hidden),
      b_(4 * hidden, 1),
      db_(4 * hidden, 1) {
  w_.init_xavier(rng);
  // Forget-gate bias of 1.0, the standard trick for gradient flow early in
  // training.
  for (std::size_t i = 0; i < hidden_; ++i) b_(hidden_ + i, 0) = 1.0;
}

Vec Lstm::forward_one(std::span<const double> x, double* steps) const {
  const std::size_t h_dim = hidden_;
  const Vec zeros(h_dim, 0.0);
  Vec h(h_dim, 0.0);
  const double* c_prev = zeros.data();
  Vec input(1 + h_dim);
  for (std::size_t t = 0; t < seq_len_; ++t) {
    // z = W [x_t; h_{t-1}] + b, split into i, f, g, o.
    input[0] = x[t];
    std::copy(h.begin(), h.end(), input.begin() + 1);
    const Vec z = w_.matvec(input);
    double* gi = steps + t * step_width();
    double* gf = gi + h_dim;
    double* gg = gf + h_dim;
    double* go = gg + h_dim;
    double* c = go + h_dim;
    for (std::size_t i = 0; i < h_dim; ++i) {
      gi[i] = activate(Activation::kSigmoid, z[i] + b_(i, 0));
      gf[i] = activate(Activation::kSigmoid, z[h_dim + i] + b_(h_dim + i, 0));
      gg[i] = std::tanh(z[2 * h_dim + i] + b_(2 * h_dim + i, 0));
      go[i] = activate(Activation::kSigmoid,
                       z[3 * h_dim + i] + b_(3 * h_dim + i, 0));
      c[i] = gf[i] * c_prev[i] + gi[i] * gg[i];
      h[i] = go[i] * std::tanh(c[i]);
    }
    c_prev = c;
  }
  return h;
}

void Lstm::backward_one(std::span<const double> x, const double* steps,
                        std::span<const double> dy, std::span<double> dx) {
  const std::size_t h_dim = hidden_;
  Vec dh(dy.begin(), dy.end());
  Vec dc(h_dim, 0.0);
  const Vec zeros(h_dim, 0.0);
  Vec dz(4 * h_dim);
  Vec input(1 + h_dim);
  for (std::size_t t = seq_len_; t-- > 0;) {
    const double* gi = steps + t * step_width();
    const double* gf = gi + h_dim;
    const double* gg = gf + h_dim;
    const double* go = gg + h_dim;
    const double* c = go + h_dim;
    const double* prev = t > 0 ? steps + (t - 1) * step_width() : nullptr;
    const double* c_prev = prev != nullptr ? prev + 4 * h_dim : zeros.data();
    for (std::size_t i = 0; i < h_dim; ++i) {
      const double tanh_c = std::tanh(c[i]);
      const double do_ = dh[i] * tanh_c;
      const double dct = dh[i] * go[i] * (1.0 - tanh_c * tanh_c) + dc[i];
      const double di = dct * gg[i];
      const double df = dct * c_prev[i];
      const double dg = dct * gi[i];
      dz[i] = di * gi[i] * (1.0 - gi[i]);
      dz[h_dim + i] = df * gf[i] * (1.0 - gf[i]);
      dz[2 * h_dim + i] = dg * (1.0 - gg[i] * gg[i]);
      dz[3 * h_dim + i] = do_ * go[i] * (1.0 - go[i]);
      dc[i] = dct * gf[i];
    }
    // h_{t-1} = o_{t-1} * tanh(c_{t-1}), recomputed exactly as forward did.
    input[0] = x[t];
    for (std::size_t i = 0; i < h_dim; ++i) {
      input[1 + i] =
          prev != nullptr ? prev[3 * h_dim + i] * std::tanh(c_prev[i]) : 0.0;
    }
    dw_.add_outer(dz, input);
    for (std::size_t i = 0; i < 4 * h_dim; ++i) db_(i, 0) += dz[i];
    const Vec dinput = w_.matvec_transposed(dz);
    if (!dx.empty()) dx[t] += dinput[0];
    dh.assign(dinput.begin() + 1, dinput.end());
  }
}

Vec Lstm::infer(const Vec& x) const {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Lstm::infer: input size mismatch");
  }
  Vec steps(seq_len_ * step_width());
  return forward_one(x, steps.data());
}

void Lstm::begin_capture(std::size_t batch) {
  if (xb_cache_.rows() != batch || xb_cache_.cols() != seq_len_) {
    xb_cache_ = Mat(batch, seq_len_);
    steps_cache_ = Mat(batch, seq_len_ * step_width());
  }
}

Vec Lstm::forward_capture(const Vec& x, std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Lstm::forward_capture: input mismatch");
  }
  std::copy(x.begin(), x.end(), xb_cache_.row(row).begin());
  return forward_one(x, steps_cache_.row(row).data());
}

void Lstm::backward_batch(const Mat& dy, Mat* dx) {
  if (dy.rows() != xb_cache_.rows() || dy.cols() != hidden_) {
    throw std::invalid_argument("Lstm::backward_batch: grad shape mismatch");
  }
  if (dx != nullptr) {
    dx->reshape(dy.rows(), seq_len_);
    dx->zero();
  }
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    backward_one(xb_cache_.row(n), steps_cache_.row(n).data(), dy.row(n),
                 dx != nullptr ? dx->row(n) : std::span<double>());
  }
}

std::vector<ParamRef> Lstm::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

}  // namespace nada::nn
