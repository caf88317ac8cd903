#include "nn/classifier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nada::nn {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

namespace detail {

void train_bce(const std::vector<Vec>& features,
               const std::vector<double>& labels,
               const ClassifierTrainOptions& options,
               const std::function<void(std::size_t)>& begin,
               const std::function<double(const Vec&, std::size_t)>& forward,
               const std::function<void(const Mat&)>& backward,
               const std::function<std::vector<ParamRef>()>& params,
               util::Rng& rng) {
  if (features.size() != labels.size()) {
    throw std::invalid_argument("train_bce: features/labels size mismatch");
  }
  if (features.empty()) {
    throw std::invalid_argument("train_bce: empty training set");
  }
  if (options.batch_size == 0) {
    throw std::invalid_argument("train_bce: zero batch size");
  }
  for (double y : labels) {
    if (y < 0.0 || y > 1.0) {
      throw std::invalid_argument("train_bce: label outside [0, 1]");
    }
  }
  Adam optimizer(options.learning_rate);
  std::vector<std::size_t> order(features.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Mat dlogits;

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t first = 0; first < order.size();
         first += options.batch_size) {
      const std::size_t n =
          std::min(options.batch_size, order.size() - first);
      begin(n);
      dlogits.reshape(n, 1);
      for (std::size_t row = 0; row < n; ++row) {
        const std::size_t idx = order[first + row];
        const double p = sigmoid(forward(features[idx], row));
        // d(BCE)/d(logit) = p - y, averaged over the nominal batch size.
        dlogits(row, 0) = (p - labels[idx]) /
                          static_cast<double>(options.batch_size);
      }
      backward(dlogits);
      auto ps = params();
      // The ragged last mini-batch of an epoch steps without weight decay.
      if (options.l2 > 0.0 && n == options.batch_size) {
        for (auto& pr : ps) {
          const auto& w = pr.value->data();
          auto& g = pr.grad->data();
          for (std::size_t j = 0; j < w.size(); ++j) {
            g[j] += options.l2 * w[j];
          }
        }
      }
      Optimizer::clip_global_norm(ps, 5.0);
      optimizer.step(ps);
    }
  }
}

}  // namespace detail

// ---- Conv1DClassifier -------------------------------------------------------

Conv1DClassifier::Conv1DClassifier(std::size_t seq_len, std::size_t filters,
                                   std::size_t kernel, std::size_t hidden,
                                   util::Rng& rng)
    : seq_len_(seq_len),
      filters_(filters),
      out_len_(seq_len - kernel + 1),
      conv_(seq_len, filters, kernel, Activation::kRelu, rng),
      fc1_(filters, hidden, Activation::kRelu, rng),
      fc2_(hidden, 1, Activation::kLinear, rng),
      rng_(rng.fork()) {
  if (kernel > seq_len) {
    throw std::invalid_argument("Conv1DClassifier: kernel > seq_len");
  }
}

double Conv1DClassifier::forward_logit(const Vec& x, std::size_t row) {
  if (x.size() != seq_len_) {
    throw std::invalid_argument("Conv1DClassifier: input size mismatch");
  }
  const Vec conv_out = conv_.forward_capture(x, row);
  // Global average pool over time (conv output is time-major).
  Vec pooled(filters_, 0.0);
  for (std::size_t t = 0; t < out_len_; ++t) {
    for (std::size_t f = 0; f < filters_; ++f) {
      pooled[f] += conv_out[t * filters_ + f];
    }
  }
  for (double& v : pooled) v /= static_cast<double>(out_len_);
  const Vec h = fc1_.forward_capture(pooled, row);
  return fc2_.forward_capture(h, row)[0];
}

void Conv1DClassifier::backward_logits(const Mat& dlogits) {
  Mat dh;
  Mat dpool;
  fc2_.backward_batch(dlogits, &dh);
  fc1_.backward_batch(dh, &dpool);
  Mat dconv(dlogits.rows(), out_len_ * filters_);
  for (std::size_t n = 0; n < dconv.rows(); ++n) {
    for (std::size_t t = 0; t < out_len_; ++t) {
      for (std::size_t f = 0; f < filters_; ++f) {
        dconv(n, t * filters_ + f) =
            dpool(n, f) / static_cast<double>(out_len_);
      }
    }
  }
  conv_.backward_batch(dconv, nullptr);  // upstream is the input series
}

double Conv1DClassifier::predict(const Vec& features) const {
  if (features.size() != seq_len_) {
    throw std::invalid_argument("Conv1DClassifier: input size mismatch");
  }
  // Cache-free inference path, so predict() is const and thread-safe on a
  // fitted model.
  const Vec conv_out = conv_.infer(features);
  Vec pooled(filters_, 0.0);
  for (std::size_t t = 0; t < out_len_; ++t) {
    for (std::size_t f = 0; f < filters_; ++f) {
      pooled[f] += conv_out[t * filters_ + f];
    }
  }
  for (double& v : pooled) v /= static_cast<double>(out_len_);
  return sigmoid(fc2_.infer(fc1_.infer(pooled))[0]);
}

void Conv1DClassifier::train(const std::vector<Vec>& features,
                             const std::vector<double>& labels,
                             const ClassifierTrainOptions& options) {
  detail::train_bce(
      features, labels, options,
      [this](std::size_t n) {
        conv_.begin_capture(n);
        fc1_.begin_capture(n);
        fc2_.begin_capture(n);
      },
      [this](const Vec& x, std::size_t row) { return forward_logit(x, row); },
      [this](const Mat& d) { backward_logits(d); },
      [this] {
        std::vector<ParamRef> ps;
        for (auto p : conv_.params()) ps.push_back(p);
        for (auto p : fc1_.params()) ps.push_back(p);
        for (auto p : fc2_.params()) ps.push_back(p);
        return ps;
      },
      rng_);
}

// ---- MlpClassifier ----------------------------------------------------------

MlpClassifier::MlpClassifier(std::size_t input_dim,
                             std::vector<std::size_t> hidden, util::Rng& rng)
    : input_dim_(input_dim), rng_(rng.fork()) {
  if (input_dim_ == 0) throw std::invalid_argument("MlpClassifier: dim 0");
  std::size_t in = input_dim_;
  for (std::size_t h : hidden) {
    layers_.push_back(std::make_unique<Dense>(in, h, Activation::kRelu, rng));
    in = h;
  }
  layers_.push_back(std::make_unique<Dense>(in, 1, Activation::kLinear, rng));
}

double MlpClassifier::forward_logit(const Vec& x, std::size_t row) {
  if (x.size() != input_dim_) {
    throw std::invalid_argument("MlpClassifier: input size mismatch");
  }
  Vec h = x;
  for (auto& layer : layers_) h = layer->forward_capture(h, row);
  return h[0];
}

void MlpClassifier::backward_logits(const Mat& dlogits) {
  Mat d = dlogits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Mat dx;
    // The first layer's input gradient would flow into the features.
    layers_[i]->backward_batch(d, i > 0 ? &dx : nullptr);
    d = std::move(dx);
  }
}

double MlpClassifier::predict(const Vec& features) const {
  if (features.size() != input_dim_) {
    throw std::invalid_argument("MlpClassifier: input size mismatch");
  }
  Vec h = features;
  for (const auto& layer : layers_) h = layer->infer(h);
  return sigmoid(h[0]);
}

void MlpClassifier::train(const std::vector<Vec>& features,
                          const std::vector<double>& labels,
                          const ClassifierTrainOptions& options) {
  detail::train_bce(
      features, labels, options,
      [this](std::size_t n) {
        for (auto& layer : layers_) layer->begin_capture(n);
      },
      [this](const Vec& x, std::size_t row) { return forward_logit(x, row); },
      [this](const Mat& d) { backward_logits(d); },
      [this] {
        std::vector<ParamRef> ps;
        for (auto& layer : layers_) {
          for (auto p : layer->params()) ps.push_back(p);
        }
        return ps;
      },
      rng_);
}

}  // namespace nada::nn
