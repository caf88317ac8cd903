// Tests for the neural-network substrate. The crucial ones are numerical
// gradient checks: every layer's analytic backward pass is compared with
// finite differences of a scalar loss.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "golden.h"
#include "nn/arch.h"
#include "nn/classifier.h"
#include "nn/layers.h"
#include "nn/mat.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace nada::nn {
namespace {

// ---- Mat --------------------------------------------------------------------

TEST(Mat, MatvecKnownValues) {
  Mat m(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  }
  const Vec y = m.matvec(std::vector<double>{1, 1, 1});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Mat, MatvecTransposedKnownValues) {
  Mat m(2, 3);
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  }
  const Vec y = m.matvec_transposed(std::vector<double>{1, 1});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_DOUBLE_EQ(y[2], 9.0);
}

TEST(Mat, AddOuterKnownValues) {
  Mat m(2, 2);
  m.add_outer(std::vector<double>{1, 2}, std::vector<double>{3, 4}, 2.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 12.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 16.0);
}

TEST(Mat, ShapeMismatchThrows) {
  Mat m(2, 3);
  EXPECT_THROW(m.matvec(std::vector<double>{1, 1}), std::invalid_argument);
  EXPECT_THROW(m.matvec_transposed(std::vector<double>{1, 1, 1}),
               std::invalid_argument);
  Mat other(3, 2);
  EXPECT_THROW(m.add_scaled(other, 1.0), std::invalid_argument);
}

TEST(Mat, ZeroDimensionThrows) {
  EXPECT_THROW(Mat(0, 3), std::invalid_argument);
  EXPECT_THROW(Mat(3, 0), std::invalid_argument);
}

TEST(VecOps, SoftmaxSumsToOne) {
  const Vec probs = softmax(std::vector<double>{1.0, 2.0, 3.0});
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(probs[2], probs[1]);
  EXPECT_GT(probs[1], probs[0]);
}

TEST(VecOps, SoftmaxHandlesLargeLogits) {
  const Vec probs = softmax(std::vector<double>{1000.0, 1000.0});
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
  EXPECT_NEAR(probs[1], 0.5, 1e-12);
}

TEST(VecOps, EntropyUniformIsLogN) {
  const Vec probs(4, 0.25);
  EXPECT_NEAR(entropy(probs), std::log(4.0), 1e-12);
  const Vec onehot = {1.0, 0.0, 0.0};
  EXPECT_NEAR(entropy(onehot), 0.0, 1e-9);
}

TEST(VecOps, ResampleLinearEndpoints) {
  const Vec xs = {0.0, 1.0, 2.0, 3.0};
  const Vec out = resample_linear(xs, 7);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_DOUBLE_EQ(out.front(), 0.0);
  EXPECT_DOUBLE_EQ(out.back(), 3.0);
  EXPECT_NEAR(out[3], 1.5, 1e-12);
}

TEST(VecOps, ResampleFromSingleValue) {
  const Vec out = resample_linear(std::vector<double>{5.0}, 4);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 5.0);
}

// ---- gradient checks ----------------------------------------------------------

/// One-row capture: the layer's training forward for a single sample.
Vec capture_one(Layer& layer, const Vec& x) {
  layer.begin_capture(1);
  return layer.forward_capture(x, 0);
}

/// backward_batch over a one-row capture; returns the input gradient.
Vec backward_one(Layer& layer, const Vec& dy) {
  Mat dy_row(1, dy.size());
  std::copy(dy.begin(), dy.end(), dy_row.row(0).begin());
  Mat dx;
  layer.backward_batch(dy_row, &dx);
  return Vec(dx.row(0).begin(), dx.row(0).end());
}

// Scalar loss L = sum(w_out .* layer(x)), evaluated on the capture path;
// checks the analytic dL/dx and dL/dparams of backward_batch against
// central finite differences.
void check_layer_gradients(Layer& layer, const Vec& x, double tol = 1e-5) {
  util::Rng rng(777);
  Vec w_out(layer.out_dim());
  for (double& w : w_out) w = rng.uniform(-1.0, 1.0);

  auto loss = [&](const Vec& input) {
    return dot(capture_one(layer, input), w_out);
  };

  // Analytic gradients.
  layer.zero_grad();
  (void)capture_one(layer, x);
  const Vec dx = backward_one(layer, w_out);

  // Input gradient check.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Vec xp = x;
    Vec xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(dx[i], numeric, tol) << "input grad " << i;
  }

  // Parameter gradient check. Re-run analytic backward because the finite
  // difference probes overwrote the capture cache.
  layer.zero_grad();
  (void)capture_one(layer, x);
  (void)backward_one(layer, w_out);
  for (auto& p : layer.params()) {
    auto& values = p.value->data();
    auto& grads = p.grad->data();
    // Probe a subset of parameters to keep the test fast.
    const std::size_t stride = std::max<std::size_t>(values.size() / 25, 1);
    for (std::size_t j = 0; j < values.size(); j += stride) {
      const double saved = values[j];
      values[j] = saved + eps;
      const double up = loss(x);
      values[j] = saved - eps;
      const double down = loss(x);
      values[j] = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grads[j], numeric, tol) << "param grad " << j;
    }
  }
}

TEST(GradCheck, DenseLinear) {
  util::Rng rng(1);
  Dense layer(5, 4, Activation::kLinear, rng);
  check_layer_gradients(layer, {0.5, -0.3, 1.2, 0.0, -0.9});
}

TEST(GradCheck, DenseTanh) {
  util::Rng rng(2);
  Dense layer(4, 6, Activation::kTanh, rng);
  check_layer_gradients(layer, {0.2, -0.6, 0.9, 0.1});
}

TEST(GradCheck, DenseSigmoid) {
  util::Rng rng(3);
  Dense layer(3, 3, Activation::kSigmoid, rng);
  check_layer_gradients(layer, {1.0, -1.0, 0.3});
}

TEST(GradCheck, DenseLeakyRelu) {
  util::Rng rng(4);
  Dense layer(4, 5, Activation::kLeakyRelu, rng);
  // Inputs chosen so pre-activations stay away from the kink.
  check_layer_gradients(layer, {0.7, -0.8, 0.45, 1.3}, 1e-4);
}

TEST(GradCheck, DenseElu) {
  util::Rng rng(5);
  Dense layer(4, 4, Activation::kElu, rng);
  check_layer_gradients(layer, {0.7, -0.4, 0.2, -1.1}, 1e-4);
}

TEST(GradCheck, Conv1D) {
  util::Rng rng(6);
  Conv1D layer(8, 3, 4, Activation::kTanh, rng);
  check_layer_gradients(layer, {0.1, -0.2, 0.3, 0.5, -0.6, 0.4, 0.0, 0.9});
}

TEST(GradCheck, Conv1DKernelOne) {
  util::Rng rng(7);
  Conv1D layer(5, 2, 1, Activation::kLinear, rng);
  check_layer_gradients(layer, {0.3, 0.1, -0.4, 0.8, -0.2});
}

TEST(GradCheck, Conv1DFullWidthKernel) {
  util::Rng rng(8);
  Conv1D layer(6, 4, 6, Activation::kTanh, rng);
  check_layer_gradients(layer, {0.2, -0.1, 0.4, 0.3, -0.5, 0.6});
}

TEST(GradCheck, SimpleRnn) {
  util::Rng rng(9);
  SimpleRnn layer(6, 5, rng);
  check_layer_gradients(layer, {0.5, -0.3, 0.8, 0.2, -0.7, 0.1}, 1e-4);
}

TEST(GradCheck, Lstm) {
  util::Rng rng(10);
  Lstm layer(5, 4, rng);
  check_layer_gradients(layer, {0.4, -0.6, 0.9, -0.1, 0.3}, 1e-4);
}

// ---- batched kernels and batched layer passes --------------------------------

TEST(Mat, MatmulMatchesMatvecTransposedPerRow) {
  util::Rng rng(42);
  Mat a(3, 4);
  Mat b(4, 6);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  const Mat c = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const Vec expect = b.matvec_transposed(a.row(i));
    for (std::size_t j = 0; j < b.cols(); ++j) {
      EXPECT_EQ(c(i, j), expect[j]);  // bitwise
    }
  }
}

TEST(Mat, AddMatmulTnMatchesSequentialAddOuter) {
  util::Rng rng(43);
  Mat a(5, 3);
  Mat b(5, 4);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  Mat sequential(3, 4, 0.5);
  for (std::size_t n = 0; n < a.rows(); ++n) {
    sequential.add_outer(a.row(n), b.row(n));
  }
  Mat batched(3, 4, 0.5);
  add_matmul_tn(batched, a, b);
  EXPECT_EQ(sequential.data(), batched.data());  // bitwise
}

TEST(Mat, BatchedKernelShapeMismatchThrows) {
  Mat a(2, 3);
  Mat b(2, 4);
  EXPECT_THROW((void)matmul(a, b), std::invalid_argument);
  Mat c(3, 3);
  EXPECT_THROW(add_matmul_tn(c, a, b), std::invalid_argument);
}

// The kernels reject bad shapes with stable, kernel-naming messages; these
// are the diagnostics operators see when a capture cache and a gradient
// matrix drift apart, so the text itself is pinned.
TEST(Mat, BatchedKernelMismatchMessages) {
  auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no throw)";
  };
  Mat a(2, 3);
  Mat b(2, 4);
  Mat c(3, 3);
  EXPECT_EQ(message_of([&] { (void)matmul(a, b); }),
            "matmul: inner dimension mismatch");
  EXPECT_EQ(message_of([&] { add_matmul_tn(c, a, b); }),
            "add_matmul_tn: shape mismatch");
  // Zero-dimension matrices are unrepresentable, so "0-row" inputs are
  // rejected at construction — the kernels never see them.
  EXPECT_EQ(message_of([&] { Mat m(0, 3); }), "Mat: zero dimension");
  EXPECT_EQ(message_of([&] { Mat m(3, 0); }), "Mat: zero dimension");
}

/// Fills a matrix with a deterministic pseudo-random pattern.
Mat random_mat(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Mat m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

// Tail-vs-tiled pins: the kernels tile four rows (matmul) or
// four samples (add_matmul_tn) per sweep and fall back to a remainder loop
// for the rest. A row's result must not depend on which path computed it,
// so every row count around the tile boundary is compared bitwise against
// the one-row Mat reference — and against the same rows computed inside a
// full tile via a padded operand.
TEST(Mat, MatmulTailRowsMatchTiledBitwise) {
  const Mat b = random_mat(3, 4, 91);
  for (const std::size_t rows : {1u, 2u, 3u, 5u, 6u, 7u, 9u}) {
    const Mat a = random_mat(rows, 3, 200 + rows);
    const Mat c = matmul(a, b);
    for (std::size_t i = 0; i < rows; ++i) {
      const Vec expect = b.matvec_transposed(a.row(i));
      for (std::size_t j = 0; j < b.cols(); ++j) {
        EXPECT_EQ(c(i, j), expect[j]) << "rows=" << rows << " i=" << i;
      }
    }
    const std::size_t padded_rows = ((rows + 3) / 4) * 4;
    Mat padded(padded_rows, 3);
    std::copy(a.data().begin(), a.data().end(), padded.data().begin());
    const Mat c_padded = matmul(padded, b);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        EXPECT_EQ(c(i, j), c_padded(i, j)) << "rows=" << rows << " i=" << i;
      }
    }
  }
}

TEST(Mat, AddMatmulTnTailSamplesMatchSerialBitwise) {
  // The n-dimension (samples) is the accumulation order here, so the pin is
  // against the serial add_outer chain at every count around the tile edge.
  for (const std::size_t samples : {1u, 2u, 3u, 5u, 6u, 7u, 9u}) {
    const Mat a = random_mat(samples, 3, 300 + samples);
    const Mat b = random_mat(samples, 4, 400 + samples);
    Mat serial(3, 4, 0.25);
    for (std::size_t n = 0; n < samples; ++n) {
      serial.add_outer(a.row(n), b.row(n));
    }
    Mat batched(3, 4, 0.25);
    add_matmul_tn(batched, a, b);
    EXPECT_EQ(serial.data(), batched.data()) << "samples=" << samples;
  }
}

TEST(Mat, BatchedKernelsDegenerateShapes) {
  // 1-col outputs, 1-row inputs, and inner dimension 1: every degenerate
  // edge still matches the serial reference bitwise.
  const Mat a1 = random_mat(1, 4, 500);   // single sample
  const Mat bcol = random_mat(4, 1, 502);  // 1-col B
  const Mat c_col = matmul(a1, bcol);
  ASSERT_EQ(c_col.cols(), 1u);
  EXPECT_EQ(c_col(0, 0), bcol.matvec_transposed(a1.row(0))[0]);

  const Mat ak1 = random_mat(5, 1, 503);  // inner dimension 1
  const Mat bk1 = random_mat(1, 3, 504);
  const Mat c_k1 = matmul(ak1, bk1);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(c_k1(i, j), bk1.matvec_transposed(ak1.row(i))[j]);
    }
  }

  Mat acc(1, 1, -0.5);  // 1x1 accumulator
  const Mat at = random_mat(5, 1, 505);
  const Mat bt = random_mat(5, 1, 506);
  Mat acc_serial(1, 1, -0.5);
  for (std::size_t n = 0; n < 5; ++n) {
    acc_serial.add_outer(at.row(n), bt.row(n));
  }
  add_matmul_tn(acc, at, bt);
  EXPECT_EQ(acc(0, 0), acc_serial(0, 0));
}

TEST(Mat, TransposeIntoMatchesElementwiseAndReusesStorage) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expect_transpose = [&](const Mat& m, const Mat& t) {
    ASSERT_EQ(t.rows(), m.cols());
    ASSERT_EQ(t.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        EXPECT_EQ(bits(t(c, r)), bits(m(r, c))) << r << "," << c;
      }
    }
  };
  Mat t;
  const Mat first = random_mat(3, 5, 71);
  first.transpose_into(t);
  expect_transpose(first, t);

  // Same shape again (every optimizer step's re-sync): no reallocation.
  const double* storage = t.ptr();
  const Mat second = random_mat(3, 5, 72);
  second.transpose_into(t);
  EXPECT_EQ(t.ptr(), storage);
  expect_transpose(second, t);

  // A new shape reshapes the target.
  const Mat wide = random_mat(2, 7, 73);
  wide.transpose_into(t);
  expect_transpose(wide, t);

  Mat self = random_mat(2, 2, 74);
  EXPECT_THROW(self.transpose_into(self), std::invalid_argument);
}

/// Layers built from the same seed have identical weights. Run B samples
/// through one as B one-row captures, each followed by its own
/// backward_batch with no zero_grad in between, and through another as one
/// B-row capture and a single backward_batch; demand bitwise-equal outputs,
/// parameter gradients, and input gradients. A third copy runs the B-row
/// backward with the input gradient skipped (as the tower's
/// observation-facing branches do) and must produce the same parameter
/// gradients; a fourth runs the capture on the synced fast inference path
/// and must match the unsynced slow path bitwise. infer() must agree with
/// forward_capture() row by row.
template <typename MakeLayer>
void check_batched_matches_row_by_row(MakeLayer make, std::size_t in_dim,
                                      std::size_t batch) {
  util::Rng rng_rows(2024);
  util::Rng rng_batch(2024);
  util::Rng rng_skip(2024);
  util::Rng rng_fast(2024);
  auto rows = make(rng_rows);
  auto batched = make(rng_batch);
  auto skipping = make(rng_skip);
  auto fast = make(rng_fast);
  fast->sync_inference_cache();

  util::Rng data_rng(7);
  Mat x(batch, in_dim);
  for (double& v : x.data()) v = data_rng.uniform(-1.0, 1.0);
  Mat dy(batch, rows->out_dim());
  for (double& v : dy.data()) v = data_rng.uniform(-1.0, 1.0);

  rows->zero_grad();
  Mat y_rows(batch, rows->out_dim());
  Mat dx_rows(batch, in_dim);
  for (std::size_t nidx = 0; nidx < batch; ++nidx) {
    const Vec xn(x.row(nidx).begin(), x.row(nidx).end());
    const Vec yn = capture_one(*rows, xn);
    EXPECT_EQ(rows->infer(xn), yn) << "sample " << nidx;
    std::copy(yn.begin(), yn.end(), y_rows.row(nidx).begin());
    const Vec dyn(dy.row(nidx).begin(), dy.row(nidx).end());
    const Vec dxn = backward_one(*rows, dyn);
    std::copy(dxn.begin(), dxn.end(), dx_rows.row(nidx).begin());
  }

  auto capture_all = [&](Layer& layer) {
    Mat y(batch, layer.out_dim());
    layer.zero_grad();
    layer.begin_capture(batch);
    for (std::size_t nidx = 0; nidx < batch; ++nidx) {
      const Vec xn(x.row(nidx).begin(), x.row(nidx).end());
      const Vec yn = layer.forward_capture(xn, nidx);
      std::copy(yn.begin(), yn.end(), y.row(nidx).begin());
    }
    return y;
  };
  const Mat y_batch = capture_all(*batched);
  // Pre-filled with junk: backward_batch must overwrite, not accumulate.
  Mat dx_batch(batch, in_dim, 123.0);
  batched->backward_batch(dy, &dx_batch);
  const Mat y_skip = capture_all(*skipping);
  skipping->backward_batch(dy, nullptr);
  const Mat y_fast = capture_all(*fast);
  Mat dx_fast;
  fast->backward_batch(dy, &dx_fast);

  EXPECT_EQ(y_batch.data(), y_rows.data());
  EXPECT_EQ(y_skip.data(), y_rows.data());
  EXPECT_EQ(y_fast.data(), y_rows.data());
  EXPECT_EQ(dx_batch.data(), dx_rows.data());
  EXPECT_EQ(dx_fast.data(), dx_rows.data());
  auto pr = rows->params();
  auto pb = batched->params();
  auto pk = skipping->params();
  auto pf = fast->params();
  ASSERT_EQ(pr.size(), pb.size());
  ASSERT_EQ(pr.size(), pk.size());
  ASSERT_EQ(pr.size(), pf.size());
  for (std::size_t p = 0; p < pr.size(); ++p) {
    EXPECT_EQ(pr[p].grad->data(), pb[p].grad->data()) << "param " << p;
    EXPECT_EQ(pb[p].grad->data(), pk[p].grad->data())
        << "param " << p << " (input gradient skipped)";
    EXPECT_EQ(pb[p].grad->data(), pf[p].grad->data())
        << "param " << p << " (synced fast path)";
  }
}

TEST(BatchedLayers, DenseMatchesRowByRow) {
  check_batched_matches_row_by_row(
      [](util::Rng& rng) {
        return std::make_unique<Dense>(5, 4, Activation::kTanh, rng);
      },
      5, 6);
}

TEST(BatchedLayers, DenseReluMatchesRowByRow) {
  check_batched_matches_row_by_row(
      [](util::Rng& rng) {
        return std::make_unique<Dense>(6, 3, Activation::kRelu, rng);
      },
      6, 4);
}

TEST(BatchedLayers, Conv1DMatchesRowByRow) {
  check_batched_matches_row_by_row(
      [](util::Rng& rng) {
        return std::make_unique<Conv1D>(8, 3, 4, Activation::kRelu, rng);
      },
      8, 5);
}

TEST(BatchedLayers, SimpleRnnMatchesRowByRow) {
  check_batched_matches_row_by_row(
      [](util::Rng& rng) { return std::make_unique<SimpleRnn>(8, 4, rng); },
      8, 5);
}

TEST(BatchedLayers, LstmMatchesRowByRow) {
  check_batched_matches_row_by_row(
      [](util::Rng& rng) { return std::make_unique<Lstm>(8, 4, rng); }, 8,
      5);
}

TEST(Conv1D, RejectsBadKernel) {
  util::Rng rng(11);
  EXPECT_THROW(Conv1D(4, 2, 5, Activation::kRelu, rng),
               std::invalid_argument);
  EXPECT_THROW(Conv1D(4, 2, 0, Activation::kRelu, rng),
               std::invalid_argument);
}

TEST(Layers, RejectsWrongSize) {
  util::Rng rng(12);
  Dense dense(3, 2, Activation::kRelu, rng);
  EXPECT_THROW((void)capture_one(dense, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)dense.infer({1.0, 2.0}), std::invalid_argument);
  Conv1D conv(5, 2, 3, Activation::kRelu, rng);
  EXPECT_THROW((void)capture_one(conv, {1.0}), std::invalid_argument);
  EXPECT_THROW((void)conv.infer({1.0}), std::invalid_argument);
  SimpleRnn rnn(4, 3, rng);
  EXPECT_THROW((void)capture_one(rnn, {1.0}), std::invalid_argument);
  EXPECT_THROW((void)rnn.infer({1.0}), std::invalid_argument);
  Lstm lstm(4, 3, rng);
  EXPECT_THROW((void)capture_one(lstm, {1.0}), std::invalid_argument);
  EXPECT_THROW((void)lstm.infer({1.0}), std::invalid_argument);
}

// ---- optimizers -----------------------------------------------------------------

TEST(Adam, MinimizesQuadratic) {
  // One 1x1 "weight" minimizing (w - 3)^2.
  Mat w(1, 1, 0.0);
  Mat g(1, 1, 0.0);
  Adam adam(0.1);
  for (int i = 0; i < 300; ++i) {
    g(0, 0) = 2.0 * (w(0, 0) - 3.0);
    adam.step({{&w, &g}});
  }
  EXPECT_NEAR(w(0, 0), 3.0, 1e-2);
}

TEST(RmsProp, MinimizesQuadratic) {
  Mat w(1, 1, 10.0);
  Mat g(1, 1, 0.0);
  RmsProp rms(0.05);
  for (int i = 0; i < 2000; ++i) {
    g(0, 0) = 2.0 * (w(0, 0) - 3.0);
    rms.step({{&w, &g}});
  }
  EXPECT_NEAR(w(0, 0), 3.0, 0.1);
}

TEST(Adam, ZeroesGradientsAfterStep) {
  Mat w(2, 2, 1.0);
  Mat g(2, 2, 5.0);
  Adam adam(0.01);
  adam.step({{&w, &g}});
  for (double v : g.data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Optimizer, ClipGlobalNormScales) {
  Mat w(1, 2);
  Mat g(1, 2);
  g(0, 0) = 3.0;
  g(0, 1) = 4.0;  // norm 5
  std::vector<ParamRef> params = {{&w, &g}};
  Optimizer::clip_global_norm(params, 1.0);
  EXPECT_NEAR(g(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(g(0, 1), 0.8, 1e-12);
  // Below the cap: unchanged.
  Optimizer::clip_global_norm(params, 10.0);
  EXPECT_NEAR(g(0, 0), 0.6, 1e-12);
}

// ---- ArchSpec / ActorCriticNet ---------------------------------------------------

StateSignature pensieve_signature() {
  // last_quality, buffer (scalars); throughput, download (8-vectors);
  // next sizes (6-vector); chunks left (scalar).
  StateSignature sig;
  sig.row_lengths = {1, 1, 8, 8, 6, 1};
  return sig;
}

TEST(ArchSpec, PensieveDefaultValid) {
  EXPECT_NO_THROW(validate_spec(ArchSpec::pensieve(), pensieve_signature()));
}

TEST(ArchSpec, KernelTooLargeRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_kernel = 7;  // shortest vector row is 6
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, ZeroWidthRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.merge_hidden = 0;
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, OversizedWidthRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.merge_hidden = 4096;
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, TooManyMergeLayersRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.merge_layers = 5;
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, ZeroRnnHiddenRejected) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.temporal = TemporalUnit::kRnn;
  spec.rnn_hidden = 0;
  EXPECT_THROW(validate_spec(spec, pensieve_signature()), ArchError);
}

TEST(ArchSpec, DescribeMentionsUnit) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.temporal = TemporalUnit::kLstm;
  EXPECT_NE(spec.describe().find("lstm"), std::string::npos);
}

class NetVariantTest
    : public ::testing::TestWithParam<std::tuple<TemporalUnit, bool>> {};

TEST_P(NetVariantTest, CaptureBackwardRuns) {
  const auto [unit, shared] = GetParam();
  ArchSpec spec = ArchSpec::pensieve();
  spec.temporal = unit;
  spec.shared_trunk = shared;
  spec.conv_filters = 8;
  spec.rnn_hidden = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 8;
  util::Rng rng(13);
  ActorCriticNet net(spec, pensieve_signature(), 6, rng);

  std::vector<Vec> rows = {{0.3},
                           {0.9},
                           {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
                           {0.2, 0.2, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2},
                           {0.1, 0.2, 0.4, 0.7, 1.1, 1.7},
                           {0.5}};
  net.begin_batch_capture(1);
  const auto out = net.forward_capture(rows, 0);
  ASSERT_EQ(out.probs.size(), 6u);
  double total = 0.0;
  for (double p : out.probs) {
    EXPECT_GT(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_TRUE(std::isfinite(out.value));

  Mat dlogits(1, 6, 0.1);
  dlogits(0, 2) = -0.5;
  EXPECT_NO_THROW(net.backward_batch(dlogits, {0.7}));
  // Gradients should be nonzero somewhere.
  double grad_norm = 0.0;
  for (auto& p : net.params()) {
    for (double g : p.grad->data()) grad_norm += g * g;
  }
  EXPECT_GT(grad_norm, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, NetVariantTest,
    ::testing::Combine(::testing::Values(TemporalUnit::kConv1D,
                                         TemporalUnit::kRnn,
                                         TemporalUnit::kLstm,
                                         TemporalUnit::kDense),
                       ::testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<TemporalUnit, bool>>& info) {
      return std::string(temporal_unit_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_shared" : "_separate");
    });

class NetBatchedVariantTest
    : public ::testing::TestWithParam<std::tuple<TemporalUnit, bool>> {};

TEST_P(NetBatchedVariantTest, BatchedMatchesRowByRowBitwise) {
  const auto [unit, shared] = GetParam();
  ArchSpec spec = ArchSpec::pensieve();
  spec.temporal = unit;
  spec.shared_trunk = shared;
  spec.conv_filters = 8;
  spec.rnn_hidden = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 8;
  util::Rng rng_rows(99);
  util::Rng rng_batch(99);
  util::Rng rng_fast(99);
  ActorCriticNet rows(spec, pensieve_signature(), 6, rng_rows);
  ActorCriticNet batched(spec, pensieve_signature(), 6, rng_batch);
  ActorCriticNet fast(spec, pensieve_signature(), 6, rng_fast);
  fast.sync_inference_cache();  // as the trainer's rollout runs

  util::Rng data_rng(3);
  const std::size_t batch = 5;
  std::vector<std::vector<Vec>> samples(batch);
  for (auto& sample : samples) {
    for (std::size_t len : pensieve_signature().row_lengths) {
      Vec row(std::max<std::size_t>(len, 1));
      for (double& v : row) v = data_rng.uniform(-1.0, 1.0);
      sample.push_back(std::move(row));
    }
  }
  Mat dlogits(batch, 6);
  for (double& v : dlogits.data()) v = data_rng.uniform(-0.5, 0.5);
  Vec dvalues(batch);
  for (double& v : dvalues) v = data_rng.uniform(-0.5, 0.5);

  // Row by row: a one-row capture and its backward per sample, gradients
  // accumulating across samples without zero_grad.
  rows.zero_grad();
  std::vector<ActorCriticNet::Output> row_outs;
  for (std::size_t b = 0; b < batch; ++b) {
    rows.begin_batch_capture(1);
    row_outs.push_back(rows.forward_capture(samples[b], 0));
    Mat db(1, 6);
    std::copy(dlogits.row(b).begin(), dlogits.row(b).end(),
              db.row(0).begin());
    rows.backward_batch(db, {dvalues[b]});
  }

  // One capture over all rows (as the rollout fills an episode), then a
  // single backward — unsynced (slow exact path) and synced (fast path).
  auto capture_all = [&](ActorCriticNet& net) {
    std::vector<ActorCriticNet::Output> outs;
    net.zero_grad();
    net.begin_batch_capture(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      outs.push_back(net.forward_capture(samples[b], b));
    }
    net.backward_batch(dlogits, dvalues);
    return outs;
  };
  const auto batch_outs = capture_all(batched);
  const auto fast_outs = capture_all(fast);

  for (std::size_t b = 0; b < batch; ++b) {
    SCOPED_TRACE("sample " + std::to_string(b));
    EXPECT_EQ(batch_outs[b].logits, row_outs[b].logits);  // bitwise
    EXPECT_EQ(batch_outs[b].probs, row_outs[b].probs);
    EXPECT_EQ(batch_outs[b].value, row_outs[b].value);
    EXPECT_EQ(fast_outs[b].logits, row_outs[b].logits);
    EXPECT_EQ(fast_outs[b].value, row_outs[b].value);
    // forward_inference must agree as well, slow and fast.
    const auto slow_inference = rows.forward_inference(samples[b]);
    EXPECT_EQ(slow_inference.probs, row_outs[b].probs);
    EXPECT_EQ(slow_inference.value, row_outs[b].value);
    const auto fast_inference = fast.forward_inference(samples[b]);
    EXPECT_EQ(fast_inference.probs, row_outs[b].probs);
    EXPECT_EQ(fast_inference.value, row_outs[b].value);
  }
  auto pr = rows.params();
  auto pb = batched.params();
  auto pf = fast.params();
  ASSERT_EQ(pr.size(), pb.size());
  ASSERT_EQ(pr.size(), pf.size());
  for (std::size_t p = 0; p < pr.size(); ++p) {
    EXPECT_EQ(pr[p].grad->data(), pb[p].grad->data()) << "param " << p;
    EXPECT_EQ(pr[p].grad->data(), pf[p].grad->data()) << "param " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, NetBatchedVariantTest,
    ::testing::Combine(::testing::Values(TemporalUnit::kConv1D,
                                         TemporalUnit::kRnn,
                                         TemporalUnit::kLstm,
                                         TemporalUnit::kDense),
                       ::testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<TemporalUnit, bool>>& info) {
      return std::string(temporal_unit_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_shared" : "_separate");
    });

TEST(ActorCriticNet, CaptureRejectsEmptyAndMalformedBatches) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_filters = 4;
  spec.scalar_hidden = 4;
  spec.merge_hidden = 4;
  util::Rng rng(5);
  StateSignature sig;
  sig.row_lengths = {1, 8};
  ActorCriticNet net(spec, sig, 3, rng);
  EXPECT_THROW(net.begin_batch_capture(0), std::invalid_argument);
  net.begin_batch_capture(2);
  const std::vector<Vec> bad_rows = {{0.1}};
  EXPECT_THROW((void)net.forward_capture(bad_rows, 0), std::invalid_argument);
  const std::vector<Vec> short_row = {{0.1}, {0.2, 0.3}};
  EXPECT_THROW((void)net.forward_capture(short_row, 0),
               std::invalid_argument);
  // A gradient whose rows disagree with the capture is rejected too.
  const std::vector<Vec> good_rows = {{0.1}, Vec(8, 0.2)};
  (void)net.forward_capture(good_rows, 0);
  (void)net.forward_capture(good_rows, 1);
  EXPECT_THROW(net.backward_batch(Mat(3, 3), {0.1, 0.2, 0.3}),
               std::invalid_argument);
}

TEST(ActorCriticNet, WholeNetGradientCheck) {
  // End-to-end gradient check through branches, merge, and actor head via
  // a loss over logits and value.
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_filters = 4;
  spec.scalar_hidden = 4;
  spec.merge_hidden = 6;
  spec.activation = Activation::kTanh;
  util::Rng rng(14);
  StateSignature sig;
  sig.row_lengths = {1, 8};
  ActorCriticNet net(spec, sig, 3, rng);

  const std::vector<Vec> rows = {{0.4},
                                 {0.1, -0.2, 0.3, 0.25, -0.15, 0.05, 0.4,
                                  -0.3}};
  const Vec w_logit = {0.3, -0.7, 0.5};
  const double w_value = 0.9;
  auto capture = [&] {
    net.begin_batch_capture(1);
    return net.forward_capture(rows, 0);
  };
  auto loss = [&] {
    const auto out = capture();
    return dot(out.logits, w_logit) + w_value * out.value;
  };

  net.zero_grad();
  (void)capture();
  Mat dlogits(1, w_logit.size());
  std::copy(w_logit.begin(), w_logit.end(), dlogits.row(0).begin());
  net.backward_batch(dlogits, {w_value});

  const double eps = 1e-6;
  auto params = net.params();
  std::size_t checked = 0;
  for (auto& p : params) {
    auto& values = p.value->data();
    auto& grads = p.grad->data();
    const std::size_t stride = std::max<std::size_t>(values.size() / 8, 1);
    for (std::size_t j = 0; j < values.size(); j += stride) {
      const double saved = values[j];
      values[j] = saved + eps;
      const double up = loss();
      values[j] = saved - eps;
      const double down = loss();
      values[j] = saved;
      EXPECT_NEAR(grads[j], (up - down) / (2 * eps), 1e-5);
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(ActorCriticNet, WeightsRoundtrip) {
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_filters = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 8;
  util::Rng rng(15);
  ActorCriticNet a(spec, pensieve_signature(), 6, rng);
  ActorCriticNet b(spec, pensieve_signature(), 6, rng);

  const Vec weights = a.get_weights();
  EXPECT_EQ(weights.size(), a.num_params());
  b.set_weights(weights);

  const std::vector<Vec> rows = {{0.3},
                                 {0.9},
                                 {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
                                 {0.2, 0.2, 0.3, 0.1, 0.4, 0.2, 0.3, 0.2},
                                 {0.1, 0.2, 0.4, 0.7, 1.1, 1.7},
                                 {0.5}};
  const auto oa = a.forward_inference(rows);
  const auto ob = b.forward_inference(rows);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(oa.probs[i], ob.probs[i]);
  }
  EXPECT_DOUBLE_EQ(oa.value, ob.value);
}

TEST(ActorCriticNet, SetWeightsRejectsWrongLength) {
  util::Rng rng(16);
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_filters = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 8;
  ActorCriticNet net(spec, pensieve_signature(), 6, rng);
  Vec too_short(3, 0.0);
  EXPECT_THROW(net.set_weights(too_short), std::invalid_argument);
}

TEST(ActorCriticNet, RowMismatchThrows) {
  util::Rng rng(17);
  ArchSpec spec = ArchSpec::pensieve();
  spec.conv_filters = 8;
  spec.scalar_hidden = 8;
  spec.merge_hidden = 8;
  ActorCriticNet net(spec, pensieve_signature(), 6, rng);
  net.begin_batch_capture(1);
  EXPECT_THROW((void)net.forward_inference({{0.1}}), std::invalid_argument);
  EXPECT_THROW((void)net.forward_capture({{0.1}}, 0), std::invalid_argument);
  std::vector<Vec> bad_rows = {{0.3}, {0.9}, {0.1, 0.2}, {0.2},
                               {0.1}, {0.5}};
  EXPECT_THROW((void)net.forward_inference(bad_rows), std::invalid_argument);
  EXPECT_THROW((void)net.forward_capture(bad_rows, 0),
               std::invalid_argument);
}

TEST(ActorCriticNet, FewerThanTwoActionsRejected) {
  util::Rng rng(18);
  EXPECT_THROW(
      ActorCriticNet(ArchSpec::pensieve(), pensieve_signature(), 1, rng),
      ArchError);
}

// ---- classifiers ------------------------------------------------------------------

TEST(Conv1DClassifier, LearnsRisingVsFalling) {
  util::Rng rng(19);
  Conv1DClassifier clf(16, 8, 5, 8, rng);
  std::vector<Vec> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    Vec x(16);
    const bool rising = i % 2 == 0;
    for (int t = 0; t < 16; ++t) {
      const double base = rising ? t / 16.0 : 1.0 - t / 16.0;
      x[t] = base + rng.normal(0.0, 0.05);
    }
    xs.push_back(std::move(x));
    ys.push_back(rising ? 1.0 : 0.0);
  }
  ClassifierTrainOptions opts;
  opts.epochs = 40;
  clf.train(xs, ys, opts);

  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    const double p = clf.predict(xs[i]);
    if ((p > 0.5) == (ys[i] > 0.5)) ++correct;
  }
  EXPECT_GT(correct, 180);
}

TEST(MlpClassifier, LearnsLinearlySeparable) {
  util::Rng rng(20);
  MlpClassifier clf(4, {8}, rng);
  std::vector<Vec> xs;
  std::vector<double> ys;
  for (int i = 0; i < 300; ++i) {
    Vec x(4);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    const double margin = x[0] + 0.5 * x[1] - 0.8 * x[2];
    if (std::abs(margin) < 0.2) continue;  // keep a margin
    xs.push_back(x);
    ys.push_back(margin > 0 ? 1.0 : 0.0);
  }
  ClassifierTrainOptions opts;
  opts.epochs = 60;
  clf.train(xs, ys, opts);
  int correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if ((clf.predict(xs[i]) > 0.5) == (ys[i] > 0.5)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / xs.size(), 0.92);
}

// Fixed-seed training of both classifiers, pinned against golden predict()
// outputs. 37 samples at batch size 16 leave a ragged final mini-batch, and
// the default options apply the L2 term, so every branch of the shared
// BCE loop is covered.
TEST(Classifier, FixedSeedTrainingMatchesGolden) {
  util::Rng data_rng(25);
  std::vector<Vec> series;
  std::vector<Vec> points;
  std::vector<double> labels;
  for (int i = 0; i < 37; ++i) {
    Vec s(12);
    const bool rising = i % 3 != 0;
    for (std::size_t t = 0; t < s.size(); ++t) {
      const double base = rising ? t / 12.0 : 1.0 - t / 12.0;
      s[t] = base + data_rng.normal(0.0, 0.1);
    }
    series.push_back(std::move(s));
    Vec p(5);
    for (double& v : p) v = data_rng.uniform(-1.0, 1.0);
    points.push_back(std::move(p));
    labels.push_back(rising ? 0.9 : 0.1);
  }
  ClassifierTrainOptions opts;
  opts.epochs = 7;

  util::Rng rng(26);
  Conv1DClassifier cnn(12, 4, 3, 6, rng);
  cnn.train(series, labels, opts);
  MlpClassifier mlp(5, {8, 6}, rng);
  mlp.train(points, labels, opts);

  std::string out;
  for (std::size_t i = 0; i < series.size(); ++i) {
    out += "cnn " + golden::hex(cnn.predict(series[i])) + " mlp " +
           golden::hex(mlp.predict(points[i])) + "\n";
  }
  golden::expect_golden("classifiers.txt", "fixed-seed", out);
}

TEST(Classifier, SoftLabelsAccepted) {
  util::Rng rng(21);
  MlpClassifier clf(2, {4}, rng);
  const std::vector<Vec> xs = {{0.0, 1.0}, {1.0, 0.0}};
  const std::vector<double> ys = {0.8, 0.2};
  ClassifierTrainOptions opts;
  opts.epochs = 5;
  EXPECT_NO_THROW(clf.train(xs, ys, opts));
}

TEST(Classifier, RejectsBadLabels) {
  util::Rng rng(22);
  MlpClassifier clf(2, {4}, rng);
  const std::vector<Vec> xs = {{0.0, 1.0}};
  ClassifierTrainOptions opts;
  EXPECT_THROW(clf.train(xs, {1.5}, opts), std::invalid_argument);
  EXPECT_THROW(clf.train(xs, {-0.1}, opts), std::invalid_argument);
  EXPECT_THROW(clf.train({}, {}, opts), std::invalid_argument);
  ClassifierTrainOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(clf.train(xs, {1.0}, zero_batch), std::invalid_argument);
}

TEST(Classifier, PredictRejectsWrongDim) {
  util::Rng rng(23);
  MlpClassifier clf(3, {4}, rng);
  EXPECT_THROW(clf.predict({1.0}), std::invalid_argument);
  Conv1DClassifier c2(8, 4, 3, 4, rng);
  EXPECT_THROW(c2.predict({1.0, 2.0}), std::invalid_argument);
}

TEST(Classifier, PredictIsConstAndStable) {
  // predict() runs a cache-free inference path: it is callable through a
  // const reference and repeated calls return the same score.
  util::Rng rng(24);
  MlpClassifier mlp(2, {4}, rng);
  const BinaryClassifier& mlp_ref = mlp;
  const double m1 = mlp_ref.predict({0.3, -0.2});
  EXPECT_EQ(m1, mlp_ref.predict({0.3, -0.2}));

  Conv1DClassifier cnn(8, 4, 3, 4, rng);
  const BinaryClassifier& cnn_ref = cnn;
  const Vec x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  const double c1 = cnn_ref.predict(x);
  EXPECT_EQ(c1, cnn_ref.predict(x));
  EXPECT_GT(c1, 0.0);
  EXPECT_LT(c1, 1.0);
}

}  // namespace
}  // namespace nada::nn
