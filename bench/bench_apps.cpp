// Extended application-level evaluation beyond Table II's JPEG study, in two
// parts:
//
//  1. A measured throughput ladder for the batched application engine
//     (DESIGN.md §12): JPEG encode/decode, MLP inference, and FIR/Sobel
//     filtering each run scalar reference → batched → batched+threads on
//     REALM16, asserting bit-identical outputs at every rung (the bench
//     exits 1 on any byte/pixel/prediction mismatch) and reporting the
//     speedups.  The scalar rung is the named oracle: the library's
//     encode_plane_reference / decode_plane_reference for JPEG, and the
//     realm_test_support oracles for MLP and DSP.
//     `speedup_batched_vs_scalar` (single-threaded JPEG encode) is the
//     CI-gated floor.
//
//  2. The quality table: the error-resilient workloads the paper's
//     introduction motivates — multimedia filtering (Gaussian blur), feature
//     extraction (Sobel), neural inference (MLP on two-moons), and FP
//     multiplication with an approximate mantissa core — per design.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "app_oracles.hpp"
#include "bench_common.hpp"
#include "realm/dsp/filter.hpp"
#include "realm/fp/float_multiplier.hpp"
#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/quant.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/nn/mlp.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/obs/metrics_sink.hpp"

using namespace realm;
using bench::best_seconds;

namespace {

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bit-identity violation: %s\n", what);
    std::exit(1);
  }
}

bool same_compressed(const jpeg::Compressed& a, const jpeg::Compressed& b) {
  return jpeg::serialize(a) == jpeg::serialize(b);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  obs::MetricsSink sink{"apps"};
  sink.meta("image_size", args.image_size);
  sink.meta("threads", args.threads);

  const std::string ladder_spec = "realm:m=16,t=8";
  const auto lmul = mult::make_multiplier(ladder_spec, 16);

  // --- 1. JPEG ladder: scalar reference -> batched -> batched+threads ---
  const auto limg = jpeg::synthetic_cameraman(args.image_size);
  const auto qtable = jpeg::scaled_table(50);
  jpeg::CodecOptions ref_opts;
  ref_opts.quality = 50;
  ref_opts.umul = lmul->as_function();
  jpeg::CodecOptions b1_opts;
  b1_opts.quality = 50;
  b1_opts.mul = lmul.get();
  b1_opts.threads = 1;
  jpeg::CodecOptions bt_opts = b1_opts;
  bt_opts.threads = args.threads;

  const auto c_ref = jpeg::encode_plane_reference(limg, qtable, ref_opts);
  const auto c_b1 = jpeg::encode(limg, b1_opts);
  const auto c_bt = jpeg::encode(limg, bt_opts);
  require(same_compressed(c_ref, c_b1), "JPEG bytes: batched != scalar reference");
  require(same_compressed(c_ref, c_bt), "JPEG bytes: threaded != single-thread batch");
  const auto d_ref = jpeg::decode_plane_reference(c_ref, qtable, ref_opts);
  const auto d_b1 = jpeg::decode(c_ref, b1_opts);
  const auto d_bt = jpeg::decode(c_ref, bt_opts);
  require(d_ref.pixels() == d_b1.pixels(), "JPEG pixels: batched != scalar reference");
  require(d_ref.pixels() == d_bt.pixels(), "JPEG pixels: threaded != single-thread batch");

  const double t_enc_ref =
      best_seconds([&] { (void)jpeg::encode_plane_reference(limg, qtable, ref_opts); });
  const double t_enc_b1 = best_seconds([&] { (void)jpeg::encode(limg, b1_opts); });
  const double t_enc_bt = best_seconds([&] { (void)jpeg::encode(limg, bt_opts); });
  const double t_dec_ref =
      best_seconds([&] { (void)jpeg::decode_plane_reference(c_ref, qtable, ref_opts); });
  const double t_dec_b1 = best_seconds([&] { (void)jpeg::decode(c_ref, b1_opts); });
  const double t_dec_bt = best_seconds([&] { (void)jpeg::decode(c_ref, bt_opts); });
  const double mpix = 1e-6 * limg.width() * limg.height();

  std::printf("batched application engine ladder — %s, %dx%d, --threads=%d\n",
              lmul->name().c_str(), limg.width(), limg.height(), args.threads);
  bench::print_rule(74);
  std::printf("%-22s %14s %14s %10s\n", "stage", "scalar Mpix/s", "rung Mpix/s",
              "speedup");
  const auto row = [&](const char* stage, double t_ref, double t) {
    std::printf("%-22s %14.2f %14.2f %9.2fx\n", stage, mpix / t_ref, mpix / t,
                t_ref / t);
  };
  row("jpeg encode batched", t_enc_ref, t_enc_b1);
  row("jpeg encode +threads", t_enc_ref, t_enc_bt);
  row("jpeg decode batched", t_dec_ref, t_dec_b1);
  row("jpeg decode +threads", t_dec_ref, t_dec_bt);
  sink.metric("jpeg_encode_mpix_per_s_scalar", mpix / t_enc_ref);
  sink.metric("jpeg_encode_mpix_per_s_batched", mpix / t_enc_b1);
  sink.metric("jpeg_encode_mpix_per_s_threads", mpix / t_enc_bt);
  sink.metric("speedup_batched_vs_scalar", t_enc_ref / t_enc_b1);
  sink.metric("speedup_threads_vs_batched", t_enc_b1 / t_enc_bt);
  sink.metric("jpeg_decode_speedup_batched_vs_scalar", t_dec_ref / t_dec_b1);

  // --- 2. MLP ladder ---
  nn::Mlp net{{2, 16, 2}, 0x1234};
  const auto train = nn::make_two_moons(600, 0.25, 0xDA7A);
  const auto test = nn::make_two_moons(1000, 0.25, 0x7E57);
  net.train(train, 60, 0.05);
  const auto qnet = net.quantize(8);
  const auto lf = lmul->as_function();
  const auto pred_batch = nn::predict_fixed_batch(qnet, test.x, *lmul);
  for (std::size_t i = 0; i < test.x.size(); ++i) {
    require(pred_batch[i] == nn::predict_fixed_reference(qnet, test.x[i], lf),
            "MLP predictions: batched != scalar reference");
  }
  const double t_nn_ref =
      best_seconds([&] { (void)nn::accuracy_fixed_reference(qnet, test, lf); });
  const double t_nn_b =
      best_seconds([&] { (void)nn::accuracy_fixed_batch(qnet, test, *lmul); });
  row("mlp inference batched", t_nn_ref, t_nn_b);
  sink.metric("nn_speedup_batched_vs_scalar", t_nn_ref / t_nn_b);

  // --- 3. DSP ladder ---
  const auto dimg = jpeg::synthetic_cameraman(std::min(args.image_size, 256));
  const auto blur_s = dsp::gaussian_blur_reference(dimg, 1.5, lf);
  const auto blur_b = dsp::gaussian_blur_batch(dimg, 1.5, *lmul);
  require(blur_s.pixels() == blur_b.pixels(), "blur pixels: batched != scalar reference");
  const auto sob_s = dsp::sobel_reference(dimg, lf);
  const auto sob_b = dsp::sobel_batch(dimg, *lmul);
  require(sob_s.pixels() == sob_b.pixels(), "sobel pixels: batched != scalar reference");
  const double t_blur_ref =
      best_seconds([&] { (void)dsp::gaussian_blur_reference(dimg, 1.5, lf); });
  const double t_blur_b =
      best_seconds([&] { (void)dsp::gaussian_blur_batch(dimg, 1.5, *lmul); });
  const double t_sob_ref = best_seconds([&] { (void)dsp::sobel_reference(dimg, lf); });
  const double t_sob_b = best_seconds([&] { (void)dsp::sobel_batch(dimg, *lmul); });
  row("gaussian blur batched", t_blur_ref, t_blur_b);
  row("sobel batched", t_sob_ref, t_sob_b);
  sink.metric("dsp_blur_speedup_batched_vs_scalar", t_blur_ref / t_blur_b);
  sink.metric("dsp_sobel_speedup_batched_vs_scalar", t_sob_ref / t_sob_b);
  bench::print_rule(74);
  std::printf("all rungs bit-identical to the scalar reference path.\n\n");

  // --- 4. Quality table (batched paths; values identical to scalar) ---
  const std::vector<std::string> specs = {"accurate", "realm:m=16,t=8", "realm:m=8,t=8",
                                          "mbm:t=0",  "calm",           "drum:k=6",
                                          "ssm:m=8"};
  const auto exact = mult::make_multiplier("accurate", 16);
  const auto img = dimg;
  const auto blur_ref = dsp::gaussian_blur_batch(img, 1.5, *exact);
  const auto sobel_ref = dsp::sobel_batch(img, *exact);
  std::printf("float MLP reference accuracy: %.1f %%\n\n", 100.0 * net.accuracy(test));

  // FP32 mean relative error over random operands.
  const auto fp_mean_error = [&](const std::string& spec) {
    const auto fpm = fp::ApproxFloatMultiplier::from_spec(spec);
    num::Xoshiro256 rng{0xF10A7};
    double mean = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const auto a = static_cast<float>(0.001 + 1e4 * rng.uniform());
      const auto b = static_cast<float>(0.001 + 1e4 * rng.uniform());
      const double e = static_cast<double>(a) * static_cast<double>(b);
      mean += std::fabs((static_cast<double>(fpm.multiply(a, b)) - e) / e);
    }
    return 100.0 * mean / n;
  };

  std::printf("%-18s %12s %12s %12s %14s\n", "design", "blur PSNR", "sobel PSNR",
              "MLP acc %", "FP32 mean %");
  bench::print_rule(74);
  for (const auto& spec : specs) {
    const auto mul = mult::make_multiplier(spec, 16);
    const auto blur = dsp::gaussian_blur_batch(img, 1.5, *mul);
    const auto edges = dsp::sobel_batch(img, *mul);
    const double blur_psnr = jpeg::psnr(blur_ref, blur);
    const double sobel_psnr = jpeg::psnr(sobel_ref, edges);
    const double acc = 100.0 * nn::accuracy_fixed_batch(qnet, test, *mul);
    const double fpe = fp_mean_error(spec);
    const auto fmt = [](double v) {
      return std::isinf(v) ? 99.9 : v;  // identical images -> "exact"
    };
    std::printf("%-18s %12.1f %12.1f %12.1f %14.3f\n", mul->name().c_str(),
                fmt(blur_psnr), fmt(sobel_psnr), acc, fpe);
    sink.metric("blur_psnr/" + spec, fmt(blur_psnr));  // finite for JSON
    sink.metric("mlp_acc/" + spec, acc);
  }
  bench::print_rule(74);
  std::printf("shape check: REALM tracks the exact results across all four\n"
              "applications; cALM's bias visibly hurts blur quality and FP error.\n\n");
  bench::write_outputs(args, sink, "bench_out/BENCH_apps.json");
  return 0;
}
