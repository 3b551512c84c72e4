// Measured throughput ladder for the batched JPEG engine (DESIGN.md §12).
// Encode and decode each run scalar reference → batched → batched+threads
// on REALM16, asserting bit-identical outputs at every rung: the bench
// exits 1 on any byte or pixel mismatch against the library's
// encode_plane_reference / decode_plane_reference oracles.  It reports the
// speedups; `speedup_batched_vs_scalar` (single-threaded JPEG encode) is the
// CI-gated floor.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/quant.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multipliers/registry.hpp"
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

  // JPEG ladder: scalar reference -> batched -> batched+threads.
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

  std::printf("batched JPEG engine ladder — %s, %dx%d, --threads=%d\n",
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
  bench::print_rule(74);
  std::printf("all rungs bit-identical to the scalar reference path.\n\n");

  bench::write_outputs(args, sink, "bench_out/BENCH_apps.json");
  return 0;
}
