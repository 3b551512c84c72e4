// JPEG compression with an approximate multiplier in the DCT datapath — the
// paper's application-level evaluation as a command-line tool.
//
//   $ ./jpeg_compression [multiplier-spec] [input.pgm]
//
// Without arguments it compresses the synthetic cameraman scene with
// REALM16 (t=8) and with the exact multiplier, reporting PSNR and the
// compressed size, and writes the reconstructions as PGM files.

#include <cstdio>
#include <string>

#include "realm/realm.hpp"

int main(int argc, char** argv) {
  using namespace realm;
  const std::string spec = argc > 1 ? argv[1] : "realm:m=16,t=8";

  jpeg::Image input;
  std::string input_name;
  if (argc > 2) {
    input = jpeg::read_pgm(argv[2]);
    input_name = argv[2];
    if (input.width() % 8 != 0 || input.height() % 8 != 0) {
      std::fprintf(stderr, "image dimensions must be multiples of 8\n");
      return 1;
    }
  } else {
    input = jpeg::synthetic_cameraman(512);
    input_name = "synthetic_cameraman (512x512)";
    jpeg::write_pgm(input, "jpeg_input.pgm");
    std::printf("wrote original to jpeg_input.pgm\n");
  }

  const auto run = [&](const std::string& mul_spec) {
    const auto mul = mult::make_multiplier(mul_spec, 16);
    jpeg::CodecOptions opts;
    opts.quality = 50;
    opts.mul = mul.get();
    const auto compressed = jpeg::encode(input, opts);
    const jpeg::Image rec = jpeg::decode(compressed, opts);
    std::printf("%-18s PSNR %6.2f dB   %zu bytes (%.2f:1)\n", mul->name().c_str(),
                jpeg::psnr(input, rec), compressed.size_bytes(),
                static_cast<double>(input.pixels().size()) /
                    static_cast<double>(compressed.size_bytes()));
    jpeg::write_compressed(compressed, "jpeg_" + mul_spec.substr(0, mul_spec.find(':')) +
                                           ".rjpg");
    return rec;
  };

  std::printf("compressing %s at quality 50\n\n", input_name.c_str());
  const jpeg::Image exact_rec = run("accurate");
  const jpeg::Image approx_rec = run(spec);

  jpeg::write_pgm(exact_rec, "jpeg_exact.pgm");
  jpeg::write_pgm(approx_rec, "jpeg_approx.pgm");
  std::printf("\nwrote reconstructions to jpeg_exact.pgm / jpeg_approx.pgm\n");
  std::printf("difference between the two reconstructions: %.2f dB PSNR\n",
              jpeg::psnr(exact_rec, approx_rec));
  return 0;
}
