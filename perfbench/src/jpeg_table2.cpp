// jpeg_table2: the Table II JPEG evaluation.
//
// One pass round-trips the three jpeg::table2_images(512) through every
// mult::table2_specs() design: encode -> decode -> PSNR, with the design as
// CodecOptions::mul on 2 engine threads, in an order of (spec, image) pairs
// drawn from --seed.  One op is one pixel round-tripped.  This is the only
// workload where the codec panels, the quantizer and the entropy stage run,
// and where the kernels run as signed multiply_row_batch.

#include <memory>
#include <string>
#include <vector>

#include "families.hpp"
#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/quant.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multipliers/registry.hpp"
#include "timed_multiplier.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr int kImageSize = 512;
constexpr int kQuality = 50;
constexpr std::uint64_t kOrderStream = 0x09de7;

[[nodiscard]] bool same_stream(const realm::jpeg::Compressed& x,
                               const realm::jpeg::Compressed& y) {
  return x.payload == y.payload && x.dc_code_lengths == y.dc_code_lengths &&
         x.ac_code_lengths == y.ac_code_lengths;
}

class JpegTable2 final : public ComputeWorkload {
 public:
  explicit JpegTable2(std::uint64_t seed) : seed_{seed} {}

  void setup(Report& report) override {
    images_ = realm::jpeg::table2_images(kImageSize);
    for (const std::string& spec : realm::mult::table2_specs()) {
      Design d;
      d.model = realm::mult::make_multiplier(spec, kWidth);
      d.timed = std::make_unique<TimedMultiplier>(*d.model);
      designs_.push_back(std::move(d));
    }
    for (std::size_t s = 0; s < designs_.size(); ++s) {
      for (std::size_t i = 0; i < images_.size(); ++i) pairs_.push_back({s, i});
    }
    for (std::size_t k = pairs_.size(); k > 1; --k) {
      std::swap(pairs_[k - 1], pairs_[draw(seed_, kOrderStream, k) % k]);
    }
    // One pair per run against the scalar reference codec.
    const std::size_t u = draw(seed_, kOrderStream, 0) % pairs_.size();
    const Pair& p = pairs_[u];
    const realm::Multiplier& m = *designs_[p.spec].model;
    realm::jpeg::CodecOptions ref;
    ref.quality = kQuality;
    ref.umul = m.as_function();
    if (!same_stream(realm::jpeg::encode(images_[p.image].image, options(m)),
                     realm::jpeg::encode_plane_reference(images_[p.image].image,
                                                         realm::jpeg::scaled_table(kQuality),
                                                         ref))) {
      report.fail(m.name() + " on " + images_[p.image].name +
                  ": batched encode differs from encode_plane_reference");
      mark_bad(u);
    }
  }

  std::vector<Unit> pass(bool traced, Tracer& tracer, std::int64_t pass_span) override {
    std::vector<Unit> units;
    units.reserve(pairs_.size());
    for (const Pair& p : pairs_) {
      Design& d = designs_[p.spec];
      const realm::jpeg::Image& img = images_[p.image].image;
      const realm::jpeg::CodecOptions opts =
          options(traced ? static_cast<const realm::Multiplier&>(*d.timed) : *d.model);
      const std::int64_t unit = tracer.open("jpeg::roundtrip", pass_span);
      const std::int64_t t0 = now_ns();
      std::int64_t span = tracer.open("jpeg::encode", unit);
      const realm::jpeg::Compressed c = realm::jpeg::encode(img, opts);
      tracer.close(span);
      const std::int64_t t1 = now_ns();
      span = tracer.open("jpeg::decode", unit);
      const realm::jpeg::Image out = realm::jpeg::decode(c, opts);
      tracer.close(span);
      const std::int64_t t2 = now_ns();
      span = tracer.open("jpeg::psnr", unit);
      const double db = realm::jpeg::psnr(img, out);
      tracer.close(span);
      const std::int64_t t3 = now_ns();
      tracer.close(unit);
      if (traced) {
        const KernelTotals k = d.timed->harvest(tracer, unit);
        encode_ns_ += static_cast<double>(t1 - t0);
        decode_ns_ += static_cast<double>(t2 - t1);
        psnr_ns_ += static_cast<double>(t3 - t2);
        codec_self_ns_ += static_cast<double>(t2 - t0) - k.wall_ns();
        kernel_ns_ += k.ns[static_cast<unsigned>(Entry::kRowBatch)];
        kernel_elems_ += k.items[static_cast<unsigned>(Entry::kRowBatch)];
        ++images_traced_;
      }
      std::uint64_t h = fnv1a(std::string_view{reinterpret_cast<const char*>(c.payload.data()),
                                               c.payload.size()});
      for (const auto* lengths : {&c.dc_code_lengths, &c.ac_code_lengths}) {
        h = fnv1a(std::string_view{reinterpret_cast<const char*>(lengths->data()),
                                   lengths->size()},
                  h);
      }
      const bool ok = out.width() == img.width() && out.height() == img.height();
      const auto pixels = static_cast<std::uint64_t>(img.width()) *
                          static_cast<std::uint64_t>(img.height());
      units.push_back(Unit{pixels, fnv1a_value(db, h), t3 - t0, ok});
    }
    return units;
  }

  void layer_metrics(Report& report, double /*traced_wall_ns*/) const override {
    const double n = images_traced_ > 0 ? static_cast<double>(images_traced_) : 1.0;
    report.layers["jpeg.encode_ms_per_image"] = encode_ns_ / n / 1e6;
    report.layers["jpeg.decode_ms_per_image"] = decode_ns_ / n / 1e6;
    report.layers["jpeg.psnr_ms_per_image"] = psnr_ns_ / n / 1e6;
    report.layers["jpeg.codec_self_ms_per_image"] = codec_self_ns_ / n / 1e6;
    report.layers["mult.row_batch_ns_per_elem.jpeg"] =
        kernel_elems_ > 0 ? static_cast<double>(kernel_ns_) / static_cast<double>(kernel_elems_)
                          : 0.0;
    if (codec_self_ns_ < 0.0) report.fail("codec self time is negative: kernel timing is off");
  }

 private:
  struct Design {
    std::unique_ptr<realm::Multiplier> model;
    std::unique_ptr<TimedMultiplier> timed;
  };
  struct Pair {
    std::size_t spec = 0;
    std::size_t image = 0;
  };

  [[nodiscard]] static realm::jpeg::CodecOptions options(const realm::Multiplier& m) {
    realm::jpeg::CodecOptions o;
    o.quality = kQuality;
    o.mul = &m;
    o.threads = kEngineThreads;
    return o;
  }

  std::uint64_t seed_;
  std::vector<realm::jpeg::NamedImage> images_;
  std::vector<Design> designs_;
  std::vector<Pair> pairs_;
  double encode_ns_ = 0.0;
  double decode_ns_ = 0.0;
  double psnr_ns_ = 0.0;
  double codec_self_ns_ = 0.0;
  std::int64_t kernel_ns_ = 0;
  std::uint64_t kernel_elems_ = 0;
  std::uint64_t images_traced_ = 0;
};

}  // namespace

std::unique_ptr<ComputeWorkload> make_jpeg_table2(std::uint64_t seed) {
  return std::make_unique<JpegTable2>(seed);
}

}  // namespace pb
