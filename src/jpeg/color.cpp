#include "realm/jpeg/color.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "realm/jpeg/quant.hpp"
#include "realm/jpeg/synthetic.hpp"

namespace realm::jpeg {
namespace {

std::uint8_t clamp8(int v) { return static_cast<std::uint8_t>(std::clamp(v, 0, 255)); }

// BT.601 full-range coefficients in Q16.
constexpr int kYr = 19595, kYg = 38470, kYb = 7471;          // 0.299/0.587/0.114
constexpr int kCbR = -11059, kCbG = -21709, kCbB = 32768;    // -0.1687/-0.3313/0.5
constexpr int kCrR = 32768, kCrG = -27439, kCrB = -5329;     // 0.5/-0.4187/-0.0813
constexpr int kRCr = 91881;                                  // 1.402
constexpr int kGCb = -22554, kGCr = -46802;                  // -0.3441/-0.7141
constexpr int kBCb = 116130;                                 // 1.772
constexpr int kHalf = 1 << 15;

}  // namespace

ColorImage::ColorImage(int width, int height) : width_{width}, height_{height} {
  if (width < 0 || height < 0) throw std::invalid_argument("ColorImage: negative size");
  pixels_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) * 3, 0);
}

std::array<std::uint8_t, 3> ColorImage::at(int x, int y) const {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) throw std::out_of_range("ColorImage");
  const std::size_t base =
      (static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
       static_cast<std::size_t>(x)) * 3;
  return {pixels_[base], pixels_[base + 1], pixels_[base + 2]};
}

void ColorImage::set(int x, int y, std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) throw std::out_of_range("ColorImage");
  const std::size_t base =
      (static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
       static_cast<std::size_t>(x)) * 3;
  pixels_[base] = r;
  pixels_[base + 1] = g;
  pixels_[base + 2] = b;
}

void write_ppm(const ColorImage& img, const std::string& path) {
  std::ofstream os{path, std::ios::binary};
  if (!os) throw std::runtime_error("write_ppm: cannot open " + path);
  os << "P6\n" << img.width() << ' ' << img.height() << "\n255\n";
  os.write(reinterpret_cast<const char*>(img.pixels().data()),
           static_cast<std::streamsize>(img.pixels().size()));
  if (!os) throw std::runtime_error("write_ppm: write failed for " + path);
}

ColorImage read_ppm(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw std::runtime_error("read_ppm: cannot open " + path);
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  is >> magic >> w >> h >> maxval;
  if (magic != "P6" || !is || w <= 0 || h <= 0 || maxval != 255) {
    throw std::runtime_error("read_ppm: bad header in " + path);
  }
  is.get();
  // Check the claimed raster against the bytes the file holds before
  // allocating it: a header alone must not make the reader commit memory.
  const std::streampos raster_start = is.tellg();
  is.seekg(0, std::ios::end);
  if (!is || 3 * static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) >
                 static_cast<std::uint64_t>(is.tellg() - raster_start)) {
    throw std::runtime_error("read_ppm: truncated raster in " + path);
  }
  is.seekg(raster_start);
  ColorImage img{w, h};
  std::vector<std::uint8_t> raster(static_cast<std::size_t>(w) *
                                   static_cast<std::size_t>(h) * 3);
  is.read(reinterpret_cast<char*>(raster.data()),
          static_cast<std::streamsize>(raster.size()));
  if (!is) throw std::runtime_error("read_ppm: truncated raster in " + path);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const std::size_t base =
          (static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
           static_cast<std::size_t>(x)) * 3;
      img.set(x, y, raster[base], raster[base + 1], raster[base + 2]);
    }
  }
  return img;
}

YCbCrPlanes rgb_to_ycbcr420(const ColorImage& img) {
  if (img.width() % 2 != 0 || img.height() % 2 != 0) {
    throw std::invalid_argument("rgb_to_ycbcr420: even dimensions required");
  }
  YCbCrPlanes out;
  out.y = Image{img.width(), img.height()};
  out.cb = Image{img.width() / 2, img.height() / 2};
  out.cr = Image{img.width() / 2, img.height() / 2};

  // Full-resolution chroma first, then box-filtered 2×2 to 4:2:0.
  for (int cy = 0; cy < img.height() / 2; ++cy) {
    for (int cx = 0; cx < img.width() / 2; ++cx) {
      int cb_acc = 0, cr_acc = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int x = 2 * cx + dx, y = 2 * cy + dy;
          const auto [r, g, b] = img.at(x, y);
          out.y.set(x, y, clamp8((kYr * r + kYg * g + kYb * b + kHalf) >> 16));
          cb_acc += 128 + ((kCbR * r + kCbG * g + kCbB * b + kHalf) >> 16);
          cr_acc += 128 + ((kCrR * r + kCrG * g + kCrB * b + kHalf) >> 16);
        }
      }
      out.cb.set(cx, cy, clamp8((cb_acc + 2) / 4));
      out.cr.set(cx, cy, clamp8((cr_acc + 2) / 4));
    }
  }
  return out;
}

ColorImage ycbcr420_to_rgb(const YCbCrPlanes& planes) {
  ColorImage img{planes.y.width(), planes.y.height()};
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const int yy = planes.y.at(x, y);
      const int cb = planes.cb.at(x / 2, y / 2) - 128;
      const int cr = planes.cr.at(x / 2, y / 2) - 128;
      img.set(x, y, clamp8(yy + ((kRCr * cr + kHalf) >> 16)),
              clamp8(yy + ((kGCb * cb + kGCr * cr + kHalf) >> 16)),
              clamp8(yy + ((kBCb * cb + kHalf) >> 16)));
    }
  }
  return img;
}

const std::array<std::uint16_t, 64>& base_chrominance_table() {
  static const std::array<std::uint16_t, 64> table{
      17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
      24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
      99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
      99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};
  return table;
}

std::array<std::uint16_t, 64> scaled_chroma_table(int quality) {
  if (quality < 1 || quality > 100) throw std::invalid_argument("quality in [1, 100]");
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<std::uint16_t, 64> out{};
  const auto& base = base_chrominance_table();
  for (std::size_t i = 0; i < 64; ++i) {
    const int v = (base[i] * scale + 50) / 100;
    out[i] = static_cast<std::uint16_t>(std::clamp(v, 1, 255));
  }
  return out;
}

CompressedColor encode_color(const ColorImage& img, const CodecOptions& opts) {
  if (img.width() % 16 != 0 || img.height() % 16 != 0) {
    throw std::invalid_argument("encode_color: dimensions must be multiples of 16");
  }
  const YCbCrPlanes planes = rgb_to_ycbcr420(img);
  CompressedColor out;
  out.y = encode_plane(planes.y, scaled_table(opts.quality), opts);
  const auto chroma_q = scaled_chroma_table(opts.quality);
  out.cb = encode_plane(planes.cb, chroma_q, opts);
  out.cr = encode_plane(planes.cr, chroma_q, opts);
  return out;
}

ColorImage decode_color(const CompressedColor& c, const CodecOptions& opts) {
  YCbCrPlanes planes;
  planes.y = decode_plane(c.y, scaled_table(c.y.quality), opts);
  const auto chroma_q = scaled_chroma_table(c.cb.quality);
  planes.cb = decode_plane(c.cb, chroma_q, opts);
  planes.cr = decode_plane(c.cr, chroma_q, opts);
  return ycbcr420_to_rgb(planes);
}

ColorImage roundtrip_color(const ColorImage& img, const CodecOptions& opts) {
  return decode_color(encode_color(img, opts), opts);
}

double psnr_color(const ColorImage& a, const ColorImage& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("psnr_color: size mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    const double d =
        static_cast<double>(a.pixels()[i]) - static_cast<double>(b.pixels()[i]);
    acc += d * d;
  }
  const double mse = acc / static_cast<double>(a.pixels().size());
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

ColorImage synthetic_color_scene(int size) {
  // Colorize the livingroom scene: warm walls, cool window light, a red rug
  // band and a green plant blob — deterministic by construction.
  const Image base = synthetic_livingroom(size);
  ColorImage img{size, size};
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      const int v = base.at(x, y);
      const double fx = (x + 0.5) / size, fy = (y + 0.5) / size;
      int r = v + static_cast<int>(18.0 * (1.0 - fy));   // warm top light
      int g = v;
      int b = v + static_cast<int>(22.0 * fx - 8.0);     // cool toward the right
      if (fy > 0.74) {                                   // red-ish rug
        r += 36;
        b -= 18;
      }
      if (fx > 0.86 && fy > 0.45 && fy < 0.68) {         // green plant
        g += 42;
        r -= 12;
      }
      img.set(x, y, clamp8(r), clamp8(g), clamp8(b));
    }
  }
  return img;
}

}  // namespace realm::jpeg
