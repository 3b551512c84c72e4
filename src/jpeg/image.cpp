#include "realm/jpeg/image.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>

namespace realm::jpeg {

Image::Image(int width, int height, std::uint8_t fill)
    : width_{width}, height_{height} {
  if (width < 0 || height < 0) throw std::invalid_argument("Image: negative size");
  pixels_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
                 fill);
}

std::uint8_t Image::at(int x, int y) const {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) {
    throw std::out_of_range("Image::at");
  }
  return pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
}

void Image::set(int x, int y, std::uint8_t v) {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) {
    throw std::out_of_range("Image::set");
  }
  pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x)] = v;
}

void write_pgm(const Image& img, const std::string& path) {
  std::ofstream os{path, std::ios::binary};
  if (!os) throw std::runtime_error("write_pgm: cannot open " + path);
  os << "P5\n" << img.width() << ' ' << img.height() << "\n255\n";
  os.write(reinterpret_cast<const char*>(img.pixels().data()),
           static_cast<std::streamsize>(img.pixels().size()));
  if (!os) throw std::runtime_error("write_pgm: write failed for " + path);
}

Image read_pgm(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw std::runtime_error("read_pgm: cannot open " + path);
  std::string magic;
  is >> magic;
  if (magic != "P5") throw std::runtime_error("read_pgm: not a binary PGM: " + path);
  int w = 0, h = 0, maxval = 0;
  // Skip comments between header tokens.
  const auto next_int = [&](int& out) {
    while (is >> std::ws && is.peek() == '#') {
      std::string line;
      std::getline(is, line);
    }
    is >> out;
  };
  next_int(w);
  next_int(h);
  next_int(maxval);
  if (!is || w <= 0 || h <= 0 || maxval != 255) {
    throw std::runtime_error("read_pgm: bad header in " + path);
  }
  is.get();  // single whitespace before raster
  // Check the claimed raster against the bytes the file holds before
  // allocating it: a header alone must not make the reader commit memory.
  const std::streampos raster = is.tellg();
  is.seekg(0, std::ios::end);
  if (!is || static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) >
                 static_cast<std::uint64_t>(is.tellg() - raster)) {
    throw std::runtime_error("read_pgm: truncated raster in " + path);
  }
  is.seekg(raster);
  Image img{w, h};
  is.read(reinterpret_cast<char*>(img.pixels().data()),
          static_cast<std::streamsize>(img.pixels().size()));
  if (!is) throw std::runtime_error("read_pgm: truncated raster in " + path);
  return img;
}

}  // namespace realm::jpeg
