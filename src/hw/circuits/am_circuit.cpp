#include <vector>

#include "builders.hpp"
#include "realm/hw/components.hpp"

namespace realm::hw {

Module build_am(int n, int nb, mult::AmVariant variant) {
  Module m{std::string{variant == mult::AmVariant::kAm1 ? "am1_" : "am2_"} +
           std::to_string(n) + "_nb" + std::to_string(nb)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  const int wp = 2 * n;
  const int lo_cols = wp - nb;

  // Partial-product rows at their shifted positions.
  std::vector<Bus> layer;
  layer.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Bus row(static_cast<std::size_t>(wp), kConst0);
    for (int j = 0; j < n; ++j) {
      row[static_cast<std::size_t>(i + j)] = m.and2(a[static_cast<std::size_t>(j)],
                                                    b[static_cast<std::size_t>(i)]);
    }
    layer.push_back(std::move(row));
  }

  // Carry-free XOR reduction; error vectors (dropped carries) masked to the
  // nb recovered columns and accumulated with adders (AM1) or ORs (AM2).
  Bus err_acc(static_cast<std::size_t>(wp), kConst0);
  while (layer.size() > 1) {
    std::vector<Bus> next;
    next.reserve(layer.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const Bus& x = layer[i];
      const Bus& y = layer[i + 1];
      Bus sum(static_cast<std::size_t>(wp));
      Bus err(static_cast<std::size_t>(wp), kConst0);
      for (int c = 0; c < wp; ++c) {
        sum[static_cast<std::size_t>(c)] = m.xor2(x[static_cast<std::size_t>(c)],
                                                  y[static_cast<std::size_t>(c)]);
        if (c + 1 >= lo_cols && c + 1 < wp) {
          err[static_cast<std::size_t>(c + 1)] =
              m.and2(x[static_cast<std::size_t>(c)], y[static_cast<std::size_t>(c)]);
        }
      }
      next.push_back(std::move(sum));
      if (variant == mult::AmVariant::kAm1) {
        err_acc = ripple_add(m, err_acc, err).sum;
      } else {
        for (int c = 0; c < wp; ++c) {
          err_acc[static_cast<std::size_t>(c)] = m.or2(
              err_acc[static_cast<std::size_t>(c)], err[static_cast<std::size_t>(c)]);
        }
      }
    }
    if (layer.size() % 2 != 0) next.push_back(layer.back());
    layer = std::move(next);
  }

  const Bus p = ripple_add(m, layer.front(), err_acc).sum;
  m.add_output("p", p);
  return m;
}

}  // namespace realm::hw
