#include "realm/jpeg/huffman.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace realm::jpeg {

void BitWriter::put(std::uint32_t value, int bits) {
  if (bits < 0 || bits > 32) throw std::invalid_argument("BitWriter::put: bits");
  acc_ = (acc_ << bits) | (value & ((std::uint64_t{1} << bits) - 1));
  acc_bits_ += bits;
  if (acc_bits_ >= 32) {
    acc_bits_ -= 32;
    const auto word = static_cast<std::uint32_t>(acc_ >> acc_bits_);
    const std::uint8_t be[4] = {
        static_cast<std::uint8_t>(word >> 24), static_cast<std::uint8_t>(word >> 16),
        static_cast<std::uint8_t>(word >> 8), static_cast<std::uint8_t>(word)};
    bytes_.insert(bytes_.end(), be, be + 4);
  }
}

std::vector<std::uint8_t> BitWriter::finish() {
  for (; acc_bits_ >= 8; acc_bits_ -= 8) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ >> (acc_bits_ - 8)));
  }
  if (acc_bits_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8 - acc_bits_)));
  }
  acc_ = 0;
  acc_bits_ = 0;
  return std::move(bytes_);
}

BitReader::BitReader(const std::vector<std::uint8_t>& bytes)
    : next_{bytes.data()}, end_{bytes.data() + bytes.size()} {}

void BitReader::refill() {
  if (end_ - next_ >= 8) {
    // Eight bytes below the valid bits; only the whole bytes that fit are
    // counted, and the rest are the same stream bits the next load ORs in.
    std::uint64_t w;
    std::memcpy(&w, next_, sizeof w);
    if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    window_ |= w >> window_bits_;
    next_ += (63 - window_bits_) >> 3;
    window_bits_ |= 56;
    return;
  }
  for (; window_bits_ <= 56 && next_ != end_; window_bits_ += 8) {
    window_ |= std::uint64_t{*next_++} << (56 - window_bits_);
  }
}

std::uint32_t BitReader::peek(int bits) {
  if (window_bits_ < bits) refill();
  return static_cast<std::uint32_t>(window_ >> (64 - bits));
}

std::uint32_t BitReader::get(int bits) {
  if (bits < 0 || bits > 32) throw std::invalid_argument("BitReader::get: bits");
  if (bits == 0) return 0;
  if (window_bits_ < bits) {
    refill();
    if (window_bits_ < bits) throw std::runtime_error("BitReader: past end");
  }
  const auto v = static_cast<std::uint32_t>(window_ >> (64 - bits));
  window_ <<= bits;
  window_bits_ -= bits;
  return v;
}

int BitReader::get_bit() { return static_cast<int>(get(1)); }

namespace {
constexpr int kMaxLen = 16;
}

HuffmanCode HuffmanCode::from_frequencies(const std::vector<std::uint64_t>& freq) {
  HuffmanCode hc;
  hc.lengths_.assign(freq.size(), 0);

  // Package-merge would be optimal; a plain Huffman tree with the JPEG
  // length-limiting adjustment is standard practice and what we use.
  struct Node {
    std::uint64_t w;
    int sym;  // >= 0 leaf, -1 internal
    int l, r;
  };
  std::vector<Node> nodes;
  using QE = std::pair<std::uint64_t, int>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      nodes.push_back({freq[s], static_cast<int>(s), -1, -1});
      pq.emplace(freq[s], static_cast<int>(nodes.size() - 1));
    }
  }
  if (nodes.empty()) {
    hc.assign_codes();
    return hc;
  }
  if (nodes.size() == 1) {
    hc.lengths_[static_cast<std::size_t>(nodes[0].sym)] = 1;
    hc.assign_codes();
    return hc;
  }
  while (pq.size() > 1) {
    const auto [wa, ia] = pq.top();
    pq.pop();
    const auto [wb, ib] = pq.top();
    pq.pop();
    nodes.push_back({wa + wb, -1, ia, ib});
    pq.emplace(wa + wb, static_cast<int>(nodes.size() - 1));
  }
  // Depth-first length assignment.
  std::vector<std::pair<int, int>> stack{{pq.top().second, 0}};
  while (!stack.empty()) {
    const auto [ni, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<std::size_t>(ni)];
    if (nd.sym >= 0) {
      hc.lengths_[static_cast<std::size_t>(nd.sym)] =
          static_cast<std::uint8_t>(std::max(depth, 1));
    } else {
      stack.emplace_back(nd.l, depth + 1);
      stack.emplace_back(nd.r, depth + 1);
    }
  }

  // Length-limit to kMaxLen: repeatedly shorten the deepest pair by moving a
  // leaf down next to a shallower one (JPEG Annex K style "adjust_bits").
  std::vector<int> count(static_cast<std::size_t>(kMaxLen + 32), 0);
  for (const auto l : hc.lengths_) {
    if (l > 0) ++count[l];
  }
  for (int len = static_cast<int>(count.size()) - 1; len > kMaxLen; --len) {
    while (count[static_cast<std::size_t>(len)] > 0) {
      int shorter = len - 2;
      while (shorter > 0 && count[static_cast<std::size_t>(shorter)] == 0) --shorter;
      count[static_cast<std::size_t>(len)] -= 2;
      count[static_cast<std::size_t>(len - 1)] += 1;
      count[static_cast<std::size_t>(shorter + 1)] += 2;
      count[static_cast<std::size_t>(shorter)] -= 1;
    }
  }
  // Re-distribute the adjusted lengths over symbols sorted by frequency
  // (most frequent gets the shortest length).
  std::vector<int> symbols;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) symbols.push_back(static_cast<int>(s));
  }
  std::sort(symbols.begin(), symbols.end(), [&](int x, int y) {
    return freq[static_cast<std::size_t>(x)] > freq[static_cast<std::size_t>(y)];
  });
  std::vector<std::uint8_t> new_lengths(hc.lengths_.size(), 0);
  std::size_t si = 0;
  for (int len = 1; len <= kMaxLen; ++len) {
    for (int c = 0; c < count[static_cast<std::size_t>(len)]; ++c) {
      new_lengths[static_cast<std::size_t>(symbols.at(si++))] =
          static_cast<std::uint8_t>(len);
    }
  }
  hc.lengths_ = std::move(new_lengths);
  hc.assign_codes();
  return hc;
}

HuffmanCode HuffmanCode::from_lengths(const std::vector<std::uint8_t>& lengths) {
  // Σ 2^(16 - length) over the coded symbols: above 2^16 no prefix code
  // has these lengths.  Checked before any table is sized or indexed.
  std::uint64_t kraft = 0;
  for (const std::uint8_t len : lengths) {
    if (len > kMaxLen) throw std::runtime_error("HuffmanCode: code length above 16");
    if (len > 0) kraft += std::uint64_t{1} << (kMaxLen - len);
  }
  if (kraft > (std::uint64_t{1} << kMaxLen)) {
    throw std::runtime_error("HuffmanCode: over-subscribed code lengths");
  }
  HuffmanCode hc;
  hc.lengths_ = lengths;
  hc.assign_codes();
  return hc;
}

void HuffmanCode::assign_codes() {
  codes_.assign(lengths_.size(), 0);
  first_code_.assign(kMaxLen + 2, 0);
  first_index_.assign(kMaxLen + 2, 0);
  sorted_symbols_.clear();

  // Canonical order: by (length, symbol).
  std::vector<int> order;
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] > 0) order.push_back(static_cast<int>(s));
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto la = lengths_[static_cast<std::size_t>(a)];
    const auto lb = lengths_[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });

  std::uint32_t code = 0;
  int prev_len = 0;
  std::uint32_t index = 0;
  for (const int sym : order) {
    const int len = lengths_[static_cast<std::size_t>(sym)];
    code <<= (len - prev_len);
    if (prev_len != len) {
      first_code_[static_cast<std::size_t>(len)] = code;
      first_index_[static_cast<std::size_t>(len)] = index;
    }
    codes_[static_cast<std::size_t>(sym)] = code;
    sorted_symbols_.push_back(sym);
    ++code;
    ++index;
    prev_len = len;
    // Track the first code of each length even when lengths are skipped.
  }
  // Fill first_code for lengths with no symbols so decode can skip them:
  // recompute cumulatively.
  std::uint32_t c = 0;
  std::uint32_t idx = 0;
  len_count_.assign(kMaxLen + 2, 0);
  for (const auto l : lengths_) {
    if (l > 0) ++len_count_[l];
  }
  for (int len = 1; len <= kMaxLen; ++len) {
    first_code_[static_cast<std::size_t>(len)] = c;
    first_index_[static_cast<std::size_t>(len)] = idx;
    c = (c + len_count_[static_cast<std::size_t>(len)]) << 1;
    idx += len_count_[static_cast<std::size_t>(len)];
  }

  // Each code of at most kLookupBits bits owns the prefixes it starts.
  lookup_.assign(std::size_t{1} << kLookupBits, 0);
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    const int len = lengths_[s];
    if (len == 0 || len > kLookupBits) continue;
    const std::size_t lo = std::size_t{codes_[s]} << (kLookupBits - len);
    const std::size_t hi = std::size_t{codes_[s] + 1} << (kLookupBits - len);
    std::fill(lookup_.begin() + static_cast<std::ptrdiff_t>(lo),
              lookup_.begin() + static_cast<std::ptrdiff_t>(hi),
              static_cast<std::uint32_t>(s << 8) | static_cast<std::uint32_t>(len));
  }
}

void HuffmanCode::encode(BitWriter& w, int symbol) const {
  const auto s = static_cast<std::size_t>(symbol);
  if (s >= lengths_.size() || lengths_[s] == 0) {
    throw std::invalid_argument("HuffmanCode::encode: symbol has no code");
  }
  w.put(codes_[s], lengths_[s]);
}

int HuffmanCode::decode(BitReader& r) const {
  // The prefix's code, when it has one of at most kLookupBits bits, is the
  // one the canonical loop would match.  get() throws past the end where
  // that loop would.
  const std::uint32_t entry = lookup_[r.peek(kLookupBits)];
  if (entry != 0) {
    (void)r.get(static_cast<int>(entry & 0xFF));
    return static_cast<int>(entry >> 8);
  }
  return decode_canonical(r);
}

int HuffmanCode::decode_canonical(BitReader& r) const {
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxLen; ++len) {
    code = (code << 1) | static_cast<std::uint32_t>(r.get_bit());
    const std::uint32_t n = len_count_[static_cast<std::size_t>(len)];
    if (n != 0 && code - first_code_[static_cast<std::size_t>(len)] < n) {
      const std::uint32_t idx = first_index_[static_cast<std::size_t>(len)] +
                                (code - first_code_[static_cast<std::size_t>(len)]);
      return sorted_symbols_.at(idx);
    }
  }
  throw std::runtime_error("HuffmanCode::decode: invalid code");
}

}  // namespace realm::jpeg
