#include "realm/net/protocol.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "realm/campaign/record.hpp"

namespace realm::net {

namespace {

void store_le(char* p, std::uint64_t v, int bytes) noexcept {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/// Longest u64 list element on the wire: 20 digits plus its comma.
constexpr std::size_t kMaxU64ElementBytes = 21;

/// Whether the 20 decimal digits at `p` are at most 2^64-1.  Any 19 digits
/// fit, so only the last step can overflow.
[[nodiscard]] bool fits_u64(const char* p) noexcept {
  std::uint64_t head = 0;
  for (int i = 0; i < 19; ++i) head = head * 10 + static_cast<unsigned>(p[i] - '0');
  const auto last = static_cast<std::uint64_t>(p[19] - '0');
  return head <= (std::numeric_limits<std::uint64_t>::max() - last) / 10;
}

// XXH64 primes, from the xxHash specification.
constexpr std::uint64_t kXxPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kXxPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kXxPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kXxPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kXxPrime5 = 0x27d4eb2f165667c5ULL;

/// Unaligned little-endian loads; one plain load on a little-endian host.
[[nodiscard]] std::uint64_t load_le64(const char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

[[nodiscard]] std::uint32_t load_le32(const char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

[[nodiscard]] std::uint64_t xxh64_round(std::uint64_t acc, std::uint64_t lane) noexcept {
  return std::rotl(acc + lane * kXxPrime2, 31) * kXxPrime1;
}

[[nodiscard]] std::uint64_t xxh64_merge(std::uint64_t acc, std::uint64_t v) noexcept {
  return (acc ^ xxh64_round(0, v)) * kXxPrime1 + kXxPrime4;
}

/// Checksum of a frame: XXH64 of the body, seeded with XXH64 of
/// LE(type) . LE(seq) . LE(body_len).  Those 16 bytes are the frame header
/// after the magic, so both directions hash them where they already lie,
/// and every header field is covered without concatenating.
[[nodiscard]] std::uint64_t frame_checksum(const char* header, std::string_view body) {
  return xxh64(body, xxh64(std::string_view{header + 4, 16}, 0));
}

}  // namespace

std::uint64_t xxh64(std::string_view bytes, std::uint64_t seed) noexcept {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::uint64_t acc = seed + kXxPrime5;
  if (bytes.size() >= 32) {
    // Four independent lanes over 32-byte stripes.
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxPrime1;
    for (const char* const last = end - 32; p <= last; p += 32) {
      v1 = xxh64_round(v1, load_le64(p));
      v2 = xxh64_round(v2, load_le64(p + 8));
      v3 = xxh64_round(v3, load_le64(p + 16));
      v4 = xxh64_round(v4, load_le64(p + 24));
    }
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    acc = xxh64_merge(acc, v1);
    acc = xxh64_merge(acc, v2);
    acc = xxh64_merge(acc, v3);
    acc = xxh64_merge(acc, v4);
  }
  acc += bytes.size();
  // Tail: 8-byte words, at most one 4-byte word, then single bytes.
  for (; end - p >= 8; p += 8) {
    acc = std::rotl(acc ^ xxh64_round(0, load_le64(p)), 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    acc = std::rotl(acc ^ (load_le32(p) * kXxPrime1), 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p != end; ++p) {
    acc = std::rotl(acc ^ (static_cast<unsigned char>(*p) * kXxPrime5), 11) * kXxPrime1;
  }
  // Avalanche.
  acc = (acc ^ (acc >> 33)) * kXxPrime2;
  acc = (acc ^ (acc >> 29)) * kXxPrime3;
  return acc ^ (acc >> 32);
}

const char* request_kind_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::kPing: return "ping";
    case MsgType::kMultiplyBatch: return "multiply_batch";
    case MsgType::kCharacterizeMc: return "characterize_mc";
    case MsgType::kCharacterizeExhaustive: return "characterize_exhaustive";
    case MsgType::kSynthesisCost: return "synthesis_cost";
    case MsgType::kSijLookup: return "sij_lookup";
    case MsgType::kStats: return "stats";
    case MsgType::kReplyOk:
    case MsgType::kReplyError: break;
  }
  return "unknown";
}

const char* error_code_name(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::kBadMagic: return "bad_magic";
    case ErrorCode::kBadChecksum: return "bad_checksum";
    case ErrorCode::kFrameTooLarge: return "frame_too_large";
    case ErrorCode::kUnknownType: return "unknown_type";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

std::string encode_frame(MsgType type, std::uint64_t seq, std::string_view body) {
  if (body.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("net: frame body exceeds u32 length");
  }
  char header[kFrameHeaderBytes];
  store_le(header, kFrameMagic, 4);
  store_le(header + 4, static_cast<std::uint32_t>(type), 4);
  store_le(header + 8, seq, 8);
  store_le(header + 16, body.size(), 4);
  store_le(header + 20, frame_checksum(header, body), 8);
  std::string out;
  out.reserve(kFrameHeaderBytes + body.size());
  out.append(header, kFrameHeaderBytes);
  out.append(body);
  return out;
}

std::string encode_error(std::uint64_t seq, ErrorCode code,
                         std::string_view message) {
  const std::string body = campaign::PayloadWriter{}
                               .field("code", static_cast<std::uint64_t>(code))
                               .field_str("message", message)
                               .str();
  return encode_frame(MsgType::kReplyError, seq, body);
}

ErrorReply parse_error(const std::string& body) {
  const campaign::PayloadReader r{body};
  ErrorReply e;
  e.code = static_cast<ErrorCode>(r.get_u64("code"));
  e.message = r.get_string("message");
  return e;
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (poisoned_) return;
  // Oversized bodies are skipped before buffering so memory stays bounded by
  // header + max_body regardless of what a hostile client sends.
  if (discard_ != 0) {
    const std::size_t skip = n < discard_ ? n : static_cast<std::size_t>(discard_);
    data += skip;
    n -= skip;
    discard_ -= skip;
    if (n == 0) return;
  }
  // Compact the consumed prefix before growing (amortized O(1) per byte).
  if (pos_ != 0 && (pos_ >= buf_.size() || pos_ > (std::size_t{1} << 16))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Status FrameDecoder::next(Frame& frame) {
  // Once the stream loses framing there is no way back: keep reporting it.
  if (poisoned_) return Status::kBadMagic;
  // A finished discard reports the oversized frame exactly once.
  if (discard_ == 0 && discard_type_ != 0) {
    frame.type = static_cast<MsgType>(discard_type_);
    frame.seq = discard_seq_;
    frame.body.clear();
    discard_type_ = 0;
    discard_seq_ = 0;
    return Status::kTooLarge;
  }
  if (buffered() < kFrameHeaderBytes) return Status::kNeedMore;
  const char* h = buf_.data() + pos_;
  if (load_le32(h) != kFrameMagic) {
    poisoned_ = true;
    return Status::kBadMagic;
  }
  const std::uint32_t type = load_le32(h + 4);
  const std::uint64_t seq = load_le64(h + 8);
  const std::uint32_t body_len = load_le32(h + 16);
  const std::uint64_t checksum = load_le64(h + 20);
  if (body_len > max_body_) {
    // Enter discard mode: drop whatever body bytes are already buffered and
    // remember how many are still owed by the stream.
    const std::size_t have = buffered() - kFrameHeaderBytes;
    const std::size_t eat = have < body_len ? have : body_len;
    pos_ += kFrameHeaderBytes + eat;
    discard_ = body_len - eat;
    if (discard_ != 0) {
      discard_type_ = type;
      discard_seq_ = seq;
      return Status::kNeedMore;
    }
    frame.type = static_cast<MsgType>(type);
    frame.seq = seq;
    frame.body.clear();
    return Status::kTooLarge;
  }
  if (buffered() < kFrameHeaderBytes + body_len) return Status::kNeedMore;
  const std::string_view body{h + kFrameHeaderBytes, body_len};
  frame.type = static_cast<MsgType>(type);
  frame.seq = seq;
  pos_ += kFrameHeaderBytes + body_len;
  if (frame_checksum(h, body) != checksum) {
    frame.body.clear();
    return Status::kBadChecksum;
  }
  frame.body.assign(body);
  return Status::kFrame;
}

void append_u64_list(std::string& out, const std::vector<std::uint64_t>& v) {
  // One up-front size: at most 20 digits per element plus a comma between
  // elements, so no element can regrow the string mid-pass.
  const std::size_t base = out.size();
  out.resize(base + kMaxU64ElementBytes * v.size());
  char* p = out.data() + base;
  char* const end = out.data() + out.size();
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) *p++ = ',';
    p = std::to_chars(p, end, v[i]).ptr;
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

std::string encode_u64_list(const std::vector<std::uint64_t>& v) {
  std::string out;
  append_u64_list(out, v);
  return out;
}

std::vector<std::uint64_t> parse_u64_list(std::string_view s) {
  std::vector<std::uint64_t> out;
  if (s.empty()) return out;
  // Every element takes at least one digit and every separator one comma.
  out.reserve(s.size() / 2 + 1);
  const char* p = s.data();
  const char* const end = p + s.size();
  for (;;) {
    const char* const first = p;
    std::uint64_t v = 0;  // wraps past 19 digits; checked below
    for (; p != end; ++p) {
      const auto d = static_cast<unsigned>(static_cast<unsigned char>(*p) - '0');
      if (d >= 10) break;
      v = v * 10 + d;
    }
    const auto digits = static_cast<std::size_t>(p - first);
    if (digits == 0 || digits > 20) {
      throw std::runtime_error("net: u64 list element " + std::to_string(out.size()) +
                               " is not 1 to 20 digits");
    }
    if (digits == 20 && !fits_u64(first)) {
      throw std::runtime_error("net: u64 list element " + std::to_string(out.size()) +
                               " exceeds 2^64-1");
    }
    out.push_back(v);
    if (p == end) return out;
    if (*p != ',') {
      throw std::runtime_error("net: u64 list element " + std::to_string(out.size() - 1) +
                               " is followed by a byte other than ','");
    }
    ++p;
  }
}

std::string encode_double_list(const std::vector<double>& v) {
  std::string out;
  char buf[48];
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out.push_back(',');
    std::snprintf(buf, sizeof buf, "%a", v[i]);
    out += buf;
  }
  return out;
}

std::vector<double> parse_double_list(const std::string& s) {
  std::vector<double> out;
  if (s.empty()) return out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(pos, comma - pos);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end == tok.c_str() || *end != '\0') {
      throw std::runtime_error("net: bad double list element '" + tok + "'");
    }
    out.push_back(d);
    pos = comma + 1;
  }
  return out;
}

}  // namespace realm::net
