// Wire protocol of the serving layer (realm-net/v2).
//
// Every message — request or reply, either direction — is one frame:
//
//   frame header   28 bytes (all integers little-endian, host-order free)
//     u32 magic       "RNF2" (0x32464e52)
//     u32 type        MsgType
//     u64 seq         client-chosen correlation id, echoed in the reply
//     u32 body_len
//     u64 checksum    XXH64(body, seed = XXH64(LE(type) . LE(seq) . LE(body_len), 0))
//   body           body_len bytes
//
// The framing mirrors the campaign journal records (campaign/record.hpp):
// length-prefixed, checksummed over lengths then content, little-endian.
// The checksum is XXH64 rather than the journal's FNV-1a because it hashes
// four independent 8-byte lanes per 32-byte stripe instead of waiting on one
// multiply per byte, and frames carry tens of KB.  There is no fallback for
// realm-net/v1 ("RNF1", FNV-1a): a v1 frame fails the magic check.
// Bodies are the campaign payload codec's line-oriented `name=value` text
// with C99 hex-float doubles, so a reply computed cold and a reply replayed
// from a warm store are byte-identical by construction (the stored payload
// *is* the reply body for the characterize/synthesis request kinds).
//
// FrameDecoder reassembles frames from an arbitrarily torn byte stream (the
// event loop feeds it whatever recv() returned).  Robustness contract:
//   * an oversized body_len is consumed by discarding exactly body_len bytes
//     (bounded memory) and surfaced once as kTooLarge with the header's
//     type/seq preserved, so the server can send a typed error reply and
//     keep the connection;
//   * a checksum mismatch surfaces as kBadChecksum with type/seq preserved
//     (the frame boundary is still trustworthy — lengths are covered by the
//     magic check and the mismatch is detected after the full frame
//     arrived), so the connection survives;
//   * a bad magic means framing is lost and resynchronization is impossible;
//     kBadMagic is terminal — the server replies with a typed error on
//     seq 0 and closes.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace realm::net {

/// Bump when the frame layout or a body schema changes incompatibly.
inline constexpr int kNetProtocolVersion = 2;

inline constexpr std::uint32_t kFrameMagic = 0x32464e52u;  // "RNF2"
inline constexpr std::size_t kFrameHeaderBytes = 28;

/// Default per-frame body cap; ServerOptions/FrameDecoder can lower it.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 20;

/// Cap on operand-list length in a multiply_batch request (independent of
/// the byte cap so a tight frame limit cannot be bypassed with terse
/// encodings).
inline constexpr std::size_t kMaxBatchElements = 1 << 16;

enum class MsgType : std::uint32_t {
  // requests
  kPing = 1,                    ///< empty body; reply: empty body
  kMultiplyBatch = 2,           ///< spec,n,a,b -> out (bit-exact batch kernel)
  kCharacterizeMc = 3,          ///< spec,n,samples,seed -> ErrorMetrics
  kCharacterizeExhaustive = 4,  ///< spec,n,lo,hi -> ExhaustiveReport
  kSynthesisCost = 5,           ///< spec,n,cycles -> SynthesisResult
  kSijLookup = 6,               ///< m,q -> exact + quantized s_ij tables
  kStats = 7,                   ///< empty body; reply: live introspection
                                ///< snapshot (SLO windows, counters, gauges,
                                ///< uptime).  Answered on the loop thread —
                                ///< like ping, it never waits on the pool.
  // replies
  kReplyOk = 64,
  kReplyError = 65,
};

/// Stable snake_case name of a request kind — the key segment used by the
/// `stats` reply's per-kind SLO fields (slo.<kind>.w<sec>.*) and by
/// realm_top's table rows.  Returns "unknown" for reply types.
[[nodiscard]] const char* request_kind_name(MsgType t) noexcept;

/// Request kinds in wire order, for iterating the per-kind SLO catalog.
inline constexpr MsgType kRequestKinds[] = {
    MsgType::kPing,          MsgType::kMultiplyBatch,
    MsgType::kCharacterizeMc, MsgType::kCharacterizeExhaustive,
    MsgType::kSynthesisCost, MsgType::kSijLookup,
    MsgType::kStats,
};
inline constexpr std::size_t kRequestKindCount =
    sizeof(kRequestKinds) / sizeof(kRequestKinds[0]);

/// Reply body of kReplyError: code (ErrorCode as u64) + message (string).
enum class ErrorCode : std::uint64_t {
  kBadMagic = 1,      ///< framing lost; connection is closed after the reply
  kBadChecksum = 2,   ///< frame arrived torn or corrupted; connection kept
  kFrameTooLarge = 3, ///< body_len above the server's cap; body discarded
  kUnknownType = 4,   ///< type is not a request the server knows
  kBadRequest = 5,    ///< body failed to parse or names an unknown design
  kInternal = 6,      ///< engine threw during computation
  kShuttingDown = 7,  ///< server is draining / connection limit reached
};

[[nodiscard]] const char* error_code_name(ErrorCode c) noexcept;

struct Frame {
  MsgType type = MsgType::kPing;
  std::uint64_t seq = 0;
  std::string body;
};

/// XXH64 of `bytes` (the published xxHash spec; words read little-endian,
/// so the value is the same on every host).  The frame checksum's one hash.
[[nodiscard]] std::uint64_t xxh64(std::string_view bytes, std::uint64_t seed) noexcept;

/// Header + body, checksummed, ready to write to a socket.
[[nodiscard]] std::string encode_frame(MsgType type, std::uint64_t seq,
                                       std::string_view body);

/// Encodes a kReplyError frame with the canonical code/message body.
[[nodiscard]] std::string encode_error(std::uint64_t seq, ErrorCode code,
                                       std::string_view message);

/// Parses a kReplyError body; throws std::runtime_error on schema drift.
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};
[[nodiscard]] ErrorReply parse_error(const std::string& body);

/// Incremental frame reassembler over a torn byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_body_bytes = kDefaultMaxFrameBytes)
      : max_body_{max_body_bytes} {}

  enum class Status {
    kNeedMore,     ///< no complete event buffered; feed more bytes
    kFrame,        ///< `frame` holds a verified request/reply
    kBadChecksum,  ///< `frame.type/seq` preserved; body dropped
    kTooLarge,     ///< `frame.type/seq` preserved; body discarded
    kBadMagic,     ///< stream unsynchronized; decoder is poisoned
  };

  /// Appends raw socket bytes.  A decoder poisoned by kBadMagic ignores
  /// further input.
  void feed(const char* data, std::size_t n);

  /// Extracts the next event.  Call until kNeedMore; events are returned in
  /// stream order.
  [[nodiscard]] Status next(Frame& frame);

  /// Bytes currently buffered (bounded by header + max_body).
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::size_t max_body_;
  std::string buf_;
  std::size_t pos_ = 0;       ///< consumed prefix of buf_
  std::uint64_t discard_ = 0; ///< oversized-body bytes still to skip
  // Pending oversized frame's identity, reported once the body is skipped.
  std::uint32_t discard_type_ = 0;
  std::uint64_t discard_seq_ = 0;
  bool poisoned_ = false;
};

// -- body list codecs -------------------------------------------------------
//
// PayloadReader fields are scalar; operand vectors and s_ij tables travel as
// one comma-separated field value (fields may contain commas).  u64 lists
// are decimal; double lists are C99 hex-floats, exact for every finite
// value.
//
// The u64 list grammar is strict: `[0-9]{1,20}(,[0-9]{1,20})*` with every
// element at most 2^64-1, or the empty string for an empty list.  Signs,
// whitespace, empty elements and embedded NULs are rejected, so each list
// has exactly one encoding up to leading zeros.

/// Appends `v` comma-joined in decimal to `out` in one pass into space
/// sized once up front; the bytes equal a "%llu" join.
void append_u64_list(std::string& out, const std::vector<std::uint64_t>& v);
[[nodiscard]] std::string encode_u64_list(const std::vector<std::uint64_t>& v);
/// Throws std::runtime_error on input outside the grammar above.
[[nodiscard]] std::vector<std::uint64_t> parse_u64_list(std::string_view s);

[[nodiscard]] std::string encode_double_list(const std::vector<double>& v);
[[nodiscard]] std::vector<double> parse_double_list(const std::string& s);

}  // namespace realm::net
