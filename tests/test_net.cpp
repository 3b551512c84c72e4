// Serving layer: frame codec round-trips, torn-stream reassembly at every
// split offset, typed rejection of oversized/corrupt/unsynchronized frames,
// and end-to-end server behavior (request kinds, warm-hit byte identity,
// error replies that keep the connection, kill-mid-request, graceful drain,
// connection limits, backpressure, idle timeout) over TCP, Unix sockets and
// the poll() fallback backend.

#include "realm/net/protocol.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/record.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/core/lut.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/net/client.hpp"
#include "realm/net/server.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/slo_window.hpp"
#include "realm/obs/trace.hpp"

namespace fs = std::filesystem;
using namespace realm;
using net::ErrorCode;
using net::Frame;
using net::FrameDecoder;
using net::MsgType;

namespace {

/// Fresh path under the system temp dir; removed on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("realm_net_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

/// An in-process server on an ephemeral port (or Unix socket) with its event
/// loop on a background thread; stopped and joined on destruction.
class TestServer {
 public:
  explicit TestServer(net::ServerOptions opts) : server_{std::move(opts)} {
    server_.start();
    loop_ = std::thread{[this] { server_.run(); }};
  }
  ~TestServer() { stop(); }

  void stop() {
    if (loop_.joinable()) {
      server_.request_stop();
      loop_.join();
    }
  }

  [[nodiscard]] int port() const noexcept { return server_.port(); }
  [[nodiscard]] net::Server& server() noexcept { return server_; }

 private:
  net::Server server_;
  std::thread loop_;
};

[[nodiscard]] std::string ping_frame(std::uint64_t seq) {
  return net::encode_frame(MsgType::kPing, seq, {});
}

[[nodiscard]] std::string multiply_body(const std::string& spec, int n,
                                        const std::vector<std::uint64_t>& a,
                                        const std::vector<std::uint64_t>& b) {
  return campaign::PayloadWriter{}
      .field_str("spec", spec)
      .field("n", static_cast<std::int64_t>(n))
      .field_str("a", net::encode_u64_list(a))
      .field_str("b", net::encode_u64_list(b))
      .str();
}

[[nodiscard]] std::string mc_body(const std::string& spec, int n,
                                  std::uint64_t samples, std::uint64_t seed) {
  return campaign::PayloadWriter{}
      .field_str("spec", spec)
      .field("n", static_cast<std::int64_t>(n))
      .field("samples", samples)
      .field("seed", seed)
      .str();
}

}  // namespace

// -- codec ------------------------------------------------------------------

TEST(NetProtocol, FrameRoundTrip) {
  const std::string bytes = net::encode_frame(MsgType::kMultiplyBatch, 42, "hello");
  ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + 5);

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, MsgType::kMultiplyBatch);
  EXPECT_EQ(f.seq, 42u);
  EXPECT_EQ(f.body, "hello");
  EXPECT_EQ(dec.next(f), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(NetProtocol, EmptyBodyRoundTrip) {
  const std::string bytes = ping_frame(7);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, MsgType::kPing);
  EXPECT_EQ(f.seq, 7u);
  EXPECT_TRUE(f.body.empty());
}

// The load-bearing reassembly test: a two-frame stream fed in two pieces,
// split at *every* byte offset, must decode to the identical frame sequence.
TEST(NetProtocol, TornReassemblyAtEverySplitOffset) {
  const std::string stream = net::encode_frame(MsgType::kCharacterizeMc, 1, "abc") +
                             net::encode_frame(MsgType::kSijLookup, 2, "defgh");
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder dec;
    dec.feed(stream.data(), split);
    std::vector<Frame> got;
    Frame f;
    while (dec.next(f) == FrameDecoder::Status::kFrame) got.push_back(f);
    dec.feed(stream.data() + split, stream.size() - split);
    while (dec.next(f) == FrameDecoder::Status::kFrame) got.push_back(f);
    ASSERT_EQ(got.size(), 2u) << "split at " << split;
    EXPECT_EQ(got[0].type, MsgType::kCharacterizeMc);
    EXPECT_EQ(got[0].seq, 1u);
    EXPECT_EQ(got[0].body, "abc");
    EXPECT_EQ(got[1].type, MsgType::kSijLookup);
    EXPECT_EQ(got[1].seq, 2u);
    EXPECT_EQ(got[1].body, "defgh");
  }
}

TEST(NetProtocol, ByteAtATimeFeed) {
  const std::string bytes = net::encode_frame(MsgType::kReplyOk, 9, "payload");
  FrameDecoder dec;
  Frame f;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(bytes.data() + i, 1);
    ASSERT_EQ(dec.next(f), FrameDecoder::Status::kNeedMore) << "byte " << i;
  }
  dec.feed(bytes.data() + bytes.size() - 1, 1);
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.body, "payload");
}

TEST(NetProtocol, OversizedFrameIsDiscardedAndReported) {
  FrameDecoder dec{16};  // tiny body cap
  const std::string big = net::encode_frame(MsgType::kMultiplyBatch, 5,
                                            std::string(1000, 'x'));
  const std::string after = ping_frame(6);
  dec.feed(big.data(), big.size());
  dec.feed(after.data(), after.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kTooLarge);
  EXPECT_EQ(f.type, MsgType::kMultiplyBatch);  // identity preserved
  EXPECT_EQ(f.seq, 5u);
  // The stream recovers: the following frame decodes normally.
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.seq, 6u);
}

TEST(NetProtocol, OversizedFrameTornBodyStaysBounded) {
  FrameDecoder dec{16};
  const std::string big =
      net::encode_frame(MsgType::kPing, 3, std::string(100000, 'y'));
  Frame f;
  for (std::size_t i = 0; i < big.size(); i += 7) {
    const std::size_t len = std::min<std::size_t>(7, big.size() - i);
    dec.feed(big.data() + i, len);
    EXPECT_LE(dec.buffered(), net::kFrameHeaderBytes + 16);
    (void)dec.next(f);
  }
  const std::string after = ping_frame(4);
  dec.feed(after.data(), after.size());
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.seq, 4u);
}

TEST(NetProtocol, BadChecksumIsReportedAndStreamContinues) {
  std::string bytes = net::encode_frame(MsgType::kSynthesisCost, 11, "body");
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);  // corrupt the body
  const std::string after = ping_frame(12);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  dec.feed(after.data(), after.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kBadChecksum);
  EXPECT_EQ(f.type, MsgType::kSynthesisCost);
  EXPECT_EQ(f.seq, 11u);
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.seq, 12u);
}

TEST(NetProtocol, BadMagicPoisonsTheDecoder) {
  std::string bytes = ping_frame(1);
  bytes[0] = 'X';
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kBadMagic);
  // Poisoned: even a pristine frame afterwards is never surfaced.
  const std::string good = ping_frame(2);
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(f), FrameDecoder::Status::kBadMagic);
}

TEST(NetProtocol, ErrorReplyRoundTrip) {
  const std::string bytes =
      net::encode_error(33, ErrorCode::kFrameTooLarge, "too big");
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, MsgType::kReplyError);
  EXPECT_EQ(f.seq, 33u);
  const net::ErrorReply err = net::parse_error(f.body);
  EXPECT_EQ(err.code, ErrorCode::kFrameTooLarge);
  EXPECT_EQ(err.message, "too big");
}

TEST(NetProtocol, ListCodecsRoundTrip) {
  const std::vector<std::uint64_t> u = {0, 1, 65535, ~std::uint64_t{0}};
  EXPECT_EQ(net::parse_u64_list(net::encode_u64_list(u)), u);
  const std::vector<double> d = {0.0, -1.5, 0.1, 3.141592653589793};
  EXPECT_EQ(net::parse_double_list(net::encode_double_list(d)), d);
  EXPECT_TRUE(net::parse_u64_list("").empty());
  EXPECT_THROW((void)net::parse_u64_list("1,x,3"), std::runtime_error);
  EXPECT_THROW((void)net::parse_double_list("1.0,,2.0"), std::runtime_error);
}

TEST(NetProtocol, FrameBytesFollowTheV2Layout) {
  // Built field by field from the header comment in protocol.hpp: the
  // header's 16 length bytes seed the body hash.
  const auto le = [](std::uint64_t v, int bytes) {
    std::string out;
    for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    return out;
  };
  const std::string body = "out=" + net::encode_u64_list({1, 22, 333}) + "\n";
  const std::uint64_t seq = 0x0123456789abcdefULL;
  const std::string lengths = le(static_cast<std::uint32_t>(MsgType::kReplyOk), 4) +
                              le(seq, 8) + le(body.size(), 4);
  const std::string expected = "RNF2" + lengths +
                               le(net::xxh64(body, net::xxh64(lengths, 0)), 8) + body;
  EXPECT_EQ(le(net::kFrameMagic, 4), "RNF2");
  EXPECT_EQ(net::encode_frame(MsgType::kReplyOk, seq, body), expected);
}

TEST(NetProtocol, Xxh64MatchesSpecVectors) {
  EXPECT_EQ(net::xxh64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(net::xxh64("a", 0), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(net::xxh64("abc", 0), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(net::xxh64("Nobody inspects the spammish repetition", 0),
            0xFBCEA83C8A378BF1ULL);
}

namespace {

/// XXH64 written straight from the spec's stripe/tail description, one
/// byte at a time: the oracle for net::xxh64 at every tail shape.
std::uint64_t xxh64_reference(const std::string& in, std::uint64_t seed) {
  constexpr std::uint64_t p1 = 0x9E3779B185EBCA87ULL, p2 = 0xC2B2AE3D27D4EB4FULL,
                          p3 = 0x165667B19E3779F9ULL, p4 = 0x85EBCA77C2B2AE63ULL,
                          p5 = 0x27D4EB2F165667C5ULL;
  const auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  const auto read = [&](std::size_t at, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(in[at + i])} << (8 * i);
    }
    return v;
  };
  const auto round = [&](std::uint64_t acc, std::uint64_t lane) {
    return rotl(acc + lane * p2, 31) * p1;
  };
  std::size_t at = 0;
  std::uint64_t acc = seed + p5;
  if (in.size() >= 32) {
    std::uint64_t v[4] = {seed + p1 + p2, seed + p2, seed, seed - p1};
    for (; at + 32 <= in.size(); at += 32) {
      for (std::size_t l = 0; l < 4; ++l) v[l] = round(v[l], read(at + 8 * l, 8));
    }
    acc = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (const std::uint64_t lane : v) acc = (acc ^ round(0, lane)) * p1 + p4;
  }
  acc += in.size();
  for (; at + 8 <= in.size(); at += 8) acc = rotl(acc ^ round(0, read(at, 8)), 27) * p1 + p4;
  if (at + 4 <= in.size()) {
    acc = rotl(acc ^ (read(at, 4) * p1), 23) * p2 + p3;
    at += 4;
  }
  for (; at < in.size(); ++at) acc = rotl(acc ^ (read(at, 1) * p5), 11) * p1;
  acc ^= acc >> 33;
  acc *= p2;
  acc ^= acc >> 29;
  acc *= p3;
  return acc ^ (acc >> 32);
}

}  // namespace

TEST(NetProtocol, Xxh64MatchesStripeTailReference) {
  std::string bytes;
  std::uint64_t st = 21;
  for (int i = 0; i < 100; ++i) bytes.push_back(static_cast<char>(num::splitmix64(st)));
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0} - 6}) {
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
      const std::string in = bytes.substr(0, len);
      EXPECT_EQ(net::xxh64(in, seed), xxh64_reference(in, seed))
          << "len " << len << " seed " << seed;
    }
  }
}

TEST(NetProtocol, U64ListRejectsNonCanonicalElements) {
  using namespace std::string_literals;
  const std::vector<std::string> bad = {
      "5\0junk"s,                // embedded NUL
      " 5", "\t5", "1, 2",      // whitespace
      "+5", "-5", " -5",         // signs (" -5" once wrapped to 2^64-5)
      "1,", ",1", "1,,2", ",",   // empty elements
      "5 ", "0x10", "1;2",       // trailing junk, hex, foreign separator
      "18446744073709551616",    // 2^64
      "99999999999999999999",    // 20 digits above 2^64-1
      "000000000000000000001",   // 21 digits
      "1,18446744073709551616",  // overflow after a good element
  };
  for (const std::string& s : bad) {
    EXPECT_THROW((void)net::parse_u64_list(s), std::runtime_error)
        << "accepted '" << s << "' (" << s.size() << " bytes)";
  }
  EXPECT_EQ(net::parse_u64_list("18446744073709551615"),
            std::vector<std::uint64_t>{~std::uint64_t{0}});
  EXPECT_EQ(net::parse_u64_list("00000000000000000007,0"),
            (std::vector<std::uint64_t>{7, 0}));
  EXPECT_TRUE(net::parse_u64_list("").empty());
}

namespace {

/// The reference encoding: "%llu" per element, comma-joined.
[[nodiscard]] std::string printf_u64_list(const std::vector<std::uint64_t>& v) {
  std::string out;
  char buf[24];
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out.push_back(',');
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v[i]));
    out += buf;
  }
  return out;
}

}  // namespace

TEST(NetProtocol, U64ListEncodeMatchesPrintfOracle) {
  std::vector<std::vector<std::uint64_t>> lists = {{}, {0}};
  // Every digit-count boundary: 10^k - 1 and 10^k, up to 10^19, and 2^64-1.
  std::vector<std::uint64_t> bounds = {0};
  std::uint64_t p = 1;
  for (int k = 1; k <= 19; ++k) {
    p *= 10;
    bounds.push_back(p - 1);
    bounds.push_back(p);
  }
  bounds.push_back(~std::uint64_t{0});
  lists.push_back(bounds);
  // Seeded splitmix64 lists of every length up to 64, each value shifted
  // so all digit counts appear, and one 4096-element request-sized list.
  for (std::uint64_t len = 1; len <= 64; ++len) {
    std::vector<std::uint64_t> v(len);
    for (std::uint64_t i = 0; i < len; ++i) {
      v[i] = num::splitmix64_at(len, i) >> (i % 64);
    }
    lists.push_back(std::move(v));
  }
  std::vector<std::uint64_t> big(4096);
  for (std::uint64_t i = 0; i < big.size(); ++i) {
    big[i] = num::splitmix64_at(4096, i) & 0xffffffffu;
  }
  lists.push_back(std::move(big));

  for (const auto& v : lists) {
    const std::string encoded = net::encode_u64_list(v);
    ASSERT_EQ(encoded, printf_u64_list(v)) << v.size() << " elements";
    EXPECT_EQ(net::parse_u64_list(encoded), v) << v.size() << " elements";
    // Appending writes the same bytes after whatever the string held.
    std::string appended = "out=";
    net::append_u64_list(appended, v);
    EXPECT_EQ(appended, "out=" + encoded);
  }
}

// -- end-to-end server ------------------------------------------------------

TEST(NetServer, PingOverTcp) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  const Frame reply = c.call(MsgType::kPing, 1, {});
  EXPECT_EQ(reply.type, MsgType::kReplyOk);
  EXPECT_TRUE(reply.body.empty());
}

TEST(NetServer, PingOverUnixSocket) {
  TempPath sock{"sock"};
  net::ServerOptions opts;
  opts.unix_path = sock.str();
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_unix(sock.str());
  const Frame reply = c.call(MsgType::kPing, 2, {});
  EXPECT_EQ(reply.type, MsgType::kReplyOk);
}

TEST(NetServer, MultiplyBatchMatchesLocalModel) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  const std::vector<std::uint64_t> a = {0, 1, 1000, 65535, 31415};
  const std::vector<std::uint64_t> b = {0, 65535, 999, 65535, 27182};
  const Frame reply = c.call(MsgType::kMultiplyBatch, 4,
                             multiply_body("realm:m=16,t=4", 16, a, b));
  ASSERT_EQ(reply.type, MsgType::kReplyOk);
  const campaign::PayloadReader r{reply.body};
  const auto out = net::parse_u64_list(r.get_string("out"));
  const auto model = mult::make_multiplier("realm:m=16,t=4", 16);
  ASSERT_EQ(out.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], model->multiply(a[i], b[i])) << "element " << i;
  }
}

TEST(NetServer, CharacterizeMcMatchesLocalEngine) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  const Frame reply =
      c.call(MsgType::kCharacterizeMc, 5, mc_body("calm", 16, 4096, 77), 60000);
  ASSERT_EQ(reply.type, MsgType::kReplyOk);
  const err::ErrorMetrics got = campaign::parse_error_metrics(reply.body);
  err::MonteCarloOptions opts;
  opts.samples = 4096;
  opts.seed = 77;
  const auto model = mult::make_multiplier("calm", 16);
  const err::ErrorMetrics want = err::monte_carlo(*model, opts);
  EXPECT_EQ(got.mean, want.mean);  // hex-float codec: bit-exact
  EXPECT_EQ(got.bias, want.bias);
  EXPECT_EQ(got.samples, want.samples);
  // The reply is the campaign payload, byte for byte.
  EXPECT_EQ(reply.body, campaign::monte_carlo_payload(nullptr, "calm", 16, opts));
}

TEST(NetServer, ExhaustiveAndSijAndSynthesis) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());

  const std::string ex_body = campaign::PayloadWriter{}
                                  .field_str("spec", "realm:m=8,t=0")
                                  .field("n", std::int64_t{8})
                                  .field("lo", std::uint64_t{0})
                                  .field("hi", std::uint64_t{255})
                                  .str();
  const Frame ex = c.call(MsgType::kCharacterizeExhaustive, 6, ex_body, 60000);
  ASSERT_EQ(ex.type, MsgType::kReplyOk);
  const err::ExhaustiveReport rep = campaign::parse_exhaustive_report(ex.body);
  EXPECT_EQ(rep.pairs, 256u * 256u);
  // Every cacheable reply is the campaign payload, byte for byte.
  EXPECT_EQ(ex.body, campaign::exhaustive_payload(nullptr, "realm:m=8,t=0", 8, 0, 255));

  const std::string sij_body = campaign::PayloadWriter{}
                                   .field("m", std::int64_t{4})
                                   .field("q", std::int64_t{6})
                                   .str();
  const Frame sij = c.call(MsgType::kSijLookup, 7, sij_body, 60000);
  ASSERT_EQ(sij.type, MsgType::kReplyOk);
  const campaign::PayloadReader sr{sij.body};
  EXPECT_EQ(sr.get_u64("m"), 4u);
  const auto units = net::parse_u64_list(sr.get_string("units"));
  ASSERT_EQ(units.size(), 16u);
  const auto lut = core::SegmentLut::shared(4, 6);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(units[static_cast<std::size_t>(i * 4 + j)], lut->units(i, j));
    }
  }

  const std::string syn_body = campaign::PayloadWriter{}
                                   .field_str("spec", "realm:m=8,t=0")
                                   .field("n", std::int64_t{8})
                                   .field("cycles", std::uint64_t{64})
                                   .str();
  const Frame syn = c.call(MsgType::kSynthesisCost, 8, syn_body, 120000);
  ASSERT_EQ(syn.type, MsgType::kReplyOk);
  const campaign::SynthesisResult s = campaign::parse_synthesis(syn.body);
  EXPECT_GT(s.area_um2, 0.0);
  EXPECT_GT(s.power_uw, 0.0);
  EXPECT_GT(s.delay_ps, 0.0);
  hw::StimulusProfile profile;  // the wire contract: defaults but for cycles
  profile.cycles = 64;
  EXPECT_EQ(syn.body, campaign::synthesis_payload(nullptr, "realm:m=8,t=0", 8, profile));
}

TEST(NetServer, MultiplyBatchRejectsNonCanonicalOperands) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  const std::string body = campaign::PayloadWriter{}
                               .field_str("spec", "realm:m=16,t=4")
                               .field("n", std::int64_t{16})
                               .field_str("a", " 5")
                               .field_str("b", "5")
                               .str();
  Frame r = c.call(MsgType::kMultiplyBatch, 1, body);
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);
  // The same request in canonical form is served on the same connection.
  r = c.call(MsgType::kMultiplyBatch, 2, multiply_body("realm:m=16,t=4", 16, {5}, {5}));
  EXPECT_EQ(r.type, MsgType::kReplyOk);
}

TEST(NetServer, MalformedSpecParameterIsBadRequest) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  // An int-overflowing parameter is the client's fault, not kInternal.
  Frame r = c.call(MsgType::kMultiplyBatch, 1,
                   multiply_body("realm:m=99999999999", 16, {5}, {5}));
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);
  // A misspelt key is rejected too, not answered with the default design.
  r = c.call(MsgType::kMultiplyBatch, 2, multiply_body("realm:mm=8", 16, {5}, {5}));
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);
  // A removed design name is unknown, not mapped onto another design.
  r = c.call(MsgType::kMultiplyBatch, 3, multiply_body("mitchell", 16, {5}, {5}));
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);
  // A segment count past core::kMaxLutM is refused before any table is
  // derived: one frame must not make the server build 2^30 factors.
  const std::uint64_t misses = obs::counter_value(obs::Counter::kLutCacheMisses);
  r = c.call(MsgType::kMultiplyBatch, 4, multiply_body("realm:m=32768", 16, {5}, {5}));
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);
  EXPECT_EQ(obs::counter_value(obs::Counter::kLutCacheMisses), misses);
  r = c.call(MsgType::kMultiplyBatch, 5, multiply_body("realm:m=16,t=4", 16, {5}, {5}));
  EXPECT_EQ(r.type, MsgType::kReplyOk);
}

TEST(NetServer, UnquantizableLutConfigurationIsBadRequest) {
  // An in-range (M, q) whose factors do not fit q - 2 stored bits is the
  // client's configuration error: kBadRequest, not kInternal.
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  for (const char* spec : {"realm:m=256", "realm:m=32,q=4"}) {
    const Frame r = c.call(MsgType::kMultiplyBatch, 1, multiply_body(spec, 16, {5}, {5}));
    ASSERT_EQ(r.type, MsgType::kReplyError) << spec;
    EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest) << spec;
  }
  const std::string sij_body = campaign::PayloadWriter{}
                                   .field("m", std::int64_t{256})
                                   .field("q", std::int64_t{6})
                                   .str();
  Frame r = c.call(MsgType::kSijLookup, 2, sij_body, 60000);
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);
  r = c.call(MsgType::kMultiplyBatch, 3, multiply_body("realm:m=16,t=4", 16, {5}, {5}));
  EXPECT_EQ(r.type, MsgType::kReplyOk);
}

TEST(NetServer, MalformedSpecIsRejectedBeforeDispatch) {
  // Validation on the loop thread refuses a spec that names no design: it
  // never reaches an executor, a model cache or a store key.
  TempPath store_path{"malformed"};
  campaign::ResultStore store{store_path.str()};
  campaign::CampaignRunner runner{&store, true};
  net::ServerOptions opts;
  opts.campaign = &runner;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());
  std::uint64_t seq = 0;
  for (const char* spec : {"calm|n=16", "nosuch", "calm:t=1x"}) {
    const std::uint64_t dispatched = ts.server().stats().dispatched;
    Frame r = c.call(MsgType::kMultiplyBatch, ++seq, multiply_body(spec, 16, {5}, {5}));
    ASSERT_EQ(r.type, MsgType::kReplyError) << spec;
    EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest) << spec;
    r = c.call(MsgType::kCharacterizeMc, ++seq, mc_body(spec, 16, 64, 1));
    ASSERT_EQ(r.type, MsgType::kReplyError) << spec;
    EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest) << spec;
    EXPECT_EQ(ts.server().stats().dispatched, dispatched) << spec;
  }
  EXPECT_EQ(store.size(), 0u);
}

TEST(NetServer, SpellingsOfOneDesignShareOneModelAndOneRecord) {
  TempPath store_path{"spellings"};
  campaign::ResultStore store{store_path.str()};
  campaign::CampaignRunner runner{&store, true};
  net::ServerOptions opts;
  opts.campaign = &runner;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());

  // Each REALM16 model construction takes its LUT from SegmentLut::shared,
  // which counts one hit or one miss: five spellings of one design move
  // the counters once.
  const auto lut_lookups = [] {
    return obs::counter_value(obs::Counter::kLutCacheHits) +
           obs::counter_value(obs::Counter::kLutCacheMisses);
  };
  const std::uint64_t lookups = lut_lookups();
  std::uint64_t seq = 0;
  for (const char* spec :
       {"realm:t=00", "realm:t=000", "REALM:T=0", "realm:m=16,t=0", "realm:q=6;t=0"}) {
    const Frame r = c.call(MsgType::kMultiplyBatch, ++seq,
                           multiply_body(spec, 16, {5, 77}, {9, 300}));
    ASSERT_EQ(r.type, MsgType::kReplyOk) << spec;
  }
  EXPECT_EQ(lut_lookups() - lookups, 1u);

  // Three spellings of one MC request: one computed record, two warm hits
  // replaying its bytes.
  std::vector<std::string> bodies;
  for (const char* spec : {"calm", "CALM:T=0", "calm:t=00"}) {
    const Frame r =
        c.call(MsgType::kCharacterizeMc, ++seq, mc_body(spec, 16, 1024, 5), 60000);
    ASSERT_EQ(r.type, MsgType::kReplyOk) << spec;
    bodies.push_back(r.body);
  }
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(ts.server().stats().warm_hits, 2u);
  EXPECT_EQ(bodies[1], bodies[0]);
  EXPECT_EQ(bodies[2], bodies[0]);
}

TEST(NetServer, TypedErrorsKeepTheConnection) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());

  // Unknown type.
  c.send_request(static_cast<MsgType>(60), 1, {});
  Frame r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kUnknownType);

  // Malformed body.
  c.send_request(MsgType::kCharacterizeMc, 2, "not a payload");
  r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);

  // Unknown design spec (refused at validation, before dispatch).
  c.send_request(MsgType::kCharacterizeMc, 3, mc_body("nonsense", 16, 64, 1));
  r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);

  // Corrupt checksum.
  std::string corrupt = net::encode_frame(MsgType::kPing, 4, "zz");
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x7f);
  c.send_raw(corrupt);
  r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadChecksum);

  // The connection survived all of the above.
  r = c.call(MsgType::kPing, 5, {});
  EXPECT_EQ(r.type, MsgType::kReplyOk);
  EXPECT_EQ(r.seq, 5u);
}

TEST(NetServer, OversizedFrameGetsTypedErrorAndConnectionSurvives) {
  net::ServerOptions opts;
  opts.max_frame_bytes = 256;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());
  c.send_request(MsgType::kMultiplyBatch, 9, std::string(10000, 'a'));
  Frame r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(r.seq, 9u);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kFrameTooLarge);
  r = c.call(MsgType::kPing, 10, {});
  EXPECT_EQ(r.type, MsgType::kReplyOk);
}

TEST(NetServer, BadMagicGetsErrorThenClose) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  c.send_raw("garbage that is long enough to cover a whole frame header!!");
  const Frame r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadMagic);
  // The server closes after flushing the error.
  EXPECT_THROW((void)c.recv_reply(2000), std::runtime_error);
}

TEST(NetServer, V1FrameGetsBadMagicThenClose) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  // A well-formed frame from a realm-net/v1 peer: only the magic differs
  // in the header, and v2 has no fallback for it.
  std::string v1 = ping_frame(7);
  v1.replace(0, 4, "RNF1");
  c.send_raw(v1);
  const Frame r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(r.seq, 0u);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadMagic);
  EXPECT_THROW((void)c.recv_reply(2000), std::runtime_error);
}

TEST(NetServer, FlippedHeaderStripeOrTailByteIsBadChecksum) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  // 79 bytes: two 32-byte stripes, then an 8-, a 4- and a 3-byte tail.
  const std::string body(79, 'x');
  const std::size_t body_at = net::kFrameHeaderBytes;
  const std::size_t flips[] = {
      8,                  // header: seq
      body_at + 37,       // body: second stripe
      body_at + 78,       // body: 1-byte tail
  };
  std::uint64_t seq = 1;
  for (const std::size_t at : flips) {
    std::string frame = net::encode_frame(MsgType::kPing, seq, body);
    frame[at] = static_cast<char>(frame[at] ^ 0x01);
    c.send_raw(frame);
    Frame r = c.recv_reply();
    ASSERT_EQ(r.type, MsgType::kReplyError) << "flip at " << at;
    EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadChecksum) << "flip at " << at;
    // The connection survives and serves the next valid request.
    r = c.call(MsgType::kPing, ++seq, {});
    EXPECT_EQ(r.type, MsgType::kReplyOk);
    EXPECT_EQ(r.seq, seq);
    ++seq;
  }
}

TEST(NetServer, KillClientMidRequest) {
  TestServer ts{net::ServerOptions{}};
  {
    net::Client c;
    c.connect_tcp(ts.port());
    // A full 16-bit exhaustive sweep: slow enough (seconds) that the abort
    // below lands while the job is still computing.
    const std::string body = campaign::PayloadWriter{}
                                 .field_str("spec", "realm:m=16,t=0")
                                 .field("n", std::int64_t{16})
                                 .field("lo", std::uint64_t{0})
                                 .field("hi", std::uint64_t{65535})
                                 .str();
    c.send_request(MsgType::kCharacterizeExhaustive, 1, body);
    // Wait until the request is actually dispatched, then abort the
    // connection with an RST (SO_LINGER 0): the server's read fails, the
    // connection dies, and the finished job's reply has nowhere to go.
    for (int i = 0; i < 1000 && ts.server().stats().dispatched < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(ts.server().stats().dispatched, 1u);
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(c.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    c.close();
  }
  // The server must finish the computation, drop the orphaned reply, and
  // keep serving.
  net::Client c2;
  c2.connect_tcp(ts.port());
  for (int i = 0; i < 600; ++i) {
    const Frame r = c2.call(MsgType::kPing, static_cast<std::uint64_t>(i), {});
    ASSERT_EQ(r.type, MsgType::kReplyOk);
    if (ts.server().stats().replies_dropped > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(ts.server().stats().replies_dropped, 1u);
}

TEST(NetServer, WarmHitsServeStoredBytesWithoutDispatch) {
  TempPath store_path{"warm"};
  campaign::ResultStore store{store_path.str()};
  campaign::CampaignRunner runner{&store, true};
  net::ServerOptions opts;
  opts.campaign = &runner;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());

  const std::string body = mc_body("realm:m=16,t=4", 16, 2048, 1234);
  const Frame cold = c.call(MsgType::kCharacterizeMc, 1, body, 60000);
  ASSERT_EQ(cold.type, MsgType::kReplyOk);
  const net::Server::Stats after_cold = ts.server().stats();
  EXPECT_EQ(after_cold.dispatched, 1u);
  EXPECT_EQ(after_cold.warm_hits, 0u);

  const Frame warm = c.call(MsgType::kCharacterizeMc, 2, body, 60000);
  ASSERT_EQ(warm.type, MsgType::kReplyOk);
  const net::Server::Stats after_warm = ts.server().stats();
  EXPECT_EQ(after_warm.dispatched, 1u);  // never touched the executor
  EXPECT_EQ(after_warm.warm_hits, 1u);

  // The byte-identity invariant, end to end.
  EXPECT_EQ(warm.body, cold.body);

  // And the stored payload is those same bytes.
  err::MonteCarloOptions mco;
  mco.samples = 2048;
  mco.seed = 1234;
  const auto stored =
      store.get(campaign::monte_carlo_key("realm:m=16,t=4", 16, mco));
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*stored, cold.body);
}

TEST(NetServer, GracefulDrainFlushesInFlightWork) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  c.send_request(MsgType::kCharacterizeMc, 1,
                 mc_body("realm:m=16,t=0", 16, std::uint64_t{1} << 20, 7));
  // Begin the drain only once the request is in flight (a stop that lands
  // before the read would legitimately never answer it).
  for (int i = 0; i < 1000 && ts.server().stats().dispatched < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(ts.server().stats().dispatched, 1u);
  ts.server().request_stop();
  const Frame r = c.recv_reply(60000);
  EXPECT_EQ(r.type, MsgType::kReplyOk);
  EXPECT_EQ(r.seq, 1u);
  ts.stop();  // run() must return: drain completed
  const net::Server::Stats st = ts.server().stats();
  EXPECT_EQ(st.requests, 1u);
}

TEST(NetServer, MaxConnectionsRefusesExtras) {
  net::ServerOptions opts;
  opts.max_connections = 2;
  TestServer ts{std::move(opts)};
  net::Client a, b;
  a.connect_tcp(ts.port());
  b.connect_tcp(ts.port());
  ASSERT_EQ(a.call(MsgType::kPing, 1, {}).type, MsgType::kReplyOk);
  ASSERT_EQ(b.call(MsgType::kPing, 2, {}).type, MsgType::kReplyOk);
  net::Client extra;
  extra.connect_tcp(ts.port());
  // The refusal is a typed error followed by close.
  const Frame r = extra.recv_reply(5000);
  EXPECT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kShuttingDown);
  EXPECT_THROW((void)extra.recv_reply(2000), std::runtime_error);
  // Existing connections are unaffected.
  EXPECT_EQ(a.call(MsgType::kPing, 3, {}).type, MsgType::kReplyOk);
}

TEST(NetServer, BackpressureStallsSlowReaders) {
  net::ServerOptions opts;
  opts.write_high_water = 1024;  // tiny: a few replies trip the mark
  opts.executor_threads = 1;     // FIFO completions: replies stay in order
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());
  // Fire many pings without reading; replies pile into the server's write
  // buffer once the socket buffer fills.  s_ij tables make fat replies.
  const std::string sij = campaign::PayloadWriter{}
                              .field("m", std::int64_t{16})
                              .field("q", std::int64_t{8})
                              .str();
  for (int i = 0; i < 200; ++i) {
    c.send_request(MsgType::kSijLookup, static_cast<std::uint64_t>(i), sij);
  }
  // Now drain every reply; all 200 must arrive intact, in order.
  for (int i = 0; i < 200; ++i) {
    const Frame r = c.recv_reply(60000);
    ASSERT_EQ(r.type, MsgType::kReplyOk);
    ASSERT_EQ(r.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(NetServer, IdleTimeoutClosesQuietConnections) {
  net::ServerOptions opts;
  opts.idle_timeout_ms = 200;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());
  ASSERT_EQ(c.call(MsgType::kPing, 1, {}).type, MsgType::kReplyOk);
  // Go quiet past the timeout; the server closes us.
  EXPECT_THROW((void)c.recv_reply(5000), std::runtime_error);
}

TEST(NetServer, ManyConcurrentClients) {
  TestServer ts{net::ServerOptions{}};
  constexpr int kClients = 16;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        net::Client c;
        c.connect_tcp(ts.port());
        const auto model = mult::make_multiplier("calm", 16);
        for (int i = 0; i < kRequests; ++i) {
          const std::uint64_t a = static_cast<std::uint64_t>(t * 1000 + i);
          const std::uint64_t b = 65535u - (a % 65536u);
          const Frame r = c.call(
              MsgType::kMultiplyBatch, static_cast<std::uint64_t>(i),
              multiply_body("calm", 16, {a % 65536u, b}, {b, a % 65536u}), 60000);
          if (r.type != MsgType::kReplyOk) {
            ++failures;
            return;
          }
          const campaign::PayloadReader pr{r.body};
          const auto out = net::parse_u64_list(pr.get_string("out"));
          if (out.size() != 2 || out[0] != model->multiply(a % 65536u, b) ||
              out[1] != model->multiply(b, a % 65536u)) {
            ++failures;
            return;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(ts.server().stats().accepted, static_cast<std::uint64_t>(kClients));
}

// -- introspection ----------------------------------------------------------

namespace {

/// Does `body` (a stats payload) carry a field named `name`?
[[nodiscard]] bool has_field(const campaign::PayloadReader& r,
                             const std::string& name) {
  for (const auto& [k, v] : r.fields()) {
    if (k == name) return true;
  }
  return false;
}

}  // namespace

TEST(NetServer, StatsCarriesFullCatalogAndSloWindows) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  ASSERT_EQ(c.call(MsgType::kPing, 1, {}).type, MsgType::kReplyOk);

  const Frame r = c.call(MsgType::kStats, 2, {});
  ASSERT_EQ(r.type, MsgType::kReplyOk);
  const campaign::PayloadReader body{r.body};

  EXPECT_EQ(body.get_i64("proto"), net::kNetProtocolVersion);
  EXPECT_GE(body.get_double("uptime_s"), 0.0);
  EXPECT_TRUE(has_field(body, "rss_kb"));
  EXPECT_EQ(body.get_u64("connections"), 1u);
  EXPECT_TRUE(has_field(body, "queue_depth"));
  EXPECT_TRUE(has_field(body, "jobs_in_flight"));

  // The full counter catalog rides along, by catalog name.
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Counter::kCount);
       ++i) {
    const std::string key =
        std::string{"counter."} + obs::counter_name(static_cast<obs::Counter>(i));
    EXPECT_TRUE(has_field(body, key)) << key;
  }
  // Both frames so far are counted (the stats frame is a request too).
  EXPECT_GE(body.get_u64("counter.net_requests"), 2u);

  // Fixed SLO schema: every request kind x every window x every column,
  // present even when the window is empty.
  for (const MsgType kind : net::kRequestKinds) {
    for (const unsigned w : obs::kSloWindowsSeconds) {
      const std::string p = std::string{"slo."} + net::request_kind_name(kind) +
                            ".w" + std::to_string(w) + ".";
      for (const char* col : {"count", "errors", "warm_hits", "bytes", "p50_us",
                              "p95_us", "p99_us", "err_pct", "warm_pct"}) {
        EXPECT_TRUE(has_field(body, p + col)) << p + col;
      }
    }
  }
  // The ping we sent is visible in its own 10 s window.
  EXPECT_GE(body.get_u64("slo.ping.w10.count"), 1u);
  EXPECT_EQ(body.get_double("slo.ping.w10.err_pct"), 0.0);
}

TEST(NetServer, StatsAnsweredOnLoopWhileExecutorsSaturated) {
  net::ServerOptions opts;
  opts.executor_threads = 1;  // one dispatcher: queued jobs serialize
  opts.engine_threads = 1;
  TestServer ts{std::move(opts)};

  // Pin the lone executor with multi-hundred-millisecond Monte-Carlo jobs
  // and stack more behind it.
  net::Client load;
  load.connect_tcp(ts.port());
  for (std::uint64_t i = 0; i < 3; ++i) {
    load.send_request(MsgType::kCharacterizeMc, i,
                      mc_body("realm:m=16,t=0", 16, std::uint64_t{1} << 22,
                              9000 + i));
  }
  for (int i = 0; i < 1000 && ts.server().stats().dispatched < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(ts.server().stats().dispatched, 1u);

  // A second client's stats request is answered on the loop thread, fast,
  // while the executor is busy: the body itself proves work was in flight.
  net::Client c;
  c.connect_tcp(ts.port());
  const auto t0 = std::chrono::steady_clock::now();
  const Frame r = c.call(MsgType::kStats, 1, {}, 5000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(r.type, MsgType::kReplyOk);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            1000);
  const campaign::PayloadReader body{r.body};
  EXPECT_GE(body.get_u64("queue_depth") + body.get_u64("jobs_in_flight"), 1u)
      << "executor was already idle; the saturation premise failed";

  // Let the queued jobs finish so the drain in ~TestServer is orderly.
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(load.recv_reply(120000).type, MsgType::kReplyOk);
  }
}

TEST(NetClient, RecvTimeoutIsTypedAndCounted) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  // Half a frame: the server waits for the rest, the client's deadline
  // expires.  The throw must be the typed TimeoutError (so callers can
  // distinguish "slow" from "broken") and the counter must tick.
  const std::string frame = ping_frame(1);
  c.send_raw(std::string_view{frame}.substr(0, net::kFrameHeaderBytes / 2));
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kNetClientTimeouts);
  EXPECT_THROW((void)c.recv_reply(100), net::TimeoutError);
  EXPECT_EQ(obs::counter_value(obs::Counter::kNetClientTimeouts), before + 1);
  // TimeoutError is a runtime_error, so legacy catch sites still work.
  c.send_raw(std::string_view{frame}.substr(net::kFrameHeaderBytes / 2));
  const Frame r = c.recv_reply(5000);
  EXPECT_EQ(r.type, MsgType::kReplyOk);
  EXPECT_EQ(r.seq, 1u);
}

namespace {

/// Every rid attached to a span named `span` in a Chrome trace export.
[[nodiscard]] std::vector<std::uint64_t> rids_for_span(const std::string& json,
                                                       const std::string& span) {
  std::vector<std::uint64_t> rids;
  const std::string name_key = "\"name\":\"" + span + "\"";
  for (std::size_t pos = json.find(name_key); pos != std::string::npos;
       pos = json.find(name_key, pos + name_key.size())) {
    const std::size_t end = json.find("\"name\":", pos + name_key.size());
    const std::size_t rid_pos = json.find("\"rid\":", pos);
    if (rid_pos != std::string::npos && (end == std::string::npos || rid_pos < end)) {
      rids.push_back(std::strtoull(json.c_str() + rid_pos + 6, nullptr, 10));
    }
  }
  return rids;
}

}  // namespace

TEST(NetServer, RequestIdRidesTraceSpansAcrossThreads) {
  obs::trace_reset();
  obs::set_tracing(true);
  {
    TestServer ts{net::ServerOptions{}};
    net::Client c;
    c.connect_tcp(ts.port());
    const Frame r = c.call(MsgType::kCharacterizeMc, 1,
                           mc_body("realm:m=16,t=0", 16, 4096, 42), 60000);
    ASSERT_EQ(r.type, MsgType::kReplyOk);
    const Frame m = c.call(MsgType::kMultiplyBatch, 2,
                           multiply_body("realm:m=16,t=0", 16, {3, 4}, {5, 6}), 60000);
    ASSERT_EQ(m.type, MsgType::kReplyOk);
    ts.stop();  // flush completions so net/reply spans are recorded
  }
  obs::set_tracing(false);
  const std::string json = obs::chrome_trace_json();

  // The loop thread's accept/validate spans and the executor thread's job
  // span carry the same request id — one lane per request in the trace.
  const auto request_rids = rids_for_span(json, "net/request");
  const auto job_rids = rids_for_span(json, "net/job");
  const auto reply_rids = rids_for_span(json, "net/reply");
  ASSERT_FALSE(request_rids.empty()) << json.substr(0, 400);
  ASSERT_FALSE(job_rids.empty());
  ASSERT_FALSE(reply_rids.empty());
  bool shared = false;
  for (const std::uint64_t rid : request_rids) {
    if (rid == 0) continue;
    for (const std::uint64_t jr : job_rids) shared |= jr == rid;
  }
  EXPECT_TRUE(shared) << "no net/job span shares a rid with a net/request span";
  EXPECT_NE(job_rids.front(), 0u);

  // Decode and encode are stages of their own in the same lane: one decode
  // per request frame, one encode per executed request.
  const auto decode_rids = rids_for_span(json, "net/decode");
  const auto encode_rids = rids_for_span(json, "net/encode");
  const auto has = [](const std::vector<std::uint64_t>& v, std::uint64_t rid) {
    return std::find(v.begin(), v.end(), rid) != v.end();
  };
  ASSERT_EQ(decode_rids.size(), request_rids.size());
  for (const std::uint64_t rid : request_rids) {
    EXPECT_TRUE(has(decode_rids, rid)) << "no net/decode span for rid " << rid;
  }
  ASSERT_EQ(encode_rids.size(), job_rids.size());
  for (const std::uint64_t rid : job_rids) {
    EXPECT_TRUE(has(encode_rids, rid)) << "no net/encode span shares rid " << rid
                                       << " with net/job";
  }
}
