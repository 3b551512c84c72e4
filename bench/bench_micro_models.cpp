// Throughput microbenchmarks (google-benchmark): behavioral models, the
// s_ij derivation engine, netlist simulation, the JPEG block pipeline, and
// the serving layer's u64-list wire codec, frame checksum and frame decoder.

#include <benchmark/benchmark.h>

#include <vector>

#include "realm/campaign/record.hpp"
#include "realm/core/segment_factors.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/hw/packed_simulator.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/jpeg/dct.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/net/protocol.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;

namespace {

void BM_Multiply(benchmark::State& state, const std::string& spec) {
  const auto m = mult::make_multiplier(spec, 16);
  num::Xoshiro256 rng{1};
  std::uint64_t a = rng.below(65536) | 1, b = rng.below(65536) | 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->multiply(a, b));
    a = (a * 0x9E37u + 1) & 0xFFFF;
    b = (b * 0x79B9u + 3) & 0xFFFF;
    a |= 1;
    b |= 1;
  }
}

// One 4096-pair multiply_batch block per iteration (items = pairs), so the
// batch ns/pair sits beside BM_Multiply's scalar virtual-call figure.
void BM_MultiplyBatch(benchmark::State& state, const std::string& spec) {
  constexpr std::size_t kPairs = 4096;
  const auto m = mult::make_multiplier(spec, 16);
  num::Xoshiro256 rng{1};
  std::vector<std::uint64_t> a(kPairs), b(kPairs), out(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    a[i] = rng.below(65536);
    b[i] = rng.below(65536);
  }
  for (auto _ : state) {
    m->multiply_batch(a.data(), b.data(), out.data(), kPairs);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPairs));
}

void BM_SegmentTable(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::segment_factor_table(m));
  }
}

void BM_NetlistSim(benchmark::State& state, const std::string& spec) {
  const hw::Module mod = hw::build_circuit(spec, 16);
  hw::Simulator sim{mod};
  num::Xoshiro256 rng{2};
  for (auto _ : state) {
    sim.set_input(0, rng.below(65536));
    sim.set_input(1, rng.below(65536));
    sim.eval();
    benchmark::DoNotOptimize(sim.output(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// 64 stimulus vectors per sweep on the packed engine; items/s is directly
// comparable to BM_NetlistSim's vectors/s.
void BM_PackedNetlistSim(benchmark::State& state, const std::string& spec) {
  const hw::Module mod = hw::build_circuit(spec, 16);
  hw::PackedSimulator sim{mod};
  num::Xoshiro256 rng{2};
  for (auto _ : state) {
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::size_t b = 0; b < 16; ++b) sim.set_input_word(p, b, rng());
    }
    sim.eval();
    benchmark::DoNotOptimize(sim.word(mod.outputs().front().bus.front()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          hw::PackedSimulator::kLanes);
}

void BM_Dct8x8(benchmark::State& state, const std::string& spec) {
  const auto m = mult::make_multiplier(spec, 16);
  const auto f = m->as_function();
  std::array<std::int16_t, 64> in{}, out{};
  num::Xoshiro256 rng{3};
  for (auto& v : in) v = static_cast<std::int16_t>(rng.below(256)) - 128;
  for (auto _ : state) {
    jpeg::fdct8x8(in, out, f);
    benchmark::DoNotOptimize(out);
  }
}

// The multiply_batch reply list: 4096 products of 16-bit operands (about
// ten digits each, a 40 KB list).  Items = list elements.
[[nodiscard]] std::vector<std::uint64_t> wire_products() {
  constexpr std::size_t kPairs = 4096;
  num::Xoshiro256 rng{1};
  std::vector<std::uint64_t> v(kPairs);
  for (auto& x : v) x = rng.below(65536) * rng.below(65536);
  return v;
}

void BM_U64ListEncode(benchmark::State& state) {
  const std::vector<std::uint64_t> v = wire_products();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string s = net::encode_u64_list(v);
    bytes = s.size();
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(v.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}

void BM_U64ListParse(benchmark::State& state) {
  const std::string s = net::encode_u64_list(wire_products());
  std::size_t n = 0;
  for (auto _ : state) {
    const std::vector<std::uint64_t> v = net::parse_u64_list(s);
    n = v.size();
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(s.size()));
}

// encode_frame over the reply body `out=<list>\n`: the 28-byte header, one
// body copy, and XXH64 over every body byte, which costs about as much as
// the copy.
void BM_FrameChecksum(benchmark::State& state) {
  const std::string body = "out=" + net::encode_u64_list(wire_products()) + "\n";
  for (auto _ : state) {
    const std::string frame = net::encode_frame(net::MsgType::kReplyOk, 1, body);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(body.size()));
}

// FrameDecoder over one multiply_batch request frame: 4096 16-bit operand
// pairs on realm:m=16,t=4 (about 48 KB).  Covers the receive-buffer append,
// the header parse, XXH64 over the body and the body copy into the Frame.
void BM_FrameDecode(benchmark::State& state) {
  constexpr std::size_t kPairs = 4096;
  num::Xoshiro256 rng{2};
  std::vector<std::uint64_t> a(kPairs), b(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    a[i] = rng.below(65536);
    b[i] = rng.below(65536);
  }
  const std::string frame =
      net::encode_frame(net::MsgType::kMultiplyBatch, 1,
                        campaign::PayloadWriter{}
                            .field_str("spec", "realm:m=16,t=4")
                            .field("n", std::int64_t{16})
                            .field_str("a", net::encode_u64_list(a))
                            .field_str("b", net::encode_u64_list(b))
                            .str());
  net::Frame f;
  for (auto _ : state) {
    net::FrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    if (dec.next(f) != net::FrameDecoder::Status::kFrame) {
      state.SkipWithError("frame did not decode");
      break;
    }
    benchmark::DoNotOptimize(f.body.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(frame.size()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Multiply, accurate, std::string{"accurate"});
BENCHMARK_CAPTURE(BM_Multiply, calm, std::string{"calm"});
BENCHMARK_CAPTURE(BM_Multiply, mbm_t0, std::string{"mbm:t=0"});
BENCHMARK_CAPTURE(BM_Multiply, realm16_t0, std::string{"realm:m=16,t=0"});
BENCHMARK_CAPTURE(BM_Multiply, realm4_t9, std::string{"realm:m=4,t=9"});
BENCHMARK_CAPTURE(BM_Multiply, drum_k6, std::string{"drum:k=6"});
BENCHMARK_CAPTURE(BM_Multiply, ssm_m8, std::string{"ssm:m=8"});
BENCHMARK_CAPTURE(BM_Multiply, am1_nb9, std::string{"am1:nb=9"});
BENCHMARK_CAPTURE(BM_Multiply, intalp_l2, std::string{"intalp:l=2"});

BENCHMARK_CAPTURE(BM_MultiplyBatch, am1_nb9, std::string{"am1:nb=9"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, am2_nb13, std::string{"am2:nb=13"});
// REALM at each Table I LUT size: 16, 64 and 256 entries.
BENCHMARK_CAPTURE(BM_MultiplyBatch, realm4_t0, std::string{"realm:m=4,t=0"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, realm8_t0, std::string{"realm:m=8,t=0"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, realm16_t0, std::string{"realm:m=16,t=0"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, alm_soa_m11, std::string{"alm-soa:m=11"});
// One instantiation of the datapath template per family.
BENCHMARK_CAPTURE(BM_MultiplyBatch, calm, std::string{"calm"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, mbm_t0, std::string{"mbm:t=0"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, alm_maa_m6, std::string{"alm-maa:m=6"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, implm, std::string{"implm"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, intalp_l1, std::string{"intalp:l=1"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, intalp_l2, std::string{"intalp:l=2"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, drum_k6, std::string{"drum:k=6"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, ssm_m10, std::string{"ssm:m=10"});
BENCHMARK_CAPTURE(BM_MultiplyBatch, essm_m8, std::string{"essm:m=8"});

BENCHMARK(BM_SegmentTable)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_NetlistSim, accurate, std::string{"accurate"});
BENCHMARK_CAPTURE(BM_NetlistSim, realm16, std::string{"realm:m=16,t=0"});
BENCHMARK_CAPTURE(BM_PackedNetlistSim, accurate, std::string{"accurate"});
BENCHMARK_CAPTURE(BM_PackedNetlistSim, realm16, std::string{"realm:m=16,t=0"});

BENCHMARK_CAPTURE(BM_Dct8x8, exact, std::string{"accurate"});
BENCHMARK_CAPTURE(BM_Dct8x8, realm16_t8, std::string{"realm:m=16,t=8"});

BENCHMARK(BM_U64ListEncode)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_U64ListParse)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FrameChecksum)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FrameDecode)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
