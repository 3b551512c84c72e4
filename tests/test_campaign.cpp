// Campaign subsystem: content-addressed result store (journal format, torn-
// tail recovery, gc), canonical request keys, payload codecs, and the
// resumable runner.  The crash-recovery fuzz loop is the load-bearing test:
// it truncates a journal at *every* byte offset of the final record and
// asserts open() always recovers every prior record without crashing.

#include "realm/campaign/result_store.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/record.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/obs/counters.hpp"

namespace fs = std::filesystem;
using namespace realm;
using campaign::CampaignRunner;
using campaign::ResultStore;

namespace {

/// Fresh path under the system temp dir; removed on destruction.
class TempStorePath {
 public:
  explicit TempStorePath(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("realm_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++) + ".store"))
                .string();
    std::remove(path_.c_str());
  }
  ~TempStorePath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(ResultStore, PutGetRoundTripAndPersistence) {
  TempStorePath tmp{"roundtrip"};
  {
    ResultStore store{tmp.str()};
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.get("k1").has_value());
    store.put("k1", "payload one");
    store.put("k2", std::string("binary\0payload", 14));
    ASSERT_TRUE(store.get("k1").has_value());
    EXPECT_EQ(*store.get("k1"), "payload one");
    EXPECT_EQ(store.get("k2")->size(), 14u);
  }
  // Reopen: the journal replays to the same index.
  ResultStore reopened{tmp.str()};
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(*reopened.get("k1"), "payload one");
  EXPECT_EQ(reopened.keys(), (std::vector<std::string>{"k1", "k2"}));
}

TEST(ResultStore, LatestRecordWinsAndGcDropsSuperseded) {
  TempStorePath tmp{"latest"};
  ResultStore store{tmp.str()};
  store.put("k", "old");
  store.put("other", "x");
  store.put("k", "new");
  EXPECT_EQ(*store.get("k"), "new");
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().records_replayed + store.stats().records_appended, 3u);

  const std::uint64_t dropped = store.compact();
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(*store.get("k"), "new");
  EXPECT_EQ(store.size(), 2u);

  // The compacted journal replays clean and keeps first-seen order.
  ResultStore reopened{tmp.str(), ResultStore::Mode::kReadOnly};
  EXPECT_EQ(reopened.stats().records_replayed, 2u);
  EXPECT_EQ(reopened.stats().torn_bytes_dropped, 0u);
  EXPECT_EQ(reopened.keys(), (std::vector<std::string>{"k", "other"}));
}

TEST(ResultStore, EmptyPayloadAndEmptyKeyEdgeCases) {
  TempStorePath tmp{"edges"};
  ResultStore store{tmp.str()};
  store.put("empty-payload", "");
  ASSERT_TRUE(store.get("empty-payload").has_value());
  EXPECT_EQ(store.get("empty-payload")->size(), 0u);
  EXPECT_THROW(store.put("", "x"), std::runtime_error);
}

TEST(ResultStore, RefusesForeignFilesAndReadOnlyPuts) {
  TempStorePath tmp{"foreign"};
  write_file(tmp.str(), "definitely not a campaign store, much longer than magic");
  EXPECT_THROW(ResultStore{tmp.str()}, std::runtime_error);

  TempStorePath rw{"romode"};
  { ResultStore store{rw.str()}; store.put("k", "v"); }
  ResultStore ro{rw.str(), ResultStore::Mode::kReadOnly};
  EXPECT_EQ(*ro.get("k"), "v");
  EXPECT_THROW(ro.put("k2", "v2"), std::runtime_error);
  EXPECT_THROW(ro.compact(), std::runtime_error);
}

TEST(ResultStore, MissingFileInReadOnlyModeThrows) {
  TempStorePath tmp{"missing"};
  EXPECT_THROW((ResultStore{tmp.str(), ResultStore::Mode::kReadOnly}),
               std::runtime_error);
}

// The crash-recovery invariant: truncating the journal at ANY byte offset
// within (or after) the final record must recover every earlier record, and
// a read-write reopen must leave a clean journal that accepts new puts.
TEST(ResultStore, TornTailRecoveryAtEveryByteOffset) {
  TempStorePath tmp{"fuzz"};
  std::vector<std::pair<std::string, std::string>> records;
  for (int i = 0; i < 4; ++i) {
    records.emplace_back("key-" + std::to_string(i),
                         "payload-" + std::string(static_cast<std::size_t>(i) * 7, 'x') +
                             std::to_string(i));
  }
  std::string full;
  std::size_t prefix_end = 0;  // journal size after the first 3 records
  {
    ResultStore store{tmp.str()};
    for (std::size_t i = 0; i < records.size(); ++i) {
      store.put(records[i].first, records[i].second);
      if (i + 1 == records.size() - 1) prefix_end = fs::file_size(tmp.str());
    }
    full = read_file(tmp.str());
  }
  ASSERT_GT(prefix_end, 0u);
  ASSERT_GT(full.size(), prefix_end);

  TempStorePath cut{"fuzzcut"};
  for (std::size_t len = prefix_end; len < full.size(); ++len) {
    write_file(cut.str(), full.substr(0, len));
    {
      // Read-only: ignores the torn tail, never modifies the file.
      ResultStore ro{cut.str(), ResultStore::Mode::kReadOnly};
      EXPECT_EQ(ro.size(), records.size() - 1) << "truncated at " << len;
      EXPECT_EQ(ro.stats().torn_bytes_dropped, len - prefix_end)
          << "truncated at " << len;
      EXPECT_EQ(fs::file_size(cut.str()), len);
    }
    {
      // Read-write: truncates the torn tail and stays appendable.
      ResultStore rw{cut.str()};
      EXPECT_EQ(rw.size(), records.size() - 1) << "truncated at " << len;
      for (std::size_t i = 0; i + 1 < records.size(); ++i) {
        ASSERT_TRUE(rw.contains(records[i].first)) << "truncated at " << len;
        EXPECT_EQ(*rw.get(records[i].first), records[i].second);
      }
      EXPECT_EQ(fs::file_size(cut.str()), prefix_end);
      rw.put("appended-after-recovery", "works");
    }
    ResultStore again{cut.str(), ResultStore::Mode::kReadOnly};
    EXPECT_EQ(again.size(), records.size()) << "truncated at " << len;
    EXPECT_EQ(*again.get("appended-after-recovery"), "works");
  }
}

TEST(ResultStore, CorruptedByteInBodyDropsTheTailRecord) {
  TempStorePath tmp{"corrupt"};
  {
    ResultStore store{tmp.str()};
    store.put("a", "first payload");
    store.put("b", "second payload");
  }
  std::string bytes = read_file(tmp.str());
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit inside b's payload
  write_file(tmp.str(), bytes);

  ResultStore store{tmp.str()};
  EXPECT_EQ(store.size(), 1u);  // checksum catches the flip; b is dropped
  EXPECT_TRUE(store.contains("a"));
  EXPECT_FALSE(store.contains("b"));
  EXPECT_GT(store.stats().torn_bytes_dropped, 0u);
}

TEST(ResultStore, TornHeaderOnCreationRestartsJournal) {
  TempStorePath tmp{"tornhdr"};
  write_file(tmp.str(), "REA");  // crash mid file-magic
  ResultStore store{tmp.str()};
  EXPECT_EQ(store.size(), 0u);
  store.put("k", "v");
  ResultStore reopened{tmp.str(), ResultStore::Mode::kReadOnly};
  EXPECT_EQ(*reopened.get("k"), "v");
}

TEST(ResultStore, ContentHashIsStableAndCollisionSafeByFullKey) {
  EXPECT_EQ(campaign::content_hash_hex("").size(), 16u);
  EXPECT_EQ(campaign::fnv1a64(""), 0xcbf29ce484222325ULL);  // FNV offset basis
  EXPECT_NE(campaign::fnv1a64("a"), campaign::fnv1a64("b"));
  // Index is keyed by the full string, so equal hashes could never alias.
  TempStorePath tmp{"hash"};
  ResultStore store{tmp.str()};
  store.put("x", "1");
  store.put("y", "2");
  EXPECT_EQ(*store.get("x"), "1");
  EXPECT_EQ(*store.get("y"), "2");
}

TEST(RequestKey, CanonicalAndOrderSensitive) {
  const std::string k1 = campaign::RequestKey{"error_mc"}
                             .field("spec", "realm:m=16,t=0")
                             .field("n", 16)
                             .str();
  const std::string k2 = campaign::RequestKey{"error_mc"}
                             .field("spec", "realm:m=16,t=0")
                             .field("n", 16)
                             .str();
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, campaign::RequestKey{"error_mc"}.field("n", 16).str());
  EXPECT_EQ(k1.rfind("realm-campaign/v1|error_mc|", 0), 0u) << k1;
}

TEST(Payload, HexFloatRoundTripIsBitExact) {
  const double values[] = {0.0,     -0.0,   1.0 / 3.0,          -123.456e-30,
                           5e-324,  1e308,  0x1.fffffffffffffp0, 42.0};
  const auto name = [](std::size_t i) {
    std::string s{"f"};
    s += std::to_string(i);
    return s;
  };
  campaign::PayloadWriter w;
  for (std::size_t i = 0; i < std::size(values); ++i) {
    w.field(name(i), values[i]);
  }
  w.field("u", std::uint64_t{0xFFFFFFFFFFFFFFFFULL});
  w.field("i", std::int64_t{-42});
  const campaign::PayloadReader r{w.str()};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const double back = r.get_double(name(i));
    EXPECT_EQ(std::memcmp(&back, &values[i], sizeof back), 0) << values[i];
  }
  EXPECT_EQ(r.get_u64("u"), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(r.get_i64("i"), -42);
  EXPECT_TRUE(r.has("u"));
  EXPECT_FALSE(r.has("nope"));
  EXPECT_THROW((void)r.get_double("nope"), std::runtime_error);
  EXPECT_THROW((void)r.get_u64("f0"), std::runtime_error);
  EXPECT_THROW(campaign::PayloadReader{"no equals sign"}, std::runtime_error);
}

TEST(Payload, ErrorMetricsSerializationIsExact) {
  err::ErrorMetrics m;
  m.bias = -0.123456789123456789;
  m.mean = 3.0303703183672249e-2;
  m.variance = 1.0 / 7.0;
  m.min = -9.87e-5;
  m.max = 2.0 / 3.0;
  m.samples = (std::uint64_t{1} << 24) + 17;
  const err::ErrorMetrics back =
      campaign::parse_error_metrics(campaign::serialize_error_metrics(m));
  EXPECT_EQ(std::memcmp(&back.bias, &m.bias, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.mean, &m.mean, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.variance, &m.variance, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.min, &m.min, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.max, &m.max, sizeof(double)), 0);
  EXPECT_EQ(back.samples, m.samples);
}

TEST(CampaignRunner, ResumeServesStoredUnitsWithoutRecompute) {
  TempStorePath tmp{"runner"};
  ResultStore store{tmp.str()};
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return std::string{"result"};
  };

  CampaignRunner cold{&store, /*resume=*/false};
  EXPECT_EQ(cold.run_unit("unit", compute), "result");
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cold.units_computed(), 1u);
  EXPECT_EQ(cold.units_resumed(), 0u);
  // Non-resume mode recomputes even though the store has the unit.
  EXPECT_EQ(cold.run_unit("unit", compute), "result");
  EXPECT_EQ(computes, 2);

  CampaignRunner warm{&store, /*resume=*/true};
  EXPECT_EQ(warm.run_unit("unit", compute), "result");
  EXPECT_EQ(computes, 2);  // served from the journal
  EXPECT_EQ(warm.units_resumed(), 1u);
  EXPECT_EQ(warm.run_unit("other", compute), "result");
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(warm.units_computed(), 1u);
}

TEST(CampaignRunner, StoreCountersTrackHitsAndMisses) {
  TempStorePath tmp{"counters"};
  ResultStore store{tmp.str()};
  const auto hits0 = obs::counter_value(obs::Counter::kStoreHits);
  const auto miss0 = obs::counter_value(obs::Counter::kStoreMisses);
  const auto written0 = obs::counter_value(obs::Counter::kStoreBytesWritten);
  (void)store.get("absent");
  store.put("k", "v");
  (void)store.get("k");
  EXPECT_EQ(obs::counter_value(obs::Counter::kStoreHits), hits0 + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kStoreMisses), miss0 + 1);
  EXPECT_GT(obs::counter_value(obs::Counter::kStoreBytesWritten), written0);
}

TEST(CampaignRunner, CrashInjectionExitsAfterNthComputedUnit) {
  TempStorePath tmp{"crash"};
  // Death test: the child computes units until the injected _Exit fires; the
  // unit completed before the crash must already be durable in the journal.
  const auto crash_body = [&tmp] {
    setenv("REALM_CAMPAIGN_CRASH_AFTER", "1", 1);
    ResultStore store{tmp.str()};
    CampaignRunner runner{&store, false};
    (void)runner.run_unit("u1", [] { return std::string{"p1"}; });
    (void)runner.run_unit("u2", [] { return std::string{"p2"}; });
  };
  EXPECT_EXIT(crash_body(), ::testing::ExitedWithCode(campaign::kCrashExitCode),
              "injected crash");
}

TEST(CachedEval, MonteCarloMatchesDirectAndResumesExactly) {
  TempStorePath tmp{"mc"};
  const std::string spec = "realm:m=8,t=2";
  const auto model = mult::make_multiplier(spec, 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 12;

  const err::ErrorMetrics direct = err::monte_carlo(*model, opts);
  ResultStore store{tmp.str()};
  CampaignRunner cold{&store, false};
  const err::ErrorMetrics computed =
      campaign::cached_monte_carlo(&cold, spec, 16, opts);
  CampaignRunner warm{&store, true};
  const err::ErrorMetrics resumed =
      campaign::cached_monte_carlo(&warm, spec, 16, opts);
  EXPECT_EQ(warm.units_resumed(), 1u);

  for (const auto* m : {&computed, &resumed}) {
    EXPECT_EQ(std::memcmp(&m->bias, &direct.bias, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m->mean, &direct.mean, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m->variance, &direct.variance, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m->min, &direct.min, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m->max, &direct.max, sizeof(double)), 0);
    EXPECT_EQ(m->samples, direct.samples);
  }

  // Thread count is not part of the key: a result computed at any
  // parallelism resumes a run at any other.
  err::MonteCarloOptions threaded = opts;
  threaded.threads = 3;
  EXPECT_EQ(campaign::monte_carlo_key(spec, 16, opts),
            campaign::monte_carlo_key(spec, 16, threaded));
  err::MonteCarloOptions other_seed = opts;
  other_seed.seed ^= 1;
  EXPECT_NE(campaign::monte_carlo_key(spec, 16, opts),
            campaign::monte_carlo_key(spec, 16, other_seed));
}

TEST(CachedEval, ExhaustivePayloadBytesArePinned) {
  // Stored exhaustive records are these bytes: the codec may be rebuilt, but
  // a record written by an earlier build must still parse to the same
  // report.
  err::ExhaustiveReport r;
  r.metrics.bias = -0.5;
  r.metrics.mean = 1.25;
  r.metrics.variance = 3.0;
  r.metrics.min = -7.5;
  r.metrics.max = 2.0;
  r.metrics.samples = 65025;
  r.pairs = 65536;
  r.min_peak = {3, 5, 14, -6.25, true};
  r.max_peak = {255, 129, 33000, 0.125, true};
  const std::string payload = campaign::serialize_exhaustive_report(r);
  EXPECT_EQ(payload,
            "bias=-0x1p-1\nmean=0x1.4p+0\nvariance=0x1.8p+1\nmin=-0x1.ep+2\n"
            "max=0x1p+1\nsamples=65025\npairs=65536\nmin_a=3\nmin_b=5\n"
            "min_product=14\nmin_error=-0x1.9p+2\nmax_a=255\nmax_b=129\n"
            "max_product=33000\nmax_error=0x1p-3\npeaks_valid=1\n");
  const err::ExhaustiveReport back = campaign::parse_exhaustive_report(payload);
  EXPECT_EQ(back.metrics.mean, r.metrics.mean);
  EXPECT_EQ(back.metrics.samples, r.metrics.samples);
  EXPECT_EQ(back.pairs, r.pairs);
  EXPECT_EQ(back.min_peak.product, r.min_peak.product);
  EXPECT_EQ(back.max_peak.error, r.max_peak.error);
  EXPECT_TRUE(back.min_peak.valid && back.max_peak.valid);
}
