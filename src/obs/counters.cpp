#include "realm/obs/counters.hpp"

namespace realm::obs {

namespace detail {

PaddedAtomic g_counters[kCounterCount];
PaddedAtomic g_gauges[kGaugeCount];

}  // namespace detail

void counters_reset() noexcept {
  for (auto& c : detail::g_counters) c.v.store(0, std::memory_order_relaxed);
}

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kMcSamples: return "mc_samples";
    case Counter::kMcShards: return "mc_shards";
    case Counter::kLutCacheHits: return "lut_cache_hits";
    case Counter::kLutCacheMisses: return "lut_cache_misses";
    case Counter::kGateEvals: return "gate_evals";
    case Counter::kPackedBlocks: return "packed_blocks";
    case Counter::kEquivPairs: return "equiv_pairs";
    case Counter::kPoolRegions: return "pool_regions";
    case Counter::kPoolTasksExecuted: return "pool_tasks_executed";
    case Counter::kPoolTasksInline: return "pool_tasks_inline";
    case Counter::kPoolTasksFailed: return "pool_tasks_failed";
    case Counter::kPoolQueueWaitNs: return "pool_queue_wait_ns";
    case Counter::kJpegBlocksEncoded: return "jpeg_blocks_encoded";
    case Counter::kJpegBlocksDecoded: return "jpeg_blocks_decoded";
    case Counter::kStoreHits: return "store_hits";
    case Counter::kStoreMisses: return "store_misses";
    case Counter::kStoreBytesRead: return "store_bytes_read";
    case Counter::kStoreBytesWritten: return "store_bytes_written";
    case Counter::kCampaignUnitsResumed: return "campaign_units_resumed";
    case Counter::kCampaignUnitsComputed: return "campaign_units_computed";
    case Counter::kSweepPoints: return "sweep_points";
    case Counter::kExhaustiveRows: return "exhaustive_rows";
    case Counter::kExhaustiveTiles: return "exhaustive_tiles";
    case Counter::kRowFallbackBatches: return "row_fallback_batches";
    case Counter::kDctBlocksBatched: return "dct_blocks_batched";
    case Counter::kNetAccepts: return "net_accepts";
    case Counter::kNetRequests: return "net_requests";
    case Counter::kNetBytesIn: return "net_bytes_in";
    case Counter::kNetBytesOut: return "net_bytes_out";
    case Counter::kNetFrameErrors: return "net_frame_errors";
    case Counter::kNetBackpressureStalls: return "net_backpressure_stalls";
    case Counter::kNetDrained: return "net_drained";
    case Counter::kNetClientTimeouts: return "net_client_timeouts";
    case Counter::kSloRecords: return "slo_records";
    case Counter::kSloRotations: return "slo_rotations";
    case Counter::kCount: break;
  }
  return "unknown";
}

const char* gauge_name(Gauge g) noexcept {
  switch (g) {
    case Gauge::kPoolWorkers: return "pool_workers";
    case Gauge::kPoolActiveWorkers: return "pool_active_workers";
    case Gauge::kPoolQueueDepth: return "pool_queue_depth";
    case Gauge::kCount: break;
  }
  return "unknown";
}

}  // namespace realm::obs
