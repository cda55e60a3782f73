#include "obs/storage_collectors.h"

namespace atis::obs {

void RegisterStorageCollectors(MetricsRegistry& registry,
                               const storage::DiskManager* disk,
                               const storage::BufferPool* pool) {
  registry.AddCollector([disk, pool](MetricsRegistry& r) {
    const storage::IoCounters& io = disk->meter().counters();
    r.GetCounter("atis_blocks_read_total", "Blocks read from the metered disk")
        .Set(io.blocks_read);
    r.GetCounter("atis_blocks_written_total",
                 "Blocks written to the metered disk")
        .Set(io.blocks_written);
    r.GetCounter("atis_relations_created_total",
                 "Temporary relations created (paper cost I)")
        .Set(io.relations_created);
    r.GetCounter("atis_relations_deleted_total",
                 "Relations whose tuples were deleted (paper cost D_t)")
        .Set(io.relations_deleted);
    r.GetGauge("atis_io_cost_units",
               "Cumulative I/O cost in Table 4A units under default "
               "parameters")
        .Set(io.Cost(storage::CostParams{}));
    r.GetGauge("atis_disk_pages_allocated", "Live pages on the metered disk")
        .Set(static_cast<double>(disk->num_allocated()));
    r.GetCounter("atis_disk_faults_injected_total",
                 "Block accesses failed by injected faults (all sources)")
        .Set(disk->faults_injected());
    if (pool == nullptr) return;
    const storage::BufferPoolStats bp = pool->stats();
    r.GetCounter("atis_buffer_hits_total", "Buffer pool page hits")
        .Set(bp.hits);
    r.GetCounter("atis_buffer_misses_total", "Buffer pool page misses")
        .Set(bp.misses);
    r.GetCounter("atis_buffer_evictions_total", "Buffer pool frame evictions")
        .Set(bp.evictions);
    r.GetCounter("atis_buffer_dirty_writebacks_total",
                 "Dirty pages written back by the buffer pool")
        .Set(bp.dirty_writebacks);
    r.GetCounter("atis_buffer_read_retries_total",
                 "Miss-fill reads re-issued after a transient disk fault")
        .Set(bp.read_retries);
    r.GetCounter("atis_buffer_retries_exhausted_total",
                 "Miss fills that failed after the full retry budget")
        .Set(bp.retries_exhausted);
    const uint64_t accesses = bp.hits + bp.misses;
    r.GetGauge("atis_buffer_hit_ratio",
               "hits / (hits + misses) since pool creation")
        .Set(accesses > 0
                 ? static_cast<double>(bp.hits) / static_cast<double>(accesses)
                 : 0.0);
    r.GetGauge("atis_buffer_frames", "Buffer pool capacity in frames")
        .Set(static_cast<double>(pool->capacity()));
    r.GetGauge("atis_buffer_pool_shards",
               "Latch-protected shards the pool's frames are split across")
        .Set(static_cast<double>(pool->num_shards()));
    r.GetGauge("atis_buffer_pool_occupancy_ratio",
               "Cached frames / capacity (0..1)")
        .Set(pool->capacity() > 0
                 ? static_cast<double>(pool->num_cached()) /
                       static_cast<double>(pool->capacity())
                 : 0.0);
  });
}

}  // namespace atis::obs
