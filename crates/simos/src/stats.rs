//! OS-wide counters.

use simclock::{Counter, Histogram};

/// Aggregate counters over all files and descriptors.
#[derive(Debug, Default)]
pub struct OsStats {
    /// System calls entered.
    pub syscalls: Counter,
    /// `read` calls.
    pub reads: Counter,
    /// `write` calls.
    pub writes: Counter,
    /// Bytes delivered to readers.
    pub bytes_read: Counter,
    /// Bytes accepted from writers.
    pub bytes_written: Counter,
    /// Pages found in the cache on the read path.
    pub hit_pages: Counter,
    /// Pages that required device I/O on the read path.
    pub miss_pages: Counter,
    /// Pages scheduled by any prefetch path.
    pub prefetched_pages: Counter,
    /// `readahead(2)` invocations.
    pub ra_calls: Counter,
    /// `readahead_info` invocations (CROSS-OS).
    pub ra_info_calls: Counter,
    /// `readahead_info` attempts rejected because the kernel lacks the
    /// syscall (`readahead_info_supported = false`).
    pub ra_info_unsupported: Counter,
    /// Demand reads absorbed by the completion ring without any syscall
    /// crossing (range fully cached and confirmed via the shared bitmap).
    pub absorbed_reads: Counter,
    /// Demand reads that surfaced a transient device error to the caller.
    pub demand_read_errors: Counter,
    /// `fincore` invocations.
    pub fincore_calls: Counter,
    /// Pages dropped via `fadvise(DONTNEED)`.
    pub evicted_by_advice: Counter,
    /// Pages a demand read fetched itself rather than waiting on a distant
    /// queued prefetch stream.
    pub demand_bypass_pages: Counter,
    /// Time reads spent waiting for in-flight prefetch to become ready.
    pub ready_wait_ns: Counter,
    /// Time reads spent on synchronous demand fills (device on the
    /// critical path).
    pub demand_fill_ns: Counter,
    /// Distribution of per-read cache-tree lock wait (OS-side lock wait).
    pub lock_wait_hist: Histogram,
    /// Distribution of reclaim-pass scan time.
    pub reclaim_scan_hist: Histogram,

    // ----- dirty-page ledger -------------------------------------------
    // Invariant: `dirtied_pages == written_back_pages + dropped_dirty_pages
    // + <currently dirty>` — every dirtied page is eventually written back
    // or honestly dropped (unlink discards dirty data without device I/O).
    /// Pages the write path newly dirtied.
    pub dirtied_pages: Counter,
    /// Dirty pages flushed to a device (any flush path).
    pub written_back_pages: Counter,
    /// Dirty pages discarded without write-back (`unlink`).
    pub dropped_dirty_pages: Counter,

    // ----- write-back flush accounting ---------------------------------
    /// Flushes forced by dirty thresholds (per-file, background-global, or
    /// the hard dirty limit).
    pub wb_flush_threshold: Counter,
    /// Flushes forced by a virtual-time dirty deadline.
    pub wb_flush_deadline: Counter,
    /// Synchronous flushes (`fsync`, write-through).
    pub wb_flush_sync: Counter,
    /// Flushes riding eviction paths (`fadvise(DONTNEED)`, `drop_caches`,
    /// reclaim).
    pub wb_flush_drop: Counter,
    /// Device write crossings issued by run-based flushing.
    pub wb_runs_flushed: Counter,
    /// Adjacent dirty runs merged into one crossing by gap coalescing.
    pub wb_runs_coalesced: Counter,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let stats = OsStats::default();
        assert_eq!(stats.syscalls.get(), 0);
        assert_eq!(stats.prefetched_pages.get(), 0);
    }
}
