//! Runtime-level counters.

use simclock::Counter;

/// CROSS-LIB counters — the runtime-side telemetry the paper reports
/// (prefetch syscalls saved, evictions, predictor activity).
#[derive(Debug, Default)]
pub struct LibStats {
    /// Reads intercepted by the runtime.
    pub reads: Counter,
    /// Writes intercepted by the runtime.
    pub writes: Counter,
    /// Prefetch requests enqueued to the worker pool.
    pub prefetches_enqueued: Counter,
    /// Prefetch requests skipped because the user-level bitmap showed the
    /// range fully cached — the syscalls CrossPrefetch saves.
    pub prefetches_skipped: Counter,
    /// Pages the runtime asked the OS to prefetch.
    pub pages_requested: Counter,
    /// Pages the OS actually initiated (from `readahead_info` replies).
    pub pages_initiated: Counter,
    /// Files evicted by the memory watcher.
    pub files_evicted: Counter,
    /// Pages dropped by runtime-driven eviction.
    pub pages_evicted: Counter,
    /// fincore polls issued (FincoreApp mode).
    pub fincore_polls: Counter,
    /// Worker-side prefetch attempts retried after a transient device
    /// error.
    pub prefetch_retries: Counter,
    /// Prefetch requests abandoned after exhausting the retry budget.
    pub prefetch_give_ups: Counter,
    /// Pages those abandoned requests covered (left unmarked in the
    /// user-level view, so later reads still demand-fetch them).
    pub pages_abandoned: Counter,
    /// Demand-read errors surfaced to the workload through the shim.
    pub read_errors: Counter,
    /// Times a file's range tree was dropped because the OS cache
    /// generation moved past the one the view was synced with (OS-side
    /// reclaim, fadvise or drop_caches behind CROSS-LIB's back).
    pub stale_resyncs: Counter,
    /// Adjacent planned prefetch runs merged into an earlier submission by
    /// the tenant arbiter's coalesced-only rung (the only source); each
    /// merge is one saved syscall-bearing submission.
    pub prefetch_runs_coalesced: Counter,
    /// Speculative next-read pre-issues the ring dispatched (Foreactor
    /// style: the predictor's next demand read, issued before the
    /// application asks).
    pub ring_spec_issued: Counter,
    /// Speculative pre-issues absorbed by a matching demand read.
    pub ring_spec_absorbed: Counter,
    /// Speculative pre-issues cancelled on mispredict (the demand read
    /// targeted a different range).
    pub ring_spec_cancelled: Counter,
    /// Pages cancelled speculative reads left in the cache, re-entered
    /// into the prefetch-quality ledger as charged (initiated) pages so
    /// they surface as `wasted` if never used.
    pub ring_spec_pages_charged: Counter,
    /// Cross-tier promotion jobs dispatched to the worker pool
    /// ([`crate::tiering::TierPlanner`]-approved predicted-hot ranges).
    pub promotions_issued: Counter,
    /// Promotion jobs whose remote→local copy completed (possibly copying
    /// zero new pages when demand reads beat the worker to the range).
    pub promotions_completed: Counter,
    /// Pages promotion jobs published into the cache (billed as
    /// prefetch-initiated pages, so the quality ledger identity holds).
    pub promotion_pages: Counter,
    /// Promotion attempts retried after a transient remote-device error.
    pub promotion_retries: Counter,
    /// Promotion jobs abandoned after exhausting the retry budget
    /// (placement is left unchanged; demand reads still work remotely).
    pub promotion_give_ups: Counter,
}

impl LibStats {
    /// Fraction of would-be prefetch calls avoided via cache visibility.
    pub fn skip_ratio(&self) -> f64 {
        let enq = self.prefetches_enqueued.get() as f64;
        let skipped = self.prefetches_skipped.get() as f64;
        if enq + skipped == 0.0 {
            return 0.0;
        }
        skipped / (enq + skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_ratio_handles_zero() {
        let stats = LibStats::default();
        assert_eq!(stats.skip_ratio(), 0.0);
        stats.prefetches_enqueued.add(3);
        stats.prefetches_skipped.add(1);
        assert!((stats.skip_ratio() - 0.25).abs() < 1e-12);
    }
}
