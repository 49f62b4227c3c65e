//! Runtime modes, feature staging, and tunables.

use predict::{EngineKind, SEQ_BATCH_PAGES};
use simos::PAGE_SIZE;

/// The comparison mechanisms of the paper's Table 2 (plus the Figure 2
/// fincore strawman).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Application-tailored prefetching via `readahead`/`fadvise`; the
    /// runtime is a pass-through and the workload drives policy.
    AppOnly,
    /// Prefetching fully delegated to the OS heuristic readahead.
    OsOnly,
    /// Cross-layered prediction through `readahead_info`, still subject to
    /// the OS prefetch limits (`CrossP[+predict]`).
    Predict,
    /// `CrossP[+predict+opt]`: prediction plus relaxed OS limits and
    /// memory-budget-aware aggressive prefetching and eviction.
    PredictOpt,
    /// `CrossP[+fetchall+opt]`: cache-state-aware whole-file prefetch at
    /// open; memory-insensitive (no adaptive eviction).
    FetchAllOpt,
    /// `APPonly[fincore]` (Figure 2): a background poller builds cache
    /// awareness with `fincore` and issues `readahead` calls.
    FincoreApp,
}

/// Individual capabilities, for the Table 5 incremental breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Intercept I/O and run the access-pattern predictor.
    pub predict: bool,
    /// Use `readahead_info` + exported bitmaps (cache visibility).
    pub visibility: bool,
    /// Per-node range-tree locking (off = one whole-file bitmap lock).
    pub range_tree: bool,
    /// Relax the OS prefetch limit via the `readahead_info` override.
    pub relax_limits: bool,
    /// Memory-budget aggressive prefetching and eviction.
    pub aggressive: bool,
    /// Prefetch entire files at open.
    pub fetchall: bool,
    /// Background fincore polling (the Figure 2 strawman).
    pub fincore_poll: bool,
}

impl Features {
    /// No runtime involvement at all.
    pub const fn passthrough() -> Self {
        Self {
            predict: false,
            visibility: false,
            range_tree: false,
            relax_limits: false,
            aggressive: false,
            fetchall: false,
            fincore_poll: false,
        }
    }

    /// Whether the runtime intercepts I/O (any CROSS-LIB machinery on).
    pub fn intercepting(&self) -> bool {
        self.predict || self.visibility || self.fetchall || self.fincore_poll
    }
}

impl Mode {
    /// The feature bundle this mode enables (the Table-2 row, defined in
    /// [`crate::policy`] next to the rest of the mechanism-dispatch
    /// table).
    pub fn features(self) -> Features {
        crate::policy::features_for(self)
    }

    /// Short label used in bench output tables.
    pub fn label(self) -> &'static str {
        match self {
            Mode::AppOnly => "APPonly",
            Mode::OsOnly => "OSonly",
            Mode::Predict => "CrossP[+predict]",
            Mode::PredictOpt => "CrossP[+predict+opt]",
            Mode::FetchAllOpt => "CrossP[+fetchall+opt]",
            Mode::FincoreApp => "APPonly[fincore]",
        }
    }

    /// All Table 2 mechanisms, in the paper's presentation order.
    pub fn table2() -> [Mode; 5] {
        [
            Mode::AppOnly,
            Mode::OsOnly,
            Mode::Predict,
            Mode::PredictOpt,
            Mode::FetchAllOpt,
        ]
    }
}

/// CROSS-LIB tunables (the artifact's `compiler.sh` knobs).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Mechanism to run.
    pub mode: Mode,
    /// Explicit feature overrides (None = derive from `mode`). Used by the
    /// Table 5 breakdown.
    pub features: Option<Features>,
    /// Predictor counter width in bits (`CROSS_BITMAP_SHIFT` analogue).
    pub predictor_bits: u32,
    /// Which prediction engine new descriptors use: the §4.6 strided
    /// counter, the only one there is, so the runtime never reads this.
    /// Kept for callers that build a predictor through
    /// [`predict::Predictor::for_kind`].
    pub engine: EngineKind,
    /// Sequential-batch window in pages: jumps within this distance of
    /// the previous access still count as sequential-ish (Linux's
    /// 32-block batch, §3.1). Default [`predict::SEQ_BATCH_PAGES`].
    pub seq_batch_pages: u64,
    /// Optimistic prefetch issued at a descriptor's first read, bytes
    /// (§4.6 default 2 MiB).
    pub open_prefetch_bytes: u64,
    /// Ceiling for one relaxed prefetch request, pages (§4.7: 64 MiB).
    pub max_prefetch_pages: u64,
    /// Background prefetcher threads (`NR_WORKERS_VAR`).
    pub workers: usize,
    /// Stop *aggressive* growth when free memory drops below this fraction
    /// of the budget.
    pub aggressive_floor: f64,
    /// Stop *all* prefetching below this fraction of free memory.
    pub prefetch_floor: f64,
    /// Begin evicting when free memory drops below this fraction.
    pub evict_trigger: f64,
    /// Evict until free memory reaches this fraction.
    pub evict_target: f64,
    /// Minimum idle time (virtual ns) before the memory watcher may evict
    /// a file — protects files other threads are actively streaming.
    pub evict_min_idle_ns: u64,
    /// Minimum interval (virtual ns) between memory-watcher eviction
    /// scans; reads arriving inside the window skip the scan entirely.
    pub evict_scan_interval_ns: u64,
    /// Issue a fincore poll every N reads (FincoreApp mode).
    pub fincore_poll_interval: u64,
    /// Attempts a worker makes on a transiently failing prefetch before
    /// giving the range up (first try + retries).
    pub prefetch_retry_attempts: u32,
    /// Initial retry backoff in virtual ns; doubles per attempt.
    pub prefetch_retry_backoff_ns: u64,
    /// Shards for the per-file state registry (0 = auto: 2× `workers`).
    /// Shard count never affects simulated timing or telemetry counters —
    /// only real-lock contention between host threads.
    pub registry_shards: usize,
    /// Completion-driven I/O ring for demand reads. Fully-cached reads
    /// are absorbed through the exported bitmap without a syscall
    /// crossing; demand misses cross through the ordinary `read(2)`
    /// path; and high-confidence predictions pre-issue the next demand
    /// read speculatively. Requires cache visibility (the absorb path
    /// reads the shared bitmap); ignored on modes without it. Default
    /// off: the ring changes syscall counts, crossing costs, and
    /// therefore the virtual timeline — with it off, every new code path
    /// is bypassed and telemetry is byte-identical to the ring-less
    /// runtime.
    pub ring_submit: bool,
    /// Minimum predictor confidence (0.0–1.0) before the ring pre-issues
    /// the next predicted demand read speculatively. Mispredicted
    /// speculative reads are cancelled and charged as wasted prefetch, so
    /// the bar is high by default.
    pub ring_spec_confidence: f64,
    /// Exemplar reservoir depth per latency class for causal span tracing
    /// ([`crate::span::SpanCollector`]): the slowest K reads of each class
    /// keep their complete span tree. Sizing only — span *collection*
    /// stays off until [`crate::span::SpanCollector::set_enabled`] flips
    /// it on, and while off the read path pays one relaxed atomic load.
    pub span_exemplars: usize,
    /// Multi-tenant prefetch arbitration ([`crate::tenant`]): a tenant
    /// table with QoS classes, per-tenant fair-share prefetch windows
    /// rebalanced from the timely/late/wasted quality ledgers, and an
    /// admission ladder (full → coalesced-only → blind → deny) that
    /// degrades speculative prefetch under memory pressure before demand
    /// reads ever pay. Default `None`: no arbiter is built, files carry
    /// no tenant, every new code path is bypassed, and telemetry is
    /// byte-identical to the tenant-less runtime.
    pub tenants: Option<crate::tenant::TenantsConfig>,
    /// Cross-tier promotion planning ([`crate::tiering`]): when the OS
    /// runs on a [`simos::TieredStore`], high-confidence predictions are
    /// additionally turned into background remote→local promotion copies
    /// so the stream's demand reads land on the fast tier. Default
    /// `None`: no planner is built, no promotion job is ever dispatched,
    /// and telemetry is byte-identical to the tiering-less runtime.
    pub tiering: Option<crate::tiering::TieringConfig>,
}

impl RuntimeConfig {
    /// Paper-default configuration for a mechanism.
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            features: None,
            predictor_bits: 3,
            engine: EngineKind::Strided,
            seq_batch_pages: SEQ_BATCH_PAGES,
            open_prefetch_bytes: 2 << 20,
            max_prefetch_pages: (64 << 20) / PAGE_SIZE,
            workers: 2,
            aggressive_floor: 0.15,
            prefetch_floor: 0.05,
            evict_trigger: 0.10,
            evict_target: 0.25,
            evict_min_idle_ns: 100 * simclock::NS_PER_MS,
            evict_scan_interval_ns: simclock::NS_PER_MS,
            fincore_poll_interval: 32,
            prefetch_retry_attempts: 4,
            prefetch_retry_backoff_ns: 100 * simclock::NS_PER_US,
            registry_shards: 0,
            ring_submit: false,
            ring_spec_confidence: 0.9,
            span_exemplars: 8,
            tenants: None,
            tiering: None,
        }
    }

    /// Effective feature set.
    pub fn effective_features(&self) -> Features {
        self.features.unwrap_or_else(|| self.mode.features())
    }

    /// Effective registry shard count (0 resolves to 2× the worker count).
    pub fn effective_registry_shards(&self) -> usize {
        if self.registry_shards == 0 {
            self.workers.max(1) * 2
        } else {
            self.registry_shards
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_modes_do_not_intercept() {
        assert!(!Mode::AppOnly.features().intercepting());
        assert!(!Mode::OsOnly.features().intercepting());
        assert!(Mode::Predict.features().intercepting());
        assert!(Mode::FetchAllOpt.features().intercepting());
        assert!(Mode::FincoreApp.features().intercepting());
    }

    #[test]
    fn predict_opt_is_predict_plus_opt() {
        let p = Mode::Predict.features();
        let po = Mode::PredictOpt.features();
        assert!(!p.relax_limits && !p.aggressive);
        assert!(po.relax_limits && po.aggressive);
        assert!(p.predict && po.predict && p.range_tree && po.range_tree);
    }

    #[test]
    fn fetchall_has_no_range_tree() {
        let f = Mode::FetchAllOpt.features();
        assert!(f.fetchall && f.visibility && !f.range_tree && !f.predict);
    }

    #[test]
    fn feature_override_wins() {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.features = Some(Features::passthrough());
        assert!(!config.effective_features().intercepting());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Mode::table2().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn default_limits_match_paper() {
        let config = RuntimeConfig::new(Mode::PredictOpt);
        assert_eq!(config.open_prefetch_bytes, 2 << 20);
        assert_eq!(config.max_prefetch_pages * PAGE_SIZE, 64 << 20);
        assert_eq!(config.predictor_bits, 3);
        assert_eq!(config.engine, EngineKind::Strided);
        assert_eq!(config.seq_batch_pages, SEQ_BATCH_PAGES);
    }
}
