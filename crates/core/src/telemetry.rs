//! Aggregated runtime telemetry reports.
//!
//! CROSS-LIB's value proposition is *visibility*: the OS exports cache
//! state and counters, the runtime adds its own, and operators can see
//! exactly what prefetching did. [`RuntimeReport`] snapshots both layers
//! with a human-readable rendering, a dependency-free JSON export
//! ([`RuntimeReport::to_json`]) and interval accounting
//! ([`RuntimeReport::delta`]).
//!
//! Each field is declared once, in the `report_fields!` table: doc, name,
//! type, JSON section path and key, and kind (`delta` subtracts a
//! `counter`, saturating, and keeps a `gauge`'s later value). The table
//! generates the struct, `delta` and `to_json` in table (= JSON) order;
//! `collect` and `Display` stay hand-written, as every source differs.

use std::fmt::{self, Write as _};

use simclock::HistogramSnapshot;
use simos::{PrefetchQuality, RegistryStats};

use crate::metrics::{PipelineStage, ReadClass};
use crate::span::SpanClassTotals;
use crate::tenant::TenantReport;
use crate::Runtime;

/// Version stamped into every JSON export; bump on breaking layout change.
/// Version 2 removed the `batching` section and the `ring` section's
/// `demand_batch_calls`, `staged_runs_piggybacked` and `timer_fires`.
/// Version 3 removed the `range_index` section's `kind`.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 3;

/// Generates [`RuntimeReport`], [`RuntimeReport::delta`] and
/// [`RuntimeReport::to_json`] from one table. Each entry reads
/// `field: Type, kind, [section path] "json key";` under the field's doc.
macro_rules! report_fields {
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty, $kind:ident, [$($section:literal),*] $key:literal;
    )*) => {
        /// A point-in-time snapshot of the cross-layered telemetry.
        #[derive(Debug, Clone, PartialEq)]
        pub struct RuntimeReport {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl RuntimeReport {
            /// Interval accounting: every counter is `self` minus `earlier`,
            /// saturating at zero (list rows are matched by name; a row new
            /// in `self` is kept whole). Gauges (`mode`, `hit_ratio`,
            /// `resident_pages`, the `enabled` flags, ...) are taken from
            /// `self` unchanged.
            pub fn delta(&self, earlier: &RuntimeReport) -> RuntimeReport {
                RuntimeReport {
                    $($field: report_fields!(@delta $kind, self.$field, earlier.$field),)*
                }
            }

            /// Machine-readable export (schema [`TELEMETRY_SCHEMA_VERSION`]).
            ///
            /// Hand-rolled rather than serde-derived: the reproduction builds
            /// with zero external dependencies. Histograms are exported as
            /// `{count, sum, p50, p95, p99}` summary objects.
            pub fn to_json(&self) -> String {
                let (mut out, mut open) = (String::from("{"), &[] as &[&str]);
                let version = u64::from(TELEMETRY_SCHEMA_VERSION);
                write_field(&mut out, &mut open, &[], "schema_version", &version);
                $(write_field(&mut out, &mut open, &[$($section),*], $key, &self.$field);)*
                out.push_str(&"}".repeat(open.len() + 1));
                out
            }
        }
    };
    (@delta counter, $now:expr, $earlier:expr) => { Delta::since(&$now, &$earlier) };
    (@delta gauge, $now:expr, $earlier:expr) => { $now.clone() };
}

report_fields! {
    /// Mechanism label (Table 2 name).
    mode: &'static str, gauge, [] "mode";
    /// Reads intercepted by the shim.
    reads: u64, counter, ["counters"] "reads";
    /// Writes intercepted by the shim.
    writes: u64, counter, ["counters"] "writes";
    /// `readahead_info` calls issued.
    ra_info_calls: u64, counter, ["counters"] "ra_info_calls";
    /// Prefetch requests skipped thanks to cache visibility.
    prefetches_skipped: u64, counter, ["counters"] "prefetches_skipped";
    /// Pages the OS initiated on behalf of the runtime.
    pages_initiated: u64, counter, ["counters"] "pages_initiated";
    /// Pages evicted by the runtime's memory watcher.
    pages_evicted_by_lib: u64, counter, ["counters"] "pages_evicted_by_lib";
    /// Pages evicted by the OS LRU.
    pages_evicted_by_os: u64, counter, ["counters"] "pages_evicted_by_os";
    /// Device bytes read.
    device_read_bytes: u64, counter, ["counters"] "device_read_bytes";
    /// Device bytes written.
    device_write_bytes: u64, counter, ["counters"] "device_write_bytes";
    /// Resident pages.
    resident_pages: u64, gauge, ["counters"] "resident_pages";
    /// Memory budget in pages.
    budget_pages: u64, gauge, ["counters"] "budget_pages";
    /// Aggregate OS lock wait (tree + bitmap + mmap), nanoseconds.
    os_lock_wait_ns: u64, counter, ["counters"] "os_lock_wait_ns";
    /// Aggregate user-level range-tree lock wait, nanoseconds.
    lib_lock_wait_ns: u64, counter, ["counters"] "lib_lock_wait_ns";
    /// Trace events dropped by the bounded ring (0 when tracing is off).
    trace_events_dropped: u64, counter, ["counters"] "trace_events_dropped";
    /// Worker prefetch attempts retried after a transient device error.
    prefetch_retries: u64, counter, ["counters"] "prefetch_retries";
    /// Prefetch requests abandoned after exhausting the retry budget.
    prefetch_give_ups: u64, counter, ["counters"] "prefetch_give_ups";
    /// Pages abandoned prefetches left to demand fetching.
    pages_abandoned: u64, counter, ["counters"] "pages_abandoned";
    /// Demand-read errors surfaced to the workload through the shim.
    read_errors: u64, counter, ["counters"] "read_errors";
    /// Range-tree resyncs after the OS cache generation moved behind it.
    stale_resyncs: u64, counter, ["counters"] "stale_resyncs";
    /// `readahead_info` attempts rejected by a stock kernel.
    ra_info_unsupported: u64, counter, ["counters"] "ra_info_unsupported";
    /// Transient EIOs the device's fault plan injected into reads.
    device_read_faults: u64, counter, ["counters"] "device_read_faults";
    /// Device reads that landed inside an injected latency-spike window.
    device_latency_spikes: u64, counter, ["counters"] "device_latency_spikes";
    /// Whether visibility prefetch was permanently downgraded to blind `readahead(2)`.
    degraded_to_blind: bool, gauge, ["counters"] "degraded_to_blind";
    /// Page-cache hit ratio over the OS lifetime.
    hit_ratio: f64, gauge, ["counters"] "hit_ratio";
    /// Prefetch-quality tallies (timely / late / wasted pages).
    prefetch_quality: PrefetchQuality, counter, [] "prefetch_quality";
    /// Read latency, reads served entirely from ready cache.
    read_cache_hit: HistogramSnapshot, counter, ["histograms"] "read_cache_hit_ns";
    /// Read latency, reads served by prefetched pages.
    read_prefetch_hit: HistogramSnapshot, counter, ["histograms"] "read_prefetch_hit_ns";
    /// Read latency, reads that waited on synchronous device I/O.
    read_demand_miss: HistogramSnapshot, counter, ["histograms"] "read_demand_miss_ns";
    /// Write latency.
    write_latency: HistogramSnapshot, counter, ["histograms"] "write_ns";
    /// Prefetch enqueue-to-completion latency.
    prefetch_latency: HistogramSnapshot, counter, ["histograms"] "prefetch_ns";
    /// Worker-queue wait of prefetch jobs.
    worker_queue: HistogramSnapshot, counter, ["histograms"] "worker_queue_ns";
    /// Per-read OS cache-tree lock wait distribution.
    os_lock_wait: HistogramSnapshot, counter, ["histograms"] "os_lock_wait_ns";
    /// Per-acquisition user-level range-tree lock wait distribution.
    lib_lock_wait: HistogramSnapshot, counter, ["histograms"] "lib_lock_wait_ns";
    /// Runtime eviction scan time.
    evict_scan: HistogramSnapshot, counter, ["histograms"] "evict_scan_ns";
    /// OS reclaim pass scan time.
    os_reclaim_scan: HistogramSnapshot, counter, ["histograms"] "os_reclaim_scan_ns";
    /// Per-stage read-pipeline cost as `(stage, distribution)`, [`PipelineStage::all`] order.
    stage_latency: Vec<(&'static str, HistogramSnapshot)>, counter, [] "stages";
    /// Adjacent prefetch runs merged by the tenant arbiter's coalesced-only rung.
    prefetch_runs_coalesced: u64, counter, [] "prefetch_runs_coalesced";
    /// Prediction engine new descriptors use ([`predict::EngineKind::name`], resolved).
    engine: &'static str, gauge, ["engines"] "selected";
    /// Correlation-mined prefetch runs the engine issued.
    engine_assoc_runs: u64, counter, ["engines"] "assoc_runs";
    /// Pages those association runs scheduled.
    engine_assoc_pages: u64, counter, ["engines"] "assoc_pages";
    /// Deferred mining passes dispatched to the worker pool.
    engine_mining_passes: u64, counter, ["engines"] "mining_passes";
    /// Adaptive duel windows closed.
    engine_duels: u64, counter, ["engines"] "duels";
    /// Adaptive ownership changes.
    engine_ownership_flips: u64, counter, ["engines"] "ownership_flips";
    /// Whether causal span tracing was enabled at snapshot time.
    spans_enabled: bool, gauge, ["spans"] "enabled";
    /// Reads that completed with a span frame.
    spans_reads_traced: u64, counter, ["spans"] "reads_traced";
    /// Exemplars admitted into the tail reservoirs.
    spans_exemplars_admitted: u64, counter, ["spans"] "exemplars_admitted";
    /// Exemplars displaced from full reservoirs by slower reads.
    spans_exemplars_evicted: u64, counter, ["spans"] "exemplars_evicted";
    /// Per-class critical-path totals as `(class, totals)`, cache-hit / prefetch-hit /
    /// demand-miss order (all-zero while span tracing is off).
    spans_classes: Vec<(&'static str, SpanClassTotals)>, counter, ["spans"] "classes";
    /// Whether the completion-driven ring is on (knob ANDed with cache visibility).
    ring_enabled: bool, gauge, ["ring"] "enabled";
    /// Demand reads the ring absorbed without a syscall crossing.
    ring_absorbed_reads: u64, counter, ["ring"] "absorbed_reads";
    /// Speculative next-read pre-issues dispatched.
    ring_spec_issued: u64, counter, ["ring"] "spec_issued";
    /// Speculative pre-issues absorbed by a matching demand read.
    ring_spec_absorbed: u64, counter, ["ring"] "spec_absorbed";
    /// Speculative pre-issues cancelled on mispredict.
    ring_spec_cancelled: u64, counter, ["ring"] "spec_cancelled";
    /// Pages cancelled speculations re-entered into the quality ledger.
    ring_spec_pages_charged: u64, counter, ["ring"] "spec_pages_charged";
    /// Deepest per-file range index (1 = a lone leaf root).
    range_index_depth: u64, gauge, ["range_index"] "depth";
    /// Leaves allocated across files.
    range_index_leaves: u64, gauge, ["range_index"] "leaves";
    /// Leaf splits performed.
    range_index_splits: u64, counter, ["range_index"] "splits";
    /// Adjacent-leaf merges performed.
    range_index_merges: u64, counter, ["range_index"] "merges";
    /// Optimistic descents that failed validation and re-descended (0 single-threaded).
    range_index_retries: u64, counter, ["range_index"] "optimistic_retries";
    /// Whether the multi-tenant arbiter was configured ([`crate::RuntimeConfig::tenants`]).
    tenants_enabled: bool, gauge, ["tenants"] "enabled";
    /// Fair-share rebalance passes the arbiter ran.
    tenant_rebalances: u64, counter, ["tenants"] "rebalances";
    /// Per-tenant admission rows in tenant-table order (empty without an arbiter).
    tenants: Vec<TenantReport>, counter, ["tenants"] "list";
    /// Whether the promotion planner was built (a tiering config *and* a tiered store).
    tiering_enabled: bool, gauge, ["tiering"] "enabled";
    /// Whether the OS write-back daemon was configured ([`simos::OsConfig::writeback`]).
    writeback_enabled: bool, gauge, ["tiering"] "writeback_enabled";
    /// Local-tier read requests (all tier fields are zero un-tiered).
    tier_local_reads: u64, counter, ["tiering", "local"] "reads";
    /// Local-tier write requests.
    tier_local_writes: u64, counter, ["tiering", "local"] "writes";
    /// Local-tier bytes read.
    tier_local_read_bytes: u64, counter, ["tiering", "local"] "read_bytes";
    /// Local-tier bytes written.
    tier_local_write_bytes: u64, counter, ["tiering", "local"] "write_bytes";
    /// Local-tier blocks resident at snapshot time.
    tier_local_resident_blocks: u64, gauge, ["tiering", "local"] "resident_blocks";
    /// Local-tier capacity, in blocks.
    tier_local_capacity_blocks: u64, gauge, ["tiering", "local"] "capacity_blocks";
    /// Remote-tier read requests.
    tier_remote_reads: u64, counter, ["tiering", "remote"] "reads";
    /// Remote-tier write requests.
    tier_remote_writes: u64, counter, ["tiering", "remote"] "writes";
    /// Remote-tier bytes read.
    tier_remote_read_bytes: u64, counter, ["tiering", "remote"] "read_bytes";
    /// Remote-tier bytes written.
    tier_remote_write_bytes: u64, counter, ["tiering", "remote"] "write_bytes";
    /// Promotion jobs the planner dispatched to the worker pool.
    promotions_issued: u64, counter, ["tiering", "promotions"] "issued";
    /// Promotion jobs whose remote→local copy completed.
    promotions_completed: u64, counter, ["tiering", "promotions"] "completed";
    /// Pages completed promotions published into the cache (billed as prefetch).
    promotion_pages: u64, counter, ["tiering", "promotions"] "pages";
    /// Promotion attempts retried after a transient remote fault.
    promotion_retries: u64, counter, ["tiering", "promotions"] "retries";
    /// Promotion jobs abandoned after exhausting the retry budget.
    promotion_give_ups: u64, counter, ["tiering", "promotions"] "give_ups";
    /// Blocks the store moved to the local tier by promotion.
    tier_promoted_blocks: u64, counter, ["tiering", "promotions"] "blocks";
    /// Promotion copies rejected by an injected remote fault (store-side).
    tier_promotion_faults: u64, counter, ["tiering", "promotions"] "faults";
    /// Promoted blocks demoted or dropped unread — placement's wasted prefetch.
    tier_promoted_wasted_blocks: u64, counter, ["tiering", "promotions"] "wasted_blocks";
    /// Demotion passes (placement words returned to the remote tier).
    tier_demotions: u64, counter, ["tiering", "demotions"] "passes";
    /// Blocks returned to the remote tier by demotion.
    tier_demoted_blocks: u64, counter, ["tiering", "demotions"] "blocks";
    /// Demoted blocks that were locally modified, so written back remotely first.
    tier_demoted_dirty_blocks: u64, counter, ["tiering", "demotions"] "dirty_blocks";
    /// Pages newly dirtied (ledger: `dirtied == written_back + dropped + dirty_now`).
    wb_dirtied_pages: u64, counter, ["tiering", "writeback"] "dirtied_pages";
    /// Dirty pages flushed to a device (any flush path).
    wb_written_back_pages: u64, counter, ["tiering", "writeback"] "written_back_pages";
    /// Dirty pages discarded without write-back (`unlink`).
    wb_dropped_dirty_pages: u64, counter, ["tiering", "writeback"] "dropped_dirty_pages";
    /// Pages dirty at snapshot time (point-in-time, not monotone).
    wb_dirty_pages_now: u64, gauge, ["tiering", "writeback"] "dirty_pages";
    /// Flushes forced by dirty thresholds.
    wb_flush_threshold: u64, counter, ["tiering", "writeback"] "flush_threshold";
    /// Flushes forced by a virtual-time dirty deadline.
    wb_flush_deadline: u64, counter, ["tiering", "writeback"] "flush_deadline";
    /// Synchronous flushes (`fsync`, write-through).
    wb_flush_sync: u64, counter, ["tiering", "writeback"] "flush_sync";
    /// Flushes riding eviction paths (advice, cache drops, reclaim).
    wb_flush_drop: u64, counter, ["tiering", "writeback"] "flush_drop";
    /// Device write crossings issued by run-based flushing.
    wb_runs_flushed: u64, counter, ["tiering", "writeback"] "runs_flushed";
    /// Adjacent dirty runs merged into one crossing by gap coalescing.
    wb_runs_coalesced: u64, counter, ["tiering", "writeback"] "runs_coalesced";
    // Keep `registries` last: shard count is deployment configuration, so
    // determinism checks across shard counts compare the prefix.
    /// Real-lock contention on the CROSS-LIB per-file registry shards
    /// (wall-clock, contended acquisitions only; zero single-threaded).
    lib_registry: RegistryStats, counter, ["registries"] "lib_files";
    /// Real-lock contention on the CROSS-OS inode-cache registry shards.
    os_cache_registry: RegistryStats, counter, ["registries"] "os_caches";
    /// Real-lock contention on the CROSS-OS descriptor-table shards.
    os_fd_registry: RegistryStats, counter, ["registries"] "os_fds";
}

/// Interval accounting for one counter type.
trait Delta: Clone {
    /// `self - earlier`, saturating at zero.
    fn since(&self, earlier: &Self) -> Self;

    /// Identity of a list row; rows of two snapshots are matched by it.
    fn key(&self) -> &str {
        ""
    }
}

/// Implements [`Delta`] for each `Type => |now, earlier| difference`.
macro_rules! delta_impls {
    ($($ty:ty => |$now:ident, $earlier:ident| $since:expr;)*) => {
        $(impl Delta for $ty {
            fn since(&self, earlier: &Self) -> Self {
                let ($now, $earlier) = (self, earlier);
                $since
            }
        })*
    };
}

delta_impls! {
    u64 => |now, earlier| now.saturating_sub(*earlier);
    HistogramSnapshot => |now, earlier| now.delta(earlier);
    PrefetchQuality => |now, earlier| now.delta(*earlier);
    RegistryStats => |now, earlier| now.delta(earlier);
    SpanClassTotals => |now, earlier| now.delta(earlier);
}

impl Delta for TenantReport {
    fn since(&self, earlier: &Self) -> Self {
        self.delta(earlier)
    }

    fn key(&self) -> &str {
        &self.name
    }
}

impl<T: Delta> Delta for (&'static str, T) {
    fn since(&self, earlier: &Self) -> Self {
        (self.0, self.1.since(&earlier.1))
    }

    fn key(&self) -> &str {
        self.0
    }
}

impl<T: Delta> Delta for Vec<T> {
    fn since(&self, earlier: &Self) -> Self {
        self.iter()
            .map(|row| match earlier.iter().find(|e| e.key() == row.key()) {
                Some(prior) => row.since(prior),
                None => row.clone(),
            })
            .collect()
    }
}

/// One value rendered as JSON.
trait ToJson {
    fn write_json(&self, out: &mut String);
}

/// Implements [`ToJson`] for scalars rendered through a format string.
macro_rules! scalar_json {
    ($($ty:ty => $fmt:literal),*) => {
        $(impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, $fmt, self);
            }
        })*
    };
}

scalar_json!(u64 => "{}", bool => "{}", f64 => "{:.6}");

impl ToJson for &str {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", json_escape(self));
    }
}

/// Implements [`ToJson`] for each `Type => |value| ["key": field, ...]`
/// as one JSON object.
macro_rules! object_json {
    ($($ty:ty => |$v:ident| [$($key:literal: $field:expr),* $(,)?];)*) => {
        $(impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let $v = self;
                write_object(out, &[$(($key, &$field)),*]);
            }
        })*
    };
}

object_json! {
    HistogramSnapshot => |h| [
        "count": h.count, "sum": h.sum, "p50": h.p50(), "p95": h.p95(), "p99": h.p99(),
    ];
    PrefetchQuality => |q| ["timely": q.timely, "late": q.late, "wasted": q.wasted];
    RegistryStats => |r| [
        "shards": r.shards() as u64, "lock_wait_ns": r.total_wait_ns(),
        "contended": r.total_contended(), "per_shard_wait_ns": r.per_shard_wait_ns,
    ];
    SpanClassTotals => |t| [
        "reads": t.reads, "stage_compute_ns": t.path.stage_compute_ns,
        "lock_wait_ns": t.path.lock_wait_ns, "queue_wait_ns": t.path.queue_wait_ns,
        "device_service_ns": t.path.device_service_ns,
        "retry_backoff_ns": t.path.retry_backoff_ns,
    ];
    TenantReport => |t| [
        "name": t.name.as_str(), "qos": t.qos, "weight": t.weight,
        "budget_pages": t.budget_pages, "window_used_pages": t.window_used_pages,
        "initiated_pages": t.initiated_pages, "admitted_pages": t.admitted_pages,
        "degraded_coalesced": t.degraded_coalesced, "degraded_blind": t.degraded_blind,
        "denied": t.denied, "denied_pages": t.denied_pages,
    ];
}

/// A JSON array.
impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

/// A named list renders as an object keyed by the names, in list order.
impl<T: ToJson> ToJson for Vec<(&'static str, T)> {
    fn write_json(&self, out: &mut String) {
        let fields: Vec<(&str, &dyn ToJson)> = self
            .iter()
            .map(|(name, value)| (*name, value as &dyn ToJson))
            .collect();
        write_object(out, &fields);
    }
}

/// Writes `{"key":value,...}`.
fn write_object(out: &mut String, fields: &[(&str, &dyn ToJson)]) {
    out.push('{');
    for (key, value) in fields {
        push_key(out, key);
        value.write_json(out);
    }
    out.push('}');
}

/// Writes `"key":`, preceded by a comma unless it opens its object.
fn push_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{key}\":");
}

/// Writes one report field, first closing and opening nested section
/// objects so that `open` (the sections currently open) becomes `path`.
fn write_field(
    out: &mut String,
    open: &mut &'static [&'static str],
    path: &'static [&'static str],
    key: &str,
    value: &dyn ToJson,
) {
    let shared = open.iter().zip(path).take_while(|(a, b)| a == b).count();
    out.push_str(&"}".repeat(open.len() - shared));
    for section in &path[shared..] {
        push_key(out, section);
        out.push('{');
    }
    *open = path;
    push_key(out, key);
    value.write_json(out);
}

impl RuntimeReport {
    /// Snapshots the current counters of `runtime` and its OS.
    pub fn collect(runtime: &Runtime) -> Self {
        let os = runtime.os();
        let stats = runtime.stats();
        let metrics = runtime.metrics();
        let index_stats = runtime.range_index_stats();
        let tiered = os.tiered();
        let tier_local = tiered.map(|t| t.local().stats());
        let tier_remote = tiered.map(|t| t.remote().stats());
        let tier_stats = tiered.map(|t| t.stats());
        Self {
            mode: runtime.config().mode.label(),
            reads: stats.reads.get(),
            writes: stats.writes.get(),
            hit_ratio: os.hit_ratio(),
            ra_info_calls: os.stats().ra_info_calls.get(),
            prefetches_skipped: stats.prefetches_skipped.get(),
            pages_initiated: stats.pages_initiated.get(),
            pages_evicted_by_lib: stats.pages_evicted.get(),
            pages_evicted_by_os: os.mem().evicted.get(),
            device_read_bytes: os.device().stats().read_bytes.get(),
            device_write_bytes: os.device().stats().write_bytes.get(),
            resident_pages: os.mem().resident(),
            budget_pages: os.mem().budget(),
            os_lock_wait_ns: os.total_lock_wait_ns(),
            lib_lock_wait_ns: runtime.lib_lock_wait_ns(),
            prefetch_quality: os.prefetch_quality(),
            prefetch_retries: stats.prefetch_retries.get(),
            prefetch_give_ups: stats.prefetch_give_ups.get(),
            pages_abandoned: stats.pages_abandoned.get(),
            read_errors: stats.read_errors.get(),
            stale_resyncs: stats.stale_resyncs.get(),
            ra_info_unsupported: os.stats().ra_info_unsupported.get(),
            degraded_to_blind: runtime.degraded_to_blind(),
            device_read_faults: os.device().stats().injected_read_faults.get(),
            device_latency_spikes: os.device().stats().latency_spike_requests.get(),
            trace_events_dropped: runtime.trace().dropped(),
            read_cache_hit: metrics.read_cache_hit_ns.snapshot(),
            read_prefetch_hit: metrics.read_prefetch_hit_ns.snapshot(),
            read_demand_miss: metrics.read_demand_miss_ns.snapshot(),
            write_latency: metrics.write_ns.snapshot(),
            prefetch_latency: metrics.prefetch_ns.snapshot(),
            worker_queue: metrics.worker_queue_ns.snapshot(),
            os_lock_wait: os.stats().lock_wait_hist.snapshot(),
            lib_lock_wait: metrics.lib_lock_wait_ns.snapshot(),
            evict_scan: metrics.evict_scan_ns.snapshot(),
            os_reclaim_scan: os.stats().reclaim_scan_hist.snapshot(),
            prefetch_runs_coalesced: stats.prefetch_runs_coalesced.get(),
            engine: runtime.inner.policy.engine.name(),
            engine_assoc_runs: stats.engine_assoc_runs.get(),
            engine_assoc_pages: stats.engine_assoc_pages.get(),
            engine_mining_passes: stats.engine_mining_passes.get(),
            engine_duels: stats.engine_duels.get(),
            engine_ownership_flips: stats.engine_ownership_flips.get(),
            ring_enabled: runtime.inner.policy.ring,
            ring_absorbed_reads: os.stats().absorbed_reads.get(),
            ring_spec_issued: stats.ring_spec_issued.get(),
            ring_spec_absorbed: stats.ring_spec_absorbed.get(),
            ring_spec_cancelled: stats.ring_spec_cancelled.get(),
            ring_spec_pages_charged: stats.ring_spec_pages_charged.get(),
            range_index_depth: index_stats.depth,
            range_index_leaves: index_stats.leaves,
            range_index_splits: index_stats.splits,
            range_index_merges: index_stats.merges,
            range_index_retries: index_stats.optimistic_retries,
            stage_latency: PipelineStage::all()
                .iter()
                .map(|&stage| (stage.name(), metrics.stage_hist(stage).snapshot()))
                .collect(),
            spans_enabled: runtime.spans().is_enabled(),
            spans_reads_traced: runtime.spans().reads_traced(),
            spans_exemplars_admitted: runtime.spans().exemplars_admitted(),
            spans_exemplars_evicted: runtime.spans().exemplars_evicted(),
            spans_classes: [
                ReadClass::CacheHit,
                ReadClass::PrefetchHit,
                ReadClass::DemandMiss,
            ]
            .iter()
            .map(|&class| (class.name(), runtime.spans().class_totals(class)))
            .collect(),
            tenants_enabled: runtime.inner.policy.tenants,
            tenant_rebalances: runtime.tenants().map_or(0, |a| a.rebalances()),
            tenants: runtime.tenants().map_or_else(Vec::new, |a| a.reports()),
            tiering_enabled: runtime.inner.planner.is_some(),
            writeback_enabled: os.config().writeback.is_some(),
            tier_local_reads: tier_local.map_or(0, |s| s.read_requests.get()),
            tier_local_writes: tier_local.map_or(0, |s| s.write_requests.get()),
            tier_local_read_bytes: tier_local.map_or(0, |s| s.read_bytes.get()),
            tier_local_write_bytes: tier_local.map_or(0, |s| s.write_bytes.get()),
            tier_remote_reads: tier_remote.map_or(0, |s| s.read_requests.get()),
            tier_remote_writes: tier_remote.map_or(0, |s| s.write_requests.get()),
            tier_remote_read_bytes: tier_remote.map_or(0, |s| s.read_bytes.get()),
            tier_remote_write_bytes: tier_remote.map_or(0, |s| s.write_bytes.get()),
            tier_local_resident_blocks: tiered.map_or(0, |t| t.local_resident_blocks()),
            tier_local_capacity_blocks: tiered.map_or(0, |t| t.local_capacity_blocks()),
            promotions_issued: stats.promotions_issued.get(),
            promotions_completed: stats.promotions_completed.get(),
            promotion_pages: stats.promotion_pages.get(),
            promotion_retries: stats.promotion_retries.get(),
            promotion_give_ups: stats.promotion_give_ups.get(),
            tier_promoted_blocks: tier_stats.map_or(0, |s| s.promoted_blocks.get()),
            tier_promotion_faults: tier_stats.map_or(0, |s| s.promotion_faults.get()),
            tier_promoted_wasted_blocks: tier_stats.map_or(0, |s| s.promoted_wasted_blocks.get()),
            tier_demotions: tier_stats.map_or(0, |s| s.demotions.get()),
            tier_demoted_blocks: tier_stats.map_or(0, |s| s.demoted_blocks.get()),
            tier_demoted_dirty_blocks: tier_stats.map_or(0, |s| s.demoted_dirty_blocks.get()),
            wb_dirtied_pages: os.stats().dirtied_pages.get(),
            wb_written_back_pages: os.stats().written_back_pages.get(),
            wb_dropped_dirty_pages: os.stats().dropped_dirty_pages.get(),
            wb_dirty_pages_now: os.mem().dirty(),
            wb_flush_threshold: os.stats().wb_flush_threshold.get(),
            wb_flush_deadline: os.stats().wb_flush_deadline.get(),
            wb_flush_sync: os.stats().wb_flush_sync.get(),
            wb_flush_drop: os.stats().wb_flush_drop.get(),
            wb_runs_flushed: os.stats().wb_runs_flushed.get(),
            wb_runs_coalesced: os.stats().wb_runs_coalesced.get(),
            lib_registry: runtime.file_registry_stats(),
            os_cache_registry: os.cache_registry_stats(),
            os_fd_registry: os.fd_registry_stats(),
        }
    }

    /// Prefetch efficiency: fraction of device pages read that were
    /// initiated by a prefetch path, clamped to `[0, 1]`.
    ///
    /// The raw initiated count can exceed the device's page traffic
    /// (overlapping requests are deduplicated by the cache after they are
    /// counted), so the ratio is clamped rather than letting bookkeeping
    /// races report an efficiency above 1.0.
    pub fn prefetch_share(&self) -> f64 {
        let device_pages = self.device_read_bytes.div_ceil(crate::PAGE_SIZE);
        if device_pages == 0 {
            return 0.0;
        }
        (self.pages_initiated as f64 / device_pages as f64).min(1.0)
    }

    fn latency_line(name: &str, snap: &HistogramSnapshot) -> String {
        if snap.count == 0 {
            format!("  {name:<16} (no samples)")
        } else {
            format!(
                "  {:<16} n={:<8} p50={} ns  p95={} ns  p99={} ns",
                name,
                snap.count,
                snap.p50(),
                snap.p95(),
                snap.p99()
            )
        }
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_escape(s: &str) -> String {
    let mut escaped = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== CrossPrefetch runtime report [{}] ===", self.mode)?;
        writeln!(
            f,
            "I/O        : {} reads, {} writes",
            self.reads, self.writes
        )?;
        writeln!(
            f,
            "cache      : {:.1}% hits, {}/{} pages resident",
            self.hit_ratio * 100.0,
            self.resident_pages,
            self.budget_pages
        )?;
        writeln!(
            f,
            "prefetch   : {} readahead_info calls, {} skipped by visibility, {} pages initiated",
            self.ra_info_calls, self.prefetches_skipped, self.pages_initiated
        )?;
        writeln!(
            f,
            "quality    : {} timely, {} late, {} wasted prefetched pages",
            self.prefetch_quality.timely, self.prefetch_quality.late, self.prefetch_quality.wasted
        )?;
        writeln!(
            f,
            "eviction   : {} pages by runtime, {} pages by OS LRU",
            self.pages_evicted_by_lib, self.pages_evicted_by_os
        )?;
        writeln!(
            f,
            "device     : {:.1} MB read, {:.1} MB written ({:.0}% prefetch-driven)",
            self.device_read_bytes as f64 / 1e6,
            self.device_write_bytes as f64 / 1e6,
            self.prefetch_share() * 100.0
        )?;
        writeln!(
            f,
            "lock waits : {} us OS-side, {} us user-side",
            self.os_lock_wait_ns / 1_000,
            self.lib_lock_wait_ns / 1_000
        )?;
        writeln!(
            f,
            "faults     : {} injected EIOs, {} retries, {} give-ups ({} pages), {} read errors, {} resyncs{}",
            self.device_read_faults,
            self.prefetch_retries,
            self.prefetch_give_ups,
            self.pages_abandoned,
            self.read_errors,
            self.stale_resyncs,
            if self.degraded_to_blind {
                " [degraded to blind readahead]"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "trace      : {} ring-dropped events",
            self.trace_events_dropped
        )?;
        writeln!(f, "latency    :")?;
        for (name, snap) in [
            ("read/cache-hit", &self.read_cache_hit),
            ("read/prefetch-hit", &self.read_prefetch_hit),
            ("read/demand-miss", &self.read_demand_miss),
            ("prefetch", &self.prefetch_latency),
        ] {
            writeln!(f, "{}", Self::latency_line(name, snap))?;
        }
        writeln!(f, "pipeline   :")?;
        for (name, snap) in &self.stage_latency {
            writeln!(f, "{}", Self::latency_line(name, snap))?;
        }
        writeln!(
            f,
            "registries : lib {} shards ({} contended, {} us), os-caches {} shards ({} contended, {} us), os-fds {} shards ({} contended, {} us)",
            self.lib_registry.shards(),
            self.lib_registry.total_contended(),
            self.lib_registry.total_wait_ns() / 1_000,
            self.os_cache_registry.shards(),
            self.os_cache_registry.total_contended(),
            self.os_cache_registry.total_wait_ns() / 1_000,
            self.os_fd_registry.shards(),
            self.os_fd_registry.total_contended(),
            self.os_fd_registry.total_wait_ns() / 1_000
        )?;
        writeln!(
            f,
            "range-index: depth {}, {} leaves, {} splits, {} merges, {} optimistic retries",
            self.range_index_depth,
            self.range_index_leaves,
            self.range_index_splits,
            self.range_index_merges,
            self.range_index_retries
        )?;
        if self.prefetch_runs_coalesced > 0 {
            writeln!(
                f,
                "coalescing : {} prefetch runs merged before submission",
                self.prefetch_runs_coalesced
            )?;
        }
        if self.ring_enabled || self.ring_absorbed_reads > 0 {
            writeln!(
                f,
                "ring       : {} absorbed reads, spec {} issued / {} absorbed / {} cancelled ({} pages charged)",
                self.ring_absorbed_reads,
                self.ring_spec_issued,
                self.ring_spec_absorbed,
                self.ring_spec_cancelled,
                self.ring_spec_pages_charged
            )?;
        }
        if self.engine != "strided" || self.engine_assoc_runs > 0 || self.engine_mining_passes > 0 {
            writeln!(
                f,
                "engines    : {} selected, {} assoc runs ({} pages), {} mining passes, {} duels, {} ownership flips",
                self.engine,
                self.engine_assoc_runs,
                self.engine_assoc_pages,
                self.engine_mining_passes,
                self.engine_duels,
                self.engine_ownership_flips
            )?;
        }
        if self.tenants_enabled {
            writeln!(
                f,
                "tenants    : {} configured, {} rebalances",
                self.tenants.len(),
                self.tenant_rebalances
            )?;
            for row in &self.tenants {
                writeln!(
                    f,
                    "  {:<12} [{:<6}] share={:<8} initiated={:<8} admitted={:<8} degraded={}+{} denied={} ({} pages)",
                    row.name,
                    row.qos,
                    row.budget_pages,
                    row.initiated_pages,
                    row.admitted_pages,
                    row.degraded_coalesced,
                    row.degraded_blind,
                    row.denied,
                    row.denied_pages
                )?;
            }
        }
        if self.tiering_enabled || self.wb_dirtied_pages > 0 {
            writeln!(
                f,
                "tiering    : local {}/{} blocks, promotions {} issued / {} completed ({} pages, {} retries, {} give-ups), demotions {} ({} blocks)",
                self.tier_local_resident_blocks,
                self.tier_local_capacity_blocks,
                self.promotions_issued,
                self.promotions_completed,
                self.promotion_pages,
                self.promotion_retries,
                self.promotion_give_ups,
                self.tier_demotions,
                self.tier_demoted_blocks
            )?;
            writeln!(
                f,
                "write-back : {} dirtied, {} written back, {} dropped, {} dirty now; flushes {} threshold / {} deadline / {} sync / {} drop ({} runs, {} coalesced)",
                self.wb_dirtied_pages,
                self.wb_written_back_pages,
                self.wb_dropped_dirty_pages,
                self.wb_dirty_pages_now,
                self.wb_flush_threshold,
                self.wb_flush_deadline,
                self.wb_flush_sync,
                self.wb_flush_drop,
                self.wb_runs_flushed,
                self.wb_runs_coalesced
            )?;
        }
        if self.spans_reads_traced > 0 {
            writeln!(
                f,
                "spans      : {} reads traced, {} exemplars kept ({} displaced)",
                self.spans_reads_traced,
                self.spans_exemplars_admitted
                    .saturating_sub(self.spans_exemplars_evicted),
                self.spans_exemplars_evicted
            )?;
            for (name, totals) in &self.spans_classes {
                if totals.reads == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {:<16} n={:<8} compute={} ns  lock={} ns  queue={} ns  device={} ns  backoff={} ns",
                    name,
                    totals.reads,
                    totals.path.stage_compute_ns,
                    totals.path.lock_wait_ns,
                    totals.path.queue_wait_ns,
                    totals.path.device_service_ns,
                    totals.path.retry_backoff_ns
                )?;
            }
        }
        write!(f, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{QosClass, TenantId, TenantSpec, TenantsConfig};
    use crate::{Mode, RuntimeConfig, TieringConfig, PAGE_SIZE};
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, TieredStore};

    fn runtime() -> Runtime {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        Runtime::with_mode(os, Mode::PredictOpt)
    }

    #[test]
    fn report_reflects_activity() {
        let rt = runtime();
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/t", 8 << 20).unwrap();
        for i in 0..128u64 {
            file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
        }
        let report = RuntimeReport::collect(&rt);
        assert_eq!(report.mode, "CrossP[+predict+opt]");
        assert_eq!(report.reads, 128);
        assert!(report.pages_initiated > 0);
        assert!(report.device_read_bytes > 0);
        assert!(report.hit_ratio > 0.0);
        // The latency histograms cover every read.
        let latency_samples = report.read_cache_hit.count
            + report.read_prefetch_hit.count
            + report.read_demand_miss.count;
        assert_eq!(latency_samples, 128);
        // A sequential scan produces timely prefetched pages.
        assert!(report.prefetch_quality.timely + report.prefetch_quality.late > 0);
    }

    #[test]
    fn report_renders_every_section() {
        let rt = runtime();
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/t", 1 << 20).unwrap();
        file.read_charge(&mut clock, 0, 64 * 1024);
        let rendered = RuntimeReport::collect(&rt).to_string();
        let sections = "I/O|cache|prefetch|quality|eviction|device|lock waits|faults|trace|latency";
        for section in sections.split('|') {
            assert!(rendered.contains(section), "missing section {section}");
        }
    }

    #[test]
    fn prefetch_share_handles_zero_device_traffic() {
        let rt = runtime();
        let report = RuntimeReport::collect(&rt);
        assert_eq!(report.prefetch_share(), 0.0);
    }

    #[test]
    fn prefetch_share_counts_partial_pages_and_stays_clamped() {
        let rt = runtime();
        let mut report = RuntimeReport::collect(&rt);
        // Less than one page of device traffic still counts as traffic
        // (the old integer division truncated this to zero pages).
        report.device_read_bytes = 100;
        report.pages_initiated = 1;
        assert_eq!(report.prefetch_share(), 1.0);
        // Initiated counts exceeding device traffic clamp at 1.0.
        report.device_read_bytes = 2 * crate::PAGE_SIZE;
        report.pages_initiated = 1000;
        assert_eq!(report.prefetch_share(), 1.0);
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let rt = runtime();
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/t", 4 << 20).unwrap();
        for i in 0..32u64 {
            file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
        }
        let json = RuntimeReport::collect(&rt).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema_version\":3"));
        assert!(json.contains("\"read_cache_hit_ns\""));
        assert!(json.contains("\"prefetch_quality\""));
        // Balanced braces and quotes — cheap structural sanity without a
        // JSON parser in the dependency-free build.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('"').count() % 2, 0, "unbalanced quotes");
    }

    /// Every opt-in mechanism on (tiered store with write-back, adaptive
    /// engine, ring, two tenants, tiering, spans) over a read + write +
    /// `fsync` mix; returns the reports at the midpoint and at the end.
    fn all_on_reports() -> (RuntimeReport, RuntimeReport) {
        let mut os_config = OsConfig::with_memory_mb(32);
        os_config.writeback = Some(simos::WritebackConfig::default());
        let (local, remote) = (DeviceConfig::local_nvme(), DeviceConfig::remote_nvmeof());
        let store = TieredStore::new(Device::new(local), Device::new(remote), 2048);
        let os = Os::new_tiered(os_config, store, FileSystem::new(FsKind::Ext4Like));
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.engine = predict::EngineKind::Adaptive;
        config.ring_submit = true;
        config.tiering = Some(TieringConfig::new());
        let tenants = [("gold", QosClass::Gold), ("bronze", QosClass::Bronze)];
        config.tenants = Some(TenantsConfig::new(
            tenants
                .map(|(name, qos)| TenantSpec::new(name, qos))
                .to_vec(),
        ));
        let rt = Runtime::new(os, config);
        rt.spans().set_enabled(true);
        let mut clock = rt.new_clock();
        let [a, b] = [0, 1].map(|t| {
            let path = format!("/t{t}");
            rt.create_sized_for_tenant(&mut clock, &path, 8 << 20, TenantId(t))
                .unwrap()
        });
        let mut halves = Vec::new();
        for i in 0..512u64 {
            a.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
            let page = i.wrapping_mul(0x9E37_79B9) % 2000;
            b.write_charge(&mut clock, page * PAGE_SIZE, 2 * PAGE_SIZE);
            b.read_charge(&mut clock, (2000 - page) * PAGE_SIZE, 4 * PAGE_SIZE);
            if i % 32 == 0 {
                b.fsync(&mut clock);
            }
            if i % 256 == 255 {
                halves.push(RuntimeReport::collect(&rt));
            }
        }
        let end = halves.pop().unwrap();
        (halves.pop().unwrap(), end)
    }

    /// `(key, value)` for every scalar of a JSON export, in order; array
    /// elements take their array's key.
    fn leaves(json: &str) -> Vec<(String, String)> {
        let (mut out, mut key, mut token) = (vec![], String::new(), String::new());
        let mut quoted = false;
        for c in json.chars() {
            quoted ^= c == '"';
            match c {
                '"' => {}
                _ if quoted => token.push(c),
                ':' => key = std::mem::take(&mut token),
                ',' | '}' | ']' if !token.is_empty() => {
                    out.push((key.clone(), std::mem::take(&mut token)))
                }
                '{' | '[' | ',' | '}' | ']' => {}
                _ => token.push(c),
            }
        }
        out
    }

    /// The table's kinds: a self-delta zeroes every counter and keeps every
    /// gauge, and an interval delta is the field-wise difference.
    #[test]
    fn delta_follows_the_counter_and_gauge_kinds() {
        const GAUGES: &str = "schema_version mode resident_pages budget_pages degraded_to_blind \
            hit_ratio selected enabled depth leaves name qos weight window_used_pages \
            writeback_enabled resident_blocks capacity_blocks dirty_pages shards";
        let (earlier, later) = all_on_reports();
        let full = leaves(&later.to_json());
        let zero = leaves(&later.delta(&later).to_json());
        assert_eq!(full.len(), zero.len());
        for ((key, value), (zero_key, zero_value)) in full.iter().zip(&zero) {
            assert_eq!(key, zero_key);
            let gauge = GAUGES.split_whitespace().any(|g| g == key);
            assert_eq!(zero_value, if gauge { value } else { "0" }, "{key}");
        }
        // One field per section, each of which moved in the interval.
        let d = later.delta(&earlier);
        type Field = fn(&RuntimeReport) -> u64;
        let fields: [(&str, Field); 11] = [
            ("reads", |r| r.reads),
            ("pages_initiated", |r| r.pages_initiated),
            ("timely", |r| r.prefetch_quality.timely),
            ("demand_miss", |r| r.read_demand_miss.count),
            ("predict_stage", |r| r.stage_latency[1].1.count),
            ("mining_passes", |r| r.engine_mining_passes),
            ("demand_miss_spans", |r| r.spans_classes[2].1.reads),
            ("absorbed_reads", |r| r.ring_absorbed_reads),
            ("splits", |r| r.range_index_splits),
            ("gold_initiated", |r| r.tenants[0].initiated_pages),
            ("dirtied_pages", |r| r.wb_dirtied_pages),
        ];
        for (name, field) in fields {
            assert!(field(&later) > field(&earlier), "{name} did not move");
            assert_eq!(field(&d), field(&later) - field(&earlier), "{name}");
        }
        let samples = d.read_cache_hit.count + d.read_prefetch_hit.count + d.read_demand_miss.count;
        assert_eq!(samples, d.reads);
    }
}
