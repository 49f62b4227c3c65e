//! The CROSS-LIB runtime: interception shim, prefetch orchestration,
//! memory-budget policies.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use predict::Predictor;
use simclock::ThreadClock;
use simos::shard::{RegistryStats, ShardedMap};
use simos::{
    Advice, Fd, FsError, InodeId, IoError, MmapOutcome, Os, RaInfoRequest, ReadOutcome, PAGE_SIZE,
};

use crate::config::{Mode, RuntimeConfig};
use crate::metrics::RuntimeMetrics;
use crate::policy::{OpenAction, Policy};
use crate::range_index::{BPlusRangeIndex, IndexStats, LockScope};
use crate::ring::SpecRead;
use crate::span::{CrossLayerSink, SpanCollector, SpanKind};
use crate::stats::LibStats;
use crate::tenant::{AdmissionRung, TenantArbiter, TenantId, UNBOUND_TENANT};
use crate::tiering::TierPlanner;
use crate::trace::{LookupOutcome, TraceEventKind, TraceLog};
use crate::worker::WorkerPool;

/// Per-file (per-inode) runtime state, shared by every descriptor opened on
/// the file — the userspace mirror of the kernel's per-inode bitmap.
#[derive(Debug)]
pub struct LibFile {
    /// The file's inode.
    pub ino: InodeId,
    /// A descriptor the runtime owns for issuing prefetch/advice calls.
    pub(crate) prefetch_fd: Fd,
    /// User-level cache view with per-range locking.
    pub(crate) tree: BPlusRangeIndex,
    /// Virtual time of the most recent application access.
    pub(crate) last_access_ns: AtomicU64,
    /// Reads since the last fincore poll (FincoreApp mode).
    pub(crate) reads_since_poll: AtomicU64,
    /// The OS cache generation ([`Os::cache_generation`]) the view was
    /// last synced with. The OS bumps it whenever it drops any of the
    /// file's pages, so a mismatch means the view may claim evicted pages
    /// (§4.4's freshness challenge) and must be re-imported.
    pub(crate) synced_generation: AtomicU64,
    /// Whether a whole-file fetch was already scheduled (FetchAll mode) —
    /// concurrent opens of a shared file must not stack redundant streams.
    pub(crate) fetchall_scheduled: std::sync::atomic::AtomicBool,
    /// Reads since the last whole-file refetch round (FetchAll mode):
    /// Table 2 describes `[+fetchall+opt]` as *monitoring* missing blocks
    /// via the exported bitmaps and prefetching them — a continuous
    /// policy, re-run periodically, not a one-shot open-time stream.
    pub(crate) reads_since_refetch: AtomicU64,
    /// Circular cursor for FetchAll refetch rounds.
    pub(crate) refetch_cursor: AtomicU64,
    /// Owning tenant index ([`crate::tenant::UNBOUND_TENANT`] when the
    /// file was opened without one or no arbiter is configured). Set by
    /// the first tenant-carrying open; admission and initiated-page
    /// attribution read it on every prefetch.
    pub(crate) tenant: AtomicU32,
}

/// An open file handle through CROSS-LIB — the shim's `FILE*` analogue.
///
/// Each handle carries its own [`Predictor`] (§4.6's
/// per-file-descriptor prefetching, from the [`predict`] crate), while
/// the cache view ([`LibFile`]) is shared across handles to the same
/// file.
#[derive(Debug)]
pub struct CpFile {
    pub(crate) runtime: Runtime,
    pub(crate) fd: Fd,
    pub(crate) file: Arc<LibFile>,
    /// The strided predictor driving this descriptor's prefetch decisions.
    pub(crate) predictor: Mutex<Predictor>,
    /// Pages prefetched ahead of (forward) or behind (backward) the stream
    /// through this descriptor — the async-marker analogue that paces
    /// window growth by consumption instead of by access count.
    pub(crate) fwd_frontier: AtomicU64,
    pub(crate) back_frontier: AtomicU64,
    /// Current prefetch window for this descriptor, in pages.
    pub(crate) window_pages: AtomicU64,
    /// Outstanding speculative pre-issue for this descriptor (Foreactor
    /// style): the predicted next demand read, issued through the ring
    /// before the application asked. Consumed (absorbed or cancelled) by
    /// the next demand fill; at most one in flight per descriptor.
    pub(crate) spec: Mutex<Option<SpecRead>>,
    /// Whether §4.6's optimistic window is still owed: set at open under
    /// [`OpenAction::OptimisticWindow`], taken by the first read.
    pub(crate) open_window_pending: AtomicBool,
    /// Whether mapped access restored fault-around already.
    mmap_touched: std::sync::atomic::AtomicBool,
    /// Last pattern index the tracer saw for this descriptor
    /// ([`predict::AccessPattern::index`]; 255 = none yet). Only
    /// touched while tracing is enabled.
    pub(crate) last_pattern: std::sync::atomic::AtomicU8,
}

/// The CROSS-LIB runtime. Cheap to clone; all clones share state.
#[derive(Debug, Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
}

#[derive(Debug)]
pub(crate) struct RuntimeInner {
    pub(crate) os: Arc<Os>,
    pub(crate) config: RuntimeConfig,
    /// The mechanism-dispatch table, resolved once at construction.
    pub(crate) policy: Policy,
    /// Per-inode runtime state, sharded by inode number so unrelated
    /// files' opens never serialize on one registry lock.
    files: ShardedMap<Arc<LibFile>>,
    pub(crate) workers: WorkerPool,
    pub(crate) stats: LibStats,
    /// Last time (virtual ns) the memory watcher scanned candidates —
    /// bounds the eviction scan to once per watcher interval.
    last_evict_scan_ns: AtomicU64,
    /// OS eviction count at the last pressure sample.
    last_evicted_pages: AtomicU64,
    /// Aggressive growth is paused until this virtual time — set whenever
    /// reclaim activity is observed. The paper pauses aggressiveness below
    /// a free-memory threshold; with a steady-state-full clean cache, the
    /// observable signal for "no headroom" is reclaim running.
    aggressive_pause_until: AtomicU64,
    /// Decision-event trace sink (disabled by default); also installed
    /// into the OS so kernel-side decisions land in the same log.
    pub(crate) trace: Arc<TraceLog>,
    /// Always-on latency distributions.
    pub(crate) metrics: RuntimeMetrics,
    /// Causal span collector (disabled by default): tail exemplars with
    /// critical-path attribution for the slowest reads per latency class.
    pub(crate) spans: Arc<SpanCollector>,
    /// One-way degradation latch: set when the kernel rejects
    /// `readahead_info` (`IoError::Unsupported`). Once set, every
    /// visibility prefetch is issued as blind `readahead(2)` instead —
    /// CROSS-LIB on a stock kernel keeps working, it just loses the
    /// cache-visibility syscall savings.
    pub(crate) degraded: AtomicBool,
    /// Multi-tenant fair-share admission arbiter
    /// ([`crate::RuntimeConfig::tenants`]); `None` (the default) bypasses
    /// every tenant path.
    pub(crate) tenants: Option<TenantArbiter>,
    /// Cross-tier promotion planner ([`crate::RuntimeConfig::tiering`]);
    /// built only when the config asks for it *and* the OS actually sits
    /// on a tiered store. `None` (the default) dispatches no promotion
    /// job, ever.
    pub(crate) planner: Option<TierPlanner>,
}

impl Runtime {
    /// Attaches a runtime in the given mechanism mode to an OS.
    pub fn new(os: Arc<Os>, config: RuntimeConfig) -> Self {
        let policy = Policy::for_config(&config);
        let shards = config.effective_registry_shards();
        let workers = WorkerPool::new(config.workers.max(1), Arc::clone(os.global()));
        let trace = Arc::new(TraceLog::default());
        let spans = Arc::new(SpanCollector::new(config.span_exemplars));
        // Bridge kernel-side decisions (readahead_info, RA window growth,
        // reclaim) into the same trace log, and kernel-side wait/service
        // windows into the calling read's span frame. First runtime
        // attached wins.
        os.set_trace_sink(Arc::new(CrossLayerSink {
            trace: Arc::clone(&trace),
            spans: Arc::clone(&spans),
        }) as Arc<dyn simos::OsTraceSink>);
        let tenants = config.tenants.clone().map(TenantArbiter::new);
        // Promotion needs somewhere to promote *to*: a tiering config on
        // an un-tiered OS builds no planner (and no new code path runs).
        let planner = config
            .tiering
            .clone()
            .filter(|_| os.tiered().is_some())
            .map(TierPlanner::new);
        Self {
            inner: Arc::new(RuntimeInner {
                os,
                config,
                policy,
                files: ShardedMap::new(shards),
                workers,
                stats: LibStats::default(),
                last_evict_scan_ns: AtomicU64::new(0),
                last_evicted_pages: AtomicU64::new(0),
                aggressive_pause_until: AtomicU64::new(0),
                trace,
                metrics: RuntimeMetrics::default(),
                spans,
                degraded: AtomicBool::new(false),
                tenants,
                planner,
            }),
        }
    }

    /// Convenience: a runtime with paper defaults for `mode`.
    pub fn with_mode(os: Arc<Os>, mode: Mode) -> Self {
        Self::new(os, RuntimeConfig::new(mode))
    }

    /// The underlying OS.
    pub fn os(&self) -> &Arc<Os> {
        &self.inner.os
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RuntimeConfig {
        &self.inner.config
    }

    /// The mechanism-dispatch table in effect.
    pub fn policy(&self) -> &Policy {
        &self.inner.policy
    }

    /// Runtime counters.
    pub fn stats(&self) -> &LibStats {
        &self.inner.stats
    }

    /// Worker-pool telemetry.
    pub fn workers(&self) -> &WorkerPool {
        &self.inner.workers
    }

    /// Whether the runtime has permanently downgraded cache-visibility
    /// prefetch to blind `readahead(2)` because the kernel rejected
    /// `readahead_info` (runs against a stock kernel without CROSS-OS).
    pub fn degraded_to_blind(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// The decision-event trace log (disabled by default; turn on with
    /// [`TraceLog::set_enabled`]).
    pub fn trace(&self) -> &Arc<TraceLog> {
        &self.inner.trace
    }

    /// The always-on latency histograms.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.inner.metrics
    }

    /// The causal span collector (disabled by default; turn on with
    /// [`SpanCollector::set_enabled`]).
    pub fn spans(&self) -> &Arc<SpanCollector> {
        &self.inner.spans
    }

    /// Wall-clock registry-shard wait observed runtime-wide right now
    /// (lib files + OS caches + OS fds) — sampled at span begin/end to
    /// attribute real contention to in-flight exemplars.
    pub(crate) fn registry_wait_now(&self) -> u64 {
        self.inner.files.total_wait_ns() + self.inner.os.registry_wait_ns()
    }

    /// A fresh worker clock attached to the OS global clock.
    pub fn new_clock(&self) -> ThreadClock {
        self.inner.os.new_clock()
    }

    pub(crate) fn scope(&self) -> LockScope {
        self.inner.policy.scope
    }

    fn lib_file(&self, ino: InodeId, fd: Fd) -> Arc<LibFile> {
        self.inner.files.get_or_insert_with(ino.0, || {
            let tree = BPlusRangeIndex::new();
            tree.set_wait_histogram(Arc::clone(&self.inner.metrics.lib_lock_wait_ns));
            Arc::new(LibFile {
                ino,
                prefetch_fd: fd,
                tree,
                last_access_ns: AtomicU64::new(0),
                reads_since_poll: AtomicU64::new(0),
                synced_generation: AtomicU64::new(self.inner.os.cache_generation(ino)),
                fetchall_scheduled: std::sync::atomic::AtomicBool::new(false),
                reads_since_refetch: AtomicU64::new(0),
                refetch_cursor: AtomicU64::new(0),
                tenant: AtomicU32::new(UNBOUND_TENANT),
            })
        })
    }

    // ----- open -------------------------------------------------------------

    /// Opens an existing file through the shim.
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::NotFound`].
    pub fn open(&self, clock: &mut ThreadClock, path: &str) -> Result<CpFile, FsError> {
        let fd = self.inner.os.open(clock, path)?;
        Ok(self.wrap_fd(clock, fd, None))
    }

    /// Opens an existing file on behalf of `tenant`: the file joins the
    /// tenant's registry and its prefetch is arbitrated under the
    /// tenant's fair share. Without a configured arbiter (or for a tenant
    /// outside the table) this is exactly [`Runtime::open`].
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::NotFound`].
    pub fn open_for_tenant(
        &self,
        clock: &mut ThreadClock,
        path: &str,
        tenant: TenantId,
    ) -> Result<CpFile, FsError> {
        let fd = self.inner.os.open(clock, path)?;
        Ok(self.wrap_fd(clock, fd, Some(tenant)))
    }

    /// Creates an empty file through the shim.
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::AlreadyExists`].
    pub fn create(&self, clock: &mut ThreadClock, path: &str) -> Result<CpFile, FsError> {
        let fd = self.inner.os.create(clock, path)?;
        Ok(self.wrap_fd(clock, fd, None))
    }

    /// Creates a file with preallocated size through the shim.
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::AlreadyExists`].
    pub fn create_sized(
        &self,
        clock: &mut ThreadClock,
        path: &str,
        bytes: u64,
    ) -> Result<CpFile, FsError> {
        let fd = self.inner.os.create_sized(clock, path, bytes)?;
        Ok(self.wrap_fd(clock, fd, None))
    }

    /// [`Runtime::create_sized`] on behalf of `tenant` (see
    /// [`Runtime::open_for_tenant`]).
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::AlreadyExists`].
    pub fn create_sized_for_tenant(
        &self,
        clock: &mut ThreadClock,
        path: &str,
        bytes: u64,
        tenant: TenantId,
    ) -> Result<CpFile, FsError> {
        let fd = self.inner.os.create_sized(clock, path, bytes)?;
        Ok(self.wrap_fd(clock, fd, Some(tenant)))
    }

    fn wrap_fd(&self, clock: &mut ThreadClock, fd: Fd, tenant: Option<TenantId>) -> CpFile {
        let ino = self.inner.os.fd_inode(fd);
        let file = self.lib_file(ino, fd);
        let policy = &self.inner.policy;

        // Tenant binding happens before any open-time prefetch so the
        // optimistic window and fetchall streams are attributed and
        // arbitrated from the first page.
        if let (Some(arbiter), Some(tenant)) = (&self.inner.tenants, tenant) {
            if arbiter.bind(tenant, ino) {
                file.tenant.store(tenant.0, Ordering::Relaxed);
            }
        }

        if policy.silence_heuristic_ra {
            // CROSS-LIB owns prefetching: silence the OS heuristic so the
            // two layers do not double-prefetch.
            self.inner.os.fadvise(clock, fd, Advice::Random, 0, 0);
        }

        match policy.open_action {
            OpenAction::Nothing => {}
            OpenAction::ScheduleWholeFile => {
                // [+fetchall+opt]: schedule the whole file at the *first*
                // open; concurrent opens of a shared file reuse the same
                // stream.
                if !file.fetchall_scheduled.swap(true, Ordering::Relaxed) {
                    let pages = self.inner.os.fs().size(ino).div_ceil(PAGE_SIZE);
                    self.prefetch_pages(clock, &file, 0, pages, /* respect_floors = */ false);
                }
            }
            // §4.6's optimistic window waits for the first read, which
            // says where the descriptor actually starts.
            OpenAction::OptimisticWindow => {}
        }

        let config = &self.inner.config;
        let predictor = Predictor::with_batch_window(config.predictor_bits, config.seq_batch_pages);
        CpFile {
            runtime: self.clone(),
            fd,
            file,
            predictor: Mutex::new(predictor),
            fwd_frontier: AtomicU64::new(0),
            back_frontier: AtomicU64::new(u64::MAX),
            window_pages: AtomicU64::new(0),
            spec: Mutex::new(None),
            open_window_pending: AtomicBool::new(
                policy.open_action == OpenAction::OptimisticWindow,
            ),
            mmap_touched: std::sync::atomic::AtomicBool::new(false),
            last_pattern: std::sync::atomic::AtomicU8::new(u8::MAX),
        }
    }

    // ----- prefetch orchestration --------------------------------------------

    /// Credits pages the OS initiated for a prefetch on `file`: the
    /// global counter always, plus the owning tenant's ledger when an
    /// arbiter is configured — keeping the per-tenant
    /// `timely + late + wasted == initiated` invariant intact across
    /// every initiation path (prefetch worker, promotion, cancelled
    /// speculation).
    pub(crate) fn note_pages_initiated(&self, file: &LibFile, pages: u64) {
        self.inner.stats.pages_initiated.add(pages);
        if pages == 0 {
            return;
        }
        if let Some(arbiter) = &self.inner.tenants {
            let tenant = file.tenant.load(Ordering::Relaxed);
            if tenant != UNBOUND_TENANT {
                arbiter.note_initiated(tenant, pages);
            }
        }
    }

    /// Dispatches a cross-tier promotion job: a background remote→local
    /// copy of a planner-approved predicted-hot range, issued on the
    /// worker pool off the read's critical path. Transient remote faults
    /// retry through the same doubling backoff ladder as prefetch; an
    /// exhausted budget gives up with the placement map unchanged —
    /// demand reads keep working against the remote tier. Pages a
    /// completed copy publishes into the cache are billed as
    /// prefetch-initiated, so `timely + late + wasted == pages_initiated`
    /// carries over with promotions in play.
    pub(crate) fn dispatch_promotion(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        start: u64,
        pages: u64,
    ) {
        let inner = &self.inner;
        let Some(planner) = &inner.planner else {
            return;
        };
        let attempts = planner.config().promote_retry_attempts.max(1);
        let first_backoff = planner.config().promote_retry_backoff_ns.max(1);
        inner.stats.promotions_issued.incr();
        let runtime = self.clone();
        let file = Arc::clone(file);
        let est_ns = inner.os.config().costs.syscall_ns.max(1);
        let dispatch = inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
            let inner = &runtime.inner;
            let mut backoff = first_backoff;
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                match inner.os.try_promote_range(wclock, file.ino, start, pages) {
                    Ok(newly) => {
                        inner.stats.promotions_completed.incr();
                        inner.stats.promotion_pages.add(newly);
                        runtime.note_pages_initiated(&file, newly);
                        break;
                    }
                    Err(_) if attempt >= attempts => {
                        inner.stats.promotion_give_ups.incr();
                        inner.trace.emit(
                            wclock.now(),
                            TraceEventKind::PrefetchAbandoned {
                                ino: file.ino,
                                start_page: start,
                                pages,
                            },
                        );
                        break;
                    }
                    Err(_) => {
                        inner.stats.promotion_retries.incr();
                        inner.trace.emit(
                            wclock.now(),
                            TraceEventKind::PrefetchRetry {
                                ino: file.ino,
                                start_page: start,
                                pages,
                                attempt,
                            },
                        );
                        wclock.advance(backoff);
                        crate::span::record_leaf(SpanKind::RetryBackoff, backoff, wclock.now());
                        backoff = backoff.saturating_mul(2);
                    }
                }
            }
        });
        inner
            .metrics
            .worker_queue_ns
            .record(dispatch.queue_wait_ns());
    }

    /// Whether the tenant arbiter leaves room for a speculative ring
    /// pre-issue on `file`: speculation is the first thing pressure
    /// takes, so only a tenant still on the `Full` rung may pre-issue.
    pub(crate) fn spec_admitted(&self, file: &LibFile, want: u64, now_ns: u64) -> bool {
        match &self.inner.tenants {
            Some(arbiter) => {
                let tenant = file.tenant.load(Ordering::Relaxed);
                tenant == UNBOUND_TENANT
                    || arbiter.allows_speculation(&self.inner.os, tenant, want, now_ns)
            }
            None => true,
        }
    }

    /// The multi-tenant admission arbiter, when configured.
    pub fn tenants(&self) -> Option<&TenantArbiter> {
        self.inner.tenants.as_ref()
    }

    fn free_fraction(&self) -> f64 {
        let mem = self.inner.os.mem();
        mem.free_pages() as f64 / mem.budget().max(1) as f64
    }

    /// Fraction of the budget that is free *or reclaimable* (clean cached
    /// pages). A steady-state page cache is always "full" of clean pages;
    /// those are available to prefetching — only dirty data is not.
    fn available_fraction(&self) -> f64 {
        let mem = self.inner.os.mem();
        let unavailable = mem.dirty();
        1.0 - (unavailable as f64 / mem.budget().max(1) as f64)
    }

    /// Whether aggressive window growth is currently allowed: requires
    /// clean-memory headroom *and* no recent reclaim activity (memory
    /// pressure pauses aggressiveness for a grace interval — §4.6's
    /// high-watermark behaviour under a steady-state-full cache).
    pub(crate) fn aggressive_allowed(&self, now: u64) -> bool {
        let inner = &self.inner;
        if self.available_fraction() <= inner.config.aggressive_floor {
            return false;
        }
        let evicted = inner.os.mem().evicted.get();
        let last = inner.last_evicted_pages.swap(evicted, Ordering::Relaxed);
        if evicted > last && last > 0 {
            inner
                .aggressive_pause_until
                .fetch_max(now + 50 * simclock::NS_PER_MS, Ordering::Relaxed);
        }
        now >= inner.aggressive_pause_until.load(Ordering::Relaxed)
    }

    /// Schedules a prefetch of `[from, from + want)` pages of `file`.
    ///
    /// The calling thread pays only the user-level bitmap check and an
    /// enqueue; issuing (syscalls, bitmap locks, device) happens on the
    /// worker pool's virtual time. Returns the page index the schedule
    /// actually reached (`from` when nothing was scheduled), so pacing
    /// frontiers reflect the memory-clamped reality.
    pub(crate) fn prefetch_pages(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        from: u64,
        want: u64,
        respect_floors: bool,
    ) -> u64 {
        let inner = &self.inner;
        let costs = &inner.os.config().costs;
        let file_pages = inner.os.fs().size(file.ino).div_ceil(PAGE_SIZE);
        let end = (from + want).min(file_pages);
        if from >= end {
            return from;
        }
        if respect_floors && self.available_fraction() < inner.config.prefetch_floor {
            return from;
        }
        // Memory-budget clamp: one prefetch may claim at most half the
        // truly-free headroom, but never less than budget/32 — a full
        // cache of *clean* pages is reclaimable, so modest windows stay
        // productive while no single call can blow the whole budget.
        let end = if respect_floors {
            let mem = inner.os.mem();
            let headroom = (mem.free_pages() / 2).max(mem.budget() / 32).max(1);
            from + (end - from).min(headroom)
        } else {
            end
        };

        // Tenant admission: under memory pressure a tenant over its fair
        // share degrades — coalesced-only, then a single blind window,
        // then outright denial — before any demand read pays. Files with
        // no tenant (and runtimes with no arbiter) skip this entirely.
        let mut force_coalesce = false;
        let mut force_blind = false;
        let mut end = end;
        if let Some(arbiter) = &inner.tenants {
            let tenant = file.tenant.load(Ordering::Relaxed);
            if tenant != UNBOUND_TENANT {
                match arbiter.admit(&inner.os, tenant, end - from, clock.now()) {
                    AdmissionRung::Full => {}
                    AdmissionRung::CoalescedOnly => force_coalesce = true,
                    AdmissionRung::Blind => {
                        // One OS readahead window, issued blind below.
                        force_blind = true;
                        end = from + (end - from).min(inner.os.config().ra_max_pages.max(1));
                    }
                    AdmissionRung::Deny => return from,
                }
            }
        }

        // User-level visibility check: skip entirely-cached requests. This
        // is the system-call reduction at the heart of §4.2.
        let missing = if inner.policy.features.visibility && !force_blind {
            self.resync_if_stale(clock, file);
            let runs = file.tree.missing_in(clock, costs, self.scope(), from, end);
            if force_coalesce {
                self.coalesce_runs(runs)
            } else {
                runs
            }
        } else {
            vec![(from, end)]
        };
        if missing.is_empty() {
            inner.stats.prefetches_skipped.incr();
            inner.trace.emit(
                clock.now(),
                TraceEventKind::TreeLookup {
                    ino: file.ino,
                    start_page: from,
                    pages: end - from,
                    outcome: LookupOutcome::SkippedByVisibility,
                },
            );
            return end;
        }
        inner.stats.prefetches_enqueued.incr();
        let total: u64 = missing.iter().map(|&(s, e)| e - s).sum();
        inner.stats.pages_requested.add(total);
        clock.advance(costs.lock_op_ns); // enqueue

        let runtime = self.clone();
        let file = Arc::clone(file);
        let relax = inner.policy.features.relax_limits && !force_blind;
        let visibility = inner.policy.features.visibility && !force_blind;
        let max_pages = inner.config.max_prefetch_pages;
        // Reserve worker occupancy proportional to the syscalls the job
        // will issue.
        let os_cap = inner.os.config().ra_max_pages;
        let call_estimate: u64 = if relax {
            // One syscall per max_pages chunk of each missing run — a run
            // longer than the relaxed ceiling still takes several calls.
            missing
                .iter()
                .map(|&(s, e)| (e - s).div_ceil(max_pages.max(1)))
                .sum()
        } else {
            total.div_ceil(os_cap.max(1))
        };
        let est_ns = call_estimate * inner.os.config().costs.syscall_ns;

        let first_page = missing[0].0;
        let ino = file.ino;
        let dispatch = inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
            runtime.issue_prefetch(wclock, &file, &missing, relax, visibility, max_pages);
        });
        inner
            .metrics
            .worker_queue_ns
            .record(dispatch.queue_wait_ns());
        inner.metrics.prefetch_ns.record(dispatch.latency_ns());
        if inner.trace.is_enabled() {
            inner.trace.emit(
                dispatch.enqueue_ns,
                TraceEventKind::PrefetchEnqueued {
                    ino,
                    start_page: first_page,
                    pages: total,
                    worker: dispatch.worker,
                },
            );
            inner.trace.emit(
                dispatch.end_ns,
                TraceEventKind::PrefetchCompleted {
                    ino,
                    queue_wait_ns: dispatch.queue_wait_ns(),
                    latency_ns: dispatch.latency_ns(),
                },
            );
        }
        end
    }

    /// Re-imports `file`'s user-level view when the OS has dropped any of
    /// its pages since the view was last synced: the view is cleared (as
    /// a fresh process would start) and counted in `stale_resyncs`, and
    /// later prefetch checks fall through to `readahead_info`, which
    /// re-imports the authoritative bitmap. The generation read is a load
    /// from a counter CROSS-OS shares, so a fresh view costs nothing.
    pub(crate) fn resync_if_stale(&self, clock: &mut ThreadClock, file: &LibFile) {
        let generation = self.inner.os.cache_generation(file.ino);
        if file.synced_generation.swap(generation, Ordering::Relaxed) != generation {
            self.inner.stats.stale_resyncs.incr();
            let costs = &self.inner.os.config().costs;
            file.tree.clear(clock, costs, self.scope());
        }
    }

    /// Merges adjacent missing runs separated by at most one OS readahead
    /// window into a single `readahead_info` run (the tenant arbiter's
    /// coalesced-only rung). The merged span covers the gap pages too —
    /// safe only on the cache-visibility path, where the OS dedups
    /// already-cached pages inside the span.
    fn coalesce_runs(&self, runs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        let gap = self.inner.os.config().ra_max_pages;
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
        for (start, end) in runs {
            match out.last_mut() {
                Some(last) if start <= last.1.saturating_add(gap) => {
                    last.1 = last.1.max(end);
                    self.inner.stats.prefetch_runs_coalesced.incr();
                }
                _ => out.push((start, end)),
            }
        }
        out
    }

    /// A no-op, kept so callers that drain prefetch at measurement
    /// boundaries still compile: prefetch has one submission path, and
    /// every planned run is dispatched to a worker as soon as
    /// `prefetch_pages` plans it, so nothing is ever left staged.
    pub fn flush_prefetch_batches(&self, _clock: &mut ThreadClock) {}

    /// Worker half: actually issue the prefetch syscalls.
    ///
    /// Every attempt goes through the fallible OS surface, so injected
    /// faults reach the degradation ladder:
    ///
    /// * a transient device error (`IoError::Io`) is retried after
    ///   exponential backoff in virtual time, up to
    ///   [`RuntimeConfig::prefetch_retry_attempts`] tries; exhaustion
    ///   abandons the chunk *without* marking it in the user-level view,
    ///   so later reads demand-fetch it correctly;
    /// * `IoError::Unsupported` from `readahead_info` (a stock kernel
    ///   without CROSS-OS) flips the runtime-wide one-way `degraded`
    ///   latch and re-issues the same chunk as blind `readahead(2)`.
    fn issue_prefetch(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        missing: &[(u64, u64)],
        relax: bool,
        visibility: bool,
        max_pages: u64,
    ) {
        let inner = &self.inner;
        let costs = &inner.os.config().costs;
        let os_cap = inner.os.config().ra_max_pages;
        let attempts = inner.config.prefetch_retry_attempts.max(1);
        for &(start, end) in missing {
            let mut cursor = start;
            'chunks: while cursor < end {
                let span = end - cursor;
                let use_info = visibility && !inner.degraded.load(Ordering::Relaxed);
                // Blind readahead(2) initiates at most one OS window per
                // call, so blind chunks are capped at the window size;
                // only the readahead_info path may carry relaxed chunks.
                let chunk = if relax && use_info {
                    span.min(max_pages)
                } else {
                    span.min(os_cap)
                };
                let mut attempt: u32 = 0;
                let mut backoff = inner.config.prefetch_retry_backoff_ns.max(1);
                loop {
                    attempt += 1;
                    let outcome = if use_info {
                        let req = RaInfoRequest::prefetch(cursor * PAGE_SIZE, chunk * PAGE_SIZE)
                            .with_limit_pages(if relax { chunk } else { os_cap });
                        inner
                            .os
                            .try_readahead_info(clock, file.prefetch_fd, req)
                            .map(|info| {
                                self.note_pages_initiated(file, info.initiated_pages);
                                // Import the OS's view: mark both
                                // already-cached and newly initiated pages
                                // in the user-level tree.
                                file.tree.mark_cached(
                                    clock,
                                    costs,
                                    self.scope(),
                                    cursor,
                                    cursor + chunk,
                                );
                            })
                    } else {
                        // Blind prefetching without cache visibility:
                        // plain readahead(2) through the contended tree
                        // path. Counts only pages the OS actually
                        // initiated (cached pages are deduplicated).
                        inner
                            .os
                            .try_readahead(
                                clock,
                                file.prefetch_fd,
                                cursor * PAGE_SIZE,
                                chunk * PAGE_SIZE,
                            )
                            .map(|initiated| self.note_pages_initiated(file, initiated))
                    };
                    match outcome {
                        Ok(()) => break,
                        Err(IoError::Unsupported) if use_info => {
                            if !inner.degraded.swap(true, Ordering::Relaxed) {
                                inner.trace.emit(
                                    clock.now(),
                                    TraceEventKind::VisibilityDowngraded { ino: file.ino },
                                );
                            }
                            // Same cursor, recomputed as a blind chunk.
                            continue 'chunks;
                        }
                        Err(_) => {
                            if attempt >= attempts {
                                inner.stats.prefetch_give_ups.incr();
                                inner.stats.pages_abandoned.add(chunk);
                                inner.trace.emit(
                                    clock.now(),
                                    TraceEventKind::PrefetchAbandoned {
                                        ino: file.ino,
                                        start_page: cursor,
                                        pages: chunk,
                                    },
                                );
                                break;
                            }
                            inner.stats.prefetch_retries.incr();
                            inner.trace.emit(
                                clock.now(),
                                TraceEventKind::PrefetchRetry {
                                    ino: file.ino,
                                    start_page: cursor,
                                    pages: chunk,
                                    attempt,
                                },
                            );
                            clock.advance(backoff);
                            crate::span::record_leaf(SpanKind::RetryBackoff, backoff, clock.now());
                            backoff = backoff.saturating_mul(2);
                        }
                    }
                }
                cursor += chunk;
            }
        }
    }

    // ----- memory watcher -----------------------------------------------------

    /// Runs the §4.6 aggressive-reclamation policy if free memory dropped
    /// below the trigger: evict least-recently-used files (preferring those
    /// inactive for 30 s) via `fadvise(DONTNEED)` until the target is met.
    pub fn maybe_evict(&self, clock: &mut ThreadClock, current: InodeId) {
        let inner = &self.inner;
        if !inner.policy.features.aggressive {
            return;
        }
        if self.free_fraction() >= inner.config.evict_trigger {
            return;
        }
        // Bound the candidate scan to once per watcher interval.
        let now = clock.now();
        let last = inner.last_evict_scan_ns.load(Ordering::Relaxed);
        let interval = inner.config.evict_scan_interval_ns;
        if now < last.saturating_add(interval)
            || inner
                .last_evict_scan_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        let costs = &inner.os.config().costs;
        let inactive_cutoff = now.saturating_sub(inner.os.config().inactive_after_ns);
        let idle_cutoff = now.saturating_sub(inner.config.evict_min_idle_ns);

        // One snapshot of each file's last access: other threads keep
        // storing to it, and a sort whose keys move under it panics.
        let mut candidates: Vec<(u64, Arc<LibFile>)> = inner
            .inner_files()
            .into_iter()
            .map(|f| (f.last_access_ns.load(Ordering::Relaxed), f))
            // Never evict files another thread is actively using; the OS
            // word-granular LRU handles those gracefully.
            .filter(|(last, f)| f.ino != current && *last < idle_cutoff)
            .collect();
        // Inactive files first, then LRU order.
        candidates.sort_by_key(|&(last, _)| (last >= inactive_cutoff, last));

        for (_, file) in candidates {
            if self.free_fraction() >= inner.config.evict_target {
                break;
            }
            let resident = inner.os.cache(file.ino).state.read().resident();
            if resident == 0 {
                continue;
            }
            // Charge what the fadvise actually dropped, not the residency
            // snapshot above: OS reclaim can race between the snapshot and
            // the advice call, and the snapshot would over-count.
            let dropped = inner
                .os
                .fadvise(clock, file.prefetch_fd, Advice::DontNeed, 0, u64::MAX);
            let generation = inner.os.cache_generation(file.ino);
            file.tree.clear(clock, costs, self.scope());
            file.synced_generation.store(generation, Ordering::Relaxed);
            if dropped == 0 {
                continue;
            }
            inner.stats.files_evicted.incr();
            inner.stats.pages_evicted.add(dropped);
            inner.trace.emit(
                clock.now(),
                TraceEventKind::LibEvict {
                    ino: file.ino,
                    pages: dropped,
                },
            );
        }
        inner.metrics.evict_scan_ns.record(clock.now() - now);
    }

    /// Resets the runtime's imported cache views — the user-level analogue
    /// of dropping the page cache. Benches call this together with
    /// [`Os::drop_caches`] between a load phase and a measured read phase,
    /// simulating the paper's fresh-process runs (a freshly-linked
    /// CROSS-LIB starts with no imported bitmaps).
    pub fn drop_cache_view(&self, clock: &mut ThreadClock) {
        let costs = &self.inner.os.config().costs;
        for file in self.inner.inner_files() {
            let generation = self.inner.os.cache_generation(file.ino);
            file.tree.clear(clock, costs, self.scope());
            file.synced_generation.store(generation, Ordering::Relaxed);
            file.fetchall_scheduled.store(false, Ordering::Relaxed);
            file.reads_since_refetch.store(0, Ordering::Relaxed);
            file.refetch_cursor.store(0, Ordering::Relaxed);
        }
    }

    // ----- telemetry -----------------------------------------------------------

    /// Aggregate user-level lock wait across all files' range trees.
    pub fn lib_lock_wait_ns(&self) -> u64 {
        self.inner
            .inner_files()
            .iter()
            .map(|f| f.tree.lock_wait_ns())
            .sum()
    }

    /// Real-lock contention accounting for the per-file state registry
    /// (host wall-clock waits on contended shard acquisitions; zero in
    /// single-threaded runs).
    pub fn file_registry_stats(&self) -> RegistryStats {
        self.inner.files.stats()
    }

    /// Structural statistics aggregated across every file's range index
    /// (depth takes the max; leaves, splits, merges, retries sum).
    pub fn range_index_stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for file in self.inner.inner_files() {
            total.absorb(&file.tree.stats());
        }
        total
    }
}

impl RuntimeInner {
    /// All per-file states, in inode order (deterministic iteration).
    pub(crate) fn inner_files(&self) -> Vec<Arc<LibFile>> {
        self.files.values_sorted()
    }
}

impl CpFile {
    /// The raw descriptor (for workload-level `APPonly` policies).
    pub fn fd(&self) -> Fd {
        self.fd
    }

    /// The file's inode.
    pub fn ino(&self) -> InodeId {
        self.file.ino
    }

    /// The owning runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// File size in bytes.
    pub fn size(&self) -> u64 {
        self.runtime.os().fs().size(self.file.ino)
    }

    /// Reads `len` bytes at `offset`, timing only (no content).
    pub fn read_charge(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> ReadOutcome {
        self.pipeline_read(clock, offset, len, false).0
    }

    /// Reads `len` bytes at `offset`, returning content.
    pub fn read(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> Vec<u8> {
        let (outcome, _) = self.pipeline_read(clock, offset, len, false);
        let mut buf = vec![0u8; outcome.bytes as usize];
        if outcome.bytes > 0 {
            self.runtime
                .os()
                .fetch_content(self.file.ino, offset, &mut buf);
        }
        buf
    }

    /// Fallible read, timing only: like [`CpFile::read_charge`] but the
    /// demand fill goes through the fallible OS surface, so an injected
    /// transient device error surfaces to the workload instead of being
    /// absorbed. Pages the fill completed before the fault stay cached —
    /// a retry reads only what is still missing.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into a demand-class read.
    pub fn try_read_charge(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, IoError> {
        self.pipeline_try_read(clock, offset, len)
            .map(|(outcome, _)| outcome)
    }

    /// Fallible read returning content (see [`CpFile::try_read_charge`]).
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into a demand-class read.
    pub fn try_read(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, IoError> {
        let outcome = self.try_read_charge(clock, offset, len)?;
        let mut buf = vec![0u8; outcome.bytes as usize];
        if outcome.bytes > 0 {
            self.runtime
                .os()
                .fetch_content(self.file.ino, offset, &mut buf);
        }
        Ok(buf)
    }

    /// Writes `len` bytes at `offset`, timing only.
    pub fn write_charge(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> u64 {
        self.pipeline_read(clock, offset, len, true).0.bytes
    }

    /// Writes content at `offset`.
    pub fn write(&self, clock: &mut ThreadClock, offset: u64, data: &[u8]) -> u64 {
        let written = self
            .pipeline_read(clock, offset, data.len() as u64, true)
            .0
            .bytes;
        if written > 0 {
            self.runtime.os().store_content(self.file.ino, offset, data);
        }
        written
    }

    /// Fallible write, timing only: the read-modify-write head/tail
    /// demand reads consult the device fault plan. On an injected fault
    /// nothing is inserted or dirtied — a retry redoes the whole write.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into the RMW head/tail demand reads.
    pub fn try_write_charge(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<u64, IoError> {
        self.pipeline_try_write(clock, offset, len)
            .map(|(outcome, _)| outcome.bytes)
    }

    /// Fallible write with content (see [`CpFile::try_write_charge`]).
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into the RMW head/tail demand reads.
    pub fn try_write(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, IoError> {
        let written = self.try_write_charge(clock, offset, data.len() as u64)?;
        if written > 0 {
            self.runtime
                .os()
                .store_content(self.file.ino, offset, &data[..written as usize]);
        }
        Ok(written)
    }

    /// `fsync` passthrough.
    pub fn fsync(&self, clock: &mut ThreadClock) {
        self.runtime.os().fsync(clock, self.fd);
    }

    /// Advice passthrough (used by `APPonly` workload policies).
    pub fn advise(&self, clock: &mut ThreadClock, advice: Advice, offset: u64, len: u64) {
        self.runtime
            .os()
            .fadvise(clock, self.fd, advice, offset, len);
    }

    /// `readahead(2)` passthrough (used by `APPonly` workload policies).
    pub fn readahead(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> u64 {
        self.runtime.os().readahead(clock, self.fd, offset, len)
    }

    /// Memory-mapped access through the shim (§4.6 mmap support): the
    /// runtime watches mapped-access progress and prefetches ahead using
    /// the same predictor machinery.
    pub fn mmap_read(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> MmapOutcome {
        let runtime = &self.runtime;
        let inner = &runtime.inner;
        // The shim silences heuristic readahead on the *read(2)* path to
        // avoid double-prefetching, but mmap faults have no syscall to
        // intercept: restore fault-around for mapped access (the OS bitmap
        // dedups any overlap with the runtime's own prefetch).
        if inner.policy.intercept
            && self
                .mmap_touched
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            inner.os.fadvise(clock, self.fd, Advice::Normal, 0, 0);
        }
        let outcome = inner.os.mmap_read(clock, self.fd, offset, len);
        if inner.policy.features.predict && len > 0 {
            let costs = &inner.os.config().costs;
            let p0 = offset / PAGE_SIZE;
            let p1 = (offset + len).div_ceil(PAGE_SIZE);
            if inner.policy.features.visibility {
                self.file
                    .tree
                    .mark_cached(clock, costs, runtime.scope(), p0, p1);
            }
            let aggressive_ok =
                inner.policy.features.aggressive && runtime.aggressive_allowed(clock.now());
            let pred = self.predictor.lock().on_access(
                p0,
                p1 - p0,
                aggressive_ok,
                inner.config.max_prefetch_pages,
            );
            self.paced_prefetch(clock, pred, p0, p1);
        }
        outcome
    }

    // ----- completion-driven ring --------------------------------------------

    /// Consumes a pending speculative pre-issue for this demand access.
    ///
    /// An exact `(offset, len)` match *absorbs*: the read completes from
    /// the speculative completion — waiting out any still-in-flight
    /// device time, then paying only the user-copy cost — with no
    /// syscall crossing. A mismatch *cancels*: the speculatively filled
    /// pages are flagged in the OS quality ledger and charged as
    /// initiated prefetch, so they surface as `wasted` if never used
    /// (keeping `timely + late + wasted == pages_initiated`).
    pub(crate) fn consume_spec(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
        tracing: bool,
    ) -> Option<ReadOutcome> {
        let spec = self.spec.lock().take()?;
        let inner = &self.runtime.inner;
        if spec.offset == offset && spec.len == len {
            inner.stats.ring_spec_absorbed.incr();
            let wait = spec.ready_ns.saturating_sub(clock.now());
            if wait > 0 {
                clock.advance_to(spec.ready_ns);
                crate::span::record_leaf(SpanKind::RingComplete, wait, clock.now());
            }
            clock.advance(inner.os.config().costs.copy_pages_ns(spec.outcome.pages));
            if tracing {
                inner.trace.emit(
                    clock.now(),
                    TraceEventKind::RingAbsorbed {
                        ino: self.file.ino,
                        start_page: spec.offset / PAGE_SIZE,
                        pages: spec.outcome.pages,
                    },
                );
            }
            return Some(spec.outcome);
        }
        // Mispredict: cancel and charge. `mark_range_speculative` flags
        // only still-present, not-yet-speculative pages, so pages an
        // overlapping real prefetch already charged are not double-billed.
        let p0 = spec.offset / PAGE_SIZE;
        let p1 = (spec.offset + spec.len).div_ceil(PAGE_SIZE);
        let flagged = inner.os.mark_range_speculative(clock, self.fd, p0, p1);
        inner.stats.ring_spec_cancelled.incr();
        inner.stats.ring_spec_pages_charged.add(flagged);
        self.runtime.note_pages_initiated(&self.file, flagged);
        if tracing {
            inner.trace.emit(
                clock.now(),
                TraceEventKind::RingSpecCancelled {
                    ino: self.file.ino,
                    start_page: p0,
                    pages_charged: flagged,
                },
            );
        }
        None
    }

    /// Pre-issues the predicted next demand read through the ring
    /// (Foreactor style): worth it only when the whole target is still
    /// missing from the user view — partial coverage means the normal
    /// prefetch stream is already on it. The read runs on the worker pool
    /// with the standard transient retry ladder. A degraded runtime, or a
    /// kernel without CROSS-OS, has no ring to pre-issue through.
    pub(crate) fn maybe_issue_spec(&self, clock: &mut ThreadClock, start_page: u64, end_page: u64) {
        let inner = &self.runtime.inner;
        if start_page >= end_page || self.spec.lock().is_some() {
            return;
        }
        if inner.degraded.load(Ordering::Relaxed) || !inner.os.config().readahead_info_supported {
            return;
        }
        let costs = &inner.os.config().costs;
        let missing =
            self.file
                .tree
                .missing_in(clock, costs, self.runtime.scope(), start_page, end_page);
        if missing != [(start_page, end_page)] {
            return;
        }
        let ino = self.file.ino;
        inner.stats.ring_spec_issued.incr();
        if inner.trace.is_enabled() {
            inner.trace.emit(
                clock.now(),
                TraceEventKind::RingSpecIssued {
                    ino,
                    start_page,
                    pages: end_page - start_page,
                },
            );
        }
        let offset = start_page * PAGE_SIZE;
        let len = (end_page - start_page) * PAGE_SIZE;
        let attempts = inner.config.prefetch_retry_attempts.max(1);
        let est_ns = costs.syscall_ns;
        let dispatch = inner.workers.dispatch(clock.now(), est_ns, |wclock| {
            let mut attempt: u32 = 0;
            let mut backoff = inner.config.prefetch_retry_backoff_ns.max(1);
            loop {
                attempt += 1;
                // A transient demand-class fault retries below. Pages the
                // failed fill completed stay cached (plain, uncharged), so
                // dropping the speculation on exhaustion loses nothing.
                if let Ok(outcome) = inner.os.try_read_charge(wclock, self.fd, offset, len) {
                    *self.spec.lock() = Some(SpecRead {
                        offset,
                        len,
                        outcome,
                        ready_ns: wclock.now(),
                    });
                    return;
                }
                if attempt >= attempts {
                    return;
                }
                inner.stats.prefetch_retries.incr();
                inner.trace.emit(
                    wclock.now(),
                    TraceEventKind::PrefetchRetry {
                        ino,
                        start_page,
                        pages: end_page - start_page,
                        attempt,
                    },
                );
                wclock.advance(backoff);
                crate::span::record_leaf(SpanKind::RetryBackoff, backoff, wclock.now());
                backoff = backoff.saturating_mul(2);
            }
        });
        inner
            .metrics
            .worker_queue_ns
            .record(dispatch.queue_wait_ns());
        crate::span::record_leaf(SpanKind::RingSubmit, dispatch.latency_ns(), dispatch.end_ns);
    }
}
