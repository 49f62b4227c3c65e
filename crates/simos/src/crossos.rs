//! CROSS-OS: the kernel half of CrossPrefetch.
//!
//! Implements the paper's `readahead_info` system call (§4.4): one call
//! that (1) checks the per-inode cache-state bitmap on a *fast path* that
//! takes only the bitmap rw-lock, never the cache-tree lock; (2) issues
//! prefetch I/O for the missing sub-ranges only, updating the bitmap once
//! after the whole walk; (3) exports a selectable window of the bitmap to
//! user space; and (4) exports telemetry — per-file residency, free
//! memory, hit/miss counters — that CROSS-LIB's aggressive-prefetch and
//! eviction policies feed on.
//!
//! The limit relaxation of §4.7 is the `limit_pages` override: unlike
//! `readahead(2)`, a `readahead_info` request may exceed the OS readahead
//! cap, up to `OsConfig::crossos_max_prefetch_pages` (64 MiB by default).

use std::sync::Arc;

use simclock::ThreadClock;
use simstore::IoPriority;

use crate::cache::PAGES_PER_WORD;
use crate::error::IoError;
use crate::os::{Fd, Os, PAGE_SIZE};
use crate::trace::OsSpanKind;

/// Request structure for [`Os::readahead_info`] — the `info` parameter of
/// the paper's Listing 1, input half.
#[derive(Debug, Clone, Copy)]
pub struct RaInfoRequest {
    /// Byte offset of the range of interest.
    pub offset: u64,
    /// Byte length of the range of interest.
    pub len: u64,
    /// Per-call prefetch limit override (pages). `None` uses the OS
    /// readahead cap; values are clamped to the CROSS-OS ceiling.
    pub limit_pages: Option<u64>,
    /// If set, only query state and export the bitmap; never start I/O.
    pub query_only: bool,
    /// Page window `[start, end)` of the bitmap to export. `None` exports
    /// the window covering `offset..offset+len`.
    pub bitmap_window: Option<(u64, u64)>,
    /// Export granularity: one exported bit covers `2^bitmap_shift` pages
    /// (the artifact's `CROSS_BITMAP_SHIFT`). A coarse bit is set only
    /// when *every* page it covers is cached, so coarse views are
    /// conservative — they can cause redundant prefetch, never a false
    /// hit. Shift 0 is exact.
    pub bitmap_shift: u32,
}

impl RaInfoRequest {
    /// A plain prefetch-and-report request over a byte range.
    pub fn prefetch(offset: u64, len: u64) -> Self {
        Self {
            offset,
            len,
            limit_pages: None,
            query_only: false,
            bitmap_window: None,
            bitmap_shift: 0,
        }
    }

    /// Sets the coarse-export granularity (`CROSS_BITMAP_SHIFT`).
    pub fn with_bitmap_shift(mut self, shift: u32) -> Self {
        self.bitmap_shift = shift.min(16);
        self
    }

    /// A pure cache-state query over a byte range.
    pub fn query(offset: u64, len: u64) -> Self {
        Self {
            query_only: true,
            ..Self::prefetch(offset, len)
        }
    }

    /// Sets the §4.7 limit override.
    pub fn with_limit_pages(mut self, pages: u64) -> Self {
        self.limit_pages = Some(pages);
        self
    }
}

/// Reply structure — the `info` parameter of Listing 1, output half.
#[derive(Debug, Clone)]
pub struct RaInfo {
    /// Exported presence bitmap words; bit 0 of word 0 is page
    /// `window_start`.
    pub bitmap: Vec<u64>,
    /// First page the exported bitmap covers (word-aligned).
    pub window_start: u64,
    /// Pages of the requested range that were already cached.
    pub cached_pages: u64,
    /// Pages of the requested range newly scheduled for prefetch.
    pub initiated_pages: u64,
    /// Virtual time at which all initiated I/O completes.
    pub ready_at_ns: u64,
    /// Telemetry: pages of this file resident in the cache.
    pub file_resident_pages: u64,
    /// Telemetry: free pages in the system memory budget.
    pub free_pages: u64,
    /// Telemetry: lifetime page-cache hits for this file.
    pub file_hits: u64,
    /// Telemetry: lifetime page-cache misses for this file.
    pub file_misses: u64,
}

impl Os {
    /// The `readahead_info` system call (§4.4, Listing 1).
    ///
    /// Semantics, in order:
    /// 1. Charge one syscall crossing.
    /// 2. Fast path: take the per-inode **bitmap** rw-lock (read) and scan
    ///    the requested window — no cache-tree lock involved.
    /// 3. If pages are missing and this is not a query: clamp to the limit
    ///    (override or OS cap), issue prefetch-class device reads for the
    ///    missing runs only, and take the bitmap lock (write) *once* to
    ///    publish the whole walk.
    /// 4. Export the bitmap window and telemetry to user space.
    ///
    /// # Example — the paper's Listing 1 `prefetcher` loop
    ///
    /// ```
    /// use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig,
    ///             RaInfoRequest, PAGE_SIZE};
    ///
    /// let os = Os::new(
    ///     OsConfig::with_memory_mb(64),
    ///     Device::new(DeviceConfig::local_nvme()),
    ///     FileSystem::new(FsKind::Ext4Like),
    /// );
    /// let mut clock = os.new_clock();
    /// let fd = os.create_sized(&mut clock, "/data", 8 << 20)?;
    ///
    /// // prefetcher(fd, offset, prefetch_size): loop readahead_info calls
    /// // until the whole window is scheduled, advancing by what each call
    /// // reports (Listing 1's `offset = predict(&info)`).
    /// let (mut offset, prefetch_limit) = (0u64, 4u64 << 20);
    /// while offset < prefetch_limit {
    ///     let info = os.readahead_info(
    ///         &mut clock,
    ///         fd,
    ///         RaInfoRequest::prefetch(offset, 1 << 20),
    ///     );
    ///     offset += (info.initiated_pages + info.cached_pages) * PAGE_SIZE;
    /// }
    /// assert_eq!(os.cache(os.fd_inode(fd)).state.read().resident() * PAGE_SIZE,
    ///            4 << 20);
    /// # Ok::<(), simos::FsError>(())
    /// ```
    pub fn readahead_info(&self, clock: &mut ThreadClock, fd: Fd, req: RaInfoRequest) -> RaInfo {
        crate::os::into_ok(self.readahead_info_impl::<crate::os::NeverFault>(clock, fd, req))
    }

    /// Fallible variant of [`Os::readahead_info`].
    ///
    /// Two failure modes, matching the degradation ladder CROSS-LIB needs:
    ///
    /// * **`Unsupported`** — the kernel was built without CROSS-OS
    ///   ([`crate::OsConfig::readahead_info_supported`] is `false`, i.e. a
    ///   stock kernel). The call charges one syscall crossing (the failed
    ///   `ENOSYS` probe) and fails permanently; callers should latch onto
    ///   blind `readahead(2)`.
    /// * **`Io`** — the fault plan injected a transient EIO into one of
    ///   the prefetch-class device reads. All-or-nothing: nothing is
    ///   inserted or published, so a retry re-covers the whole range.
    ///
    /// # Errors
    ///
    /// See above; [`IoError::Unsupported`] or [`IoError::Io`].
    pub fn try_readahead_info(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        req: RaInfoRequest,
    ) -> Result<RaInfo, IoError> {
        if !self.config().readahead_info_supported {
            clock.advance(self.config().costs.syscall_ns);
            self.stats().syscalls.incr();
            self.stats().ra_info_unsupported.incr();
            return Err(IoError::Unsupported);
        }
        self.readahead_info_impl::<crate::os::MayFault>(clock, fd, req)
    }

    fn readahead_info_impl<F: crate::os::FaultMode>(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        req: RaInfoRequest,
    ) -> Result<RaInfo, F::Error> {
        let costs = &self.config().costs;
        clock.advance(costs.syscall_ns);
        self.stats().syscalls.incr();
        self.stats().ra_info_calls.incr();

        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let file_pages = self.fs().size(entry.ino).div_ceil(PAGE_SIZE);

        let p0 = (req.offset / PAGE_SIZE).min(file_pages);
        let p1 = ((req.offset + req.len).div_ceil(PAGE_SIZE)).min(file_pages);

        // Fast path: bitmap scan under the bitmap read lock.
        let spans = self.span_sink();
        let scan_access = cache
            .bitmap_lock
            .read(clock.now(), costs.bitmap_scan_ns(p1.saturating_sub(p0)));
        clock.advance_to(scan_access.end_ns);
        if scan_access.wait_ns > 0 {
            if let Some(sink) = spans {
                sink.emit_os_span(
                    scan_access.end_ns,
                    OsSpanKind::BitmapLockWait,
                    scan_access.wait_ns,
                );
            }
        }
        let missing = cache.state.read().missing_runs(p0, p1);
        let range_pages = p1.saturating_sub(p0);
        let missing_pages: u64 = missing.iter().map(|&(s, e)| e - s).sum();
        let cached_pages = range_pages - missing_pages;

        let mut initiated = 0;
        let mut ready_at = 0;
        if !req.query_only && missing_pages > 0 {
            let cap = req
                .limit_pages
                .unwrap_or(self.config().ra_max_pages)
                .min(self.config().crossos_max_prefetch_pages)
                .max(1);
            // Take missing runs front-to-back until the cap is consumed.
            let mut budget = cap;
            let mut scheduled: Vec<(u64, u64)> = Vec::new();
            for &(s, e) in &missing {
                if budget == 0 {
                    break;
                }
                let take = (e - s).min(budget);
                scheduled.push((s, s + take));
                budget -= take;
            }

            // Device I/O proceeds off the caller's critical path. Large
            // transfers complete *progressively*: charge the device in
            // VFS-request-sized chunks and record each chunk's own
            // completion, so readers consume the front of a big prefetch
            // while its tail is still in flight.
            let mut io_clock = ThreadClock::detached_at(Arc::clone(self.global()), clock.now());
            let chunk_pages = (self.device().config().max_request_bytes / PAGE_SIZE).max(1);
            let mut chunk_ready: Vec<(u64, u64, u64)> = Vec::new();
            for &(s, e) in &scheduled {
                let mut cursor = s;
                while cursor < e {
                    let upto = (cursor + chunk_pages).min(e);
                    let before = io_clock.now();
                    // All-or-nothing: nothing has been inserted or
                    // published yet, so propagating here leaves the
                    // bitmap and tree exactly as before the call.
                    self.charge_read_runs::<F>(
                        &mut io_clock,
                        entry.ino,
                        cursor,
                        upto - cursor,
                        IoPriority::Prefetch,
                    )?;
                    push_interpolated_ready(&mut chunk_ready, cursor, upto, before, io_clock.now());
                    cursor = upto;
                }
            }
            ready_at = io_clock.now();
            if ready_at > clock.now() {
                if let Some(sink) = spans {
                    sink.emit_os_span(ready_at, OsSpanKind::DevicePrefetch, ready_at - clock.now());
                }
            }

            // Publish once after the entire walk (write side, short hold).
            let publish_hold = costs.bitmap_lock_hold_ns
                + costs.bitmap_scan_ns(scheduled.iter().map(|&(s, e)| e - s).sum());
            let publish = cache.bitmap_lock.write(clock.now(), publish_hold);
            clock.advance_to(publish.end_ns);
            if publish.wait_ns > 0 {
                if let Some(sink) = spans {
                    sink.emit_os_span(publish.end_ns, OsSpanKind::BitmapLockWait, publish.wait_ns);
                }
            }

            // Bias the recency of readahead pages slightly into the future:
            // a page prefetched-but-not-yet-read must outrank just-consumed
            // stream history in the LRU, or reclaim cannibalizes the window
            // right before the reader arrives (the classic use-once-scan
            // pathology; Linux protects readahead pages similarly).
            let touch = clock.now() + PREFETCH_TOUCH_BIAS_NS;
            {
                let mut state = cache.state.write();
                for &(s, e, ready) in &chunk_ready {
                    initiated += state.insert_range_prefetched(s, e, touch, ready);
                }
            }
            self.stats().prefetched_pages.add(initiated);
            if self.mem().note_inserted(initiated) {
                self.reclaim(clock);
            }
        }

        // Export the bitmap window, coarsened per the requested shift (one
        // exported bit per 2^shift pages; a coarse bit requires all its
        // pages present). Coarser exports copy proportionally fewer words.
        let (w0, w1) = req.bitmap_window.unwrap_or((p0, p1.max(p0 + 1)));
        let window_start = (w0 / PAGES_PER_WORD) * PAGES_PER_WORD;
        let bitmap = {
            let state = cache.state.read();
            if req.bitmap_shift == 0 {
                state.snapshot_words(w0, w1.max(w0 + 1))
            } else {
                coarsen_bitmap(&state, window_start, w1.max(w0 + 1), req.bitmap_shift)
            }
        };
        clock.advance(
            costs.bitmap_copy_ns((w1.saturating_sub(w0).max(1)) >> req.bitmap_shift.min(16)),
        );

        if let Some(sink) = self.trace_sink() {
            sink.emit_os_event(
                clock.now(),
                crate::trace::OsTraceEvent::RaInfoCall {
                    ino: entry.ino,
                    start_page: p0,
                    pages: range_pages,
                    cached_pages,
                    initiated_pages: initiated,
                },
            );
        }

        let state = cache.state.read();
        Ok(RaInfo {
            bitmap,
            window_start,
            cached_pages,
            initiated_pages: initiated,
            ready_at_ns: ready_at,
            file_resident_pages: state.resident(),
            free_pages: self.mem().free_pages(),
            file_hits: cache.hits.get(),
            file_misses: cache.misses.get(),
        })
    }

    /// Completion-ring absorption of a fully cached demand read: the
    /// user-level runtime believes `[offset, offset+len)` is resident, and
    /// this call confirms it against the shared CROSS-OS bitmap *without a
    /// syscall crossing* — paying only the bitmap scan, any residual
    /// ready-wait, and the user-copy. Returns `None` (leaving all state
    /// untouched) when the view is stale (pages actually missing) or when
    /// in-flight readiness is far enough out that the syscall path's
    /// demand-bypass would be faster — the caller then falls back to the
    /// normal crossing, keeping cache accounting identical either way.
    /// Also `None` on a kernel without CROSS-OS
    /// ([`crate::OsConfig::readahead_info_supported`] is `false`): there
    /// is no exported bitmap to confirm against.
    pub fn absorb_read(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Option<crate::os::ReadOutcome> {
        if !self.config().readahead_info_supported {
            return None;
        }
        let costs = &self.config().costs;
        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let size = self.fs().size(entry.ino);
        let len = len.min(size.saturating_sub(offset));
        if len == 0 {
            return None;
        }
        let p0 = offset / PAGE_SIZE;
        let p1 = (offset + len).div_ceil(PAGE_SIZE);
        let pages = p1 - p0;

        // Completion check on the delineated path: bitmap read lock, never
        // the cache-tree lock.
        let spans = self.span_sink();
        let scan = cache
            .bitmap_lock
            .read(clock.now(), costs.bitmap_scan_ns(pages));
        clock.advance_to(scan.end_ns);
        if scan.wait_ns > 0 {
            if let Some(sink) = spans {
                sink.emit_os_span(scan.end_ns, OsSpanKind::BitmapLockWait, scan.wait_ns);
            }
        }

        let (timely, late, ready_at) = {
            let mut state = cache.state.write();
            if !state.missing_runs(p0, p1).is_empty() {
                // Stale user-level view (OS reclaim beat us): nothing was
                // mutated, so the normal syscall path still sees a
                // pristine range and accounts the misses itself.
                return None;
            }
            let ready_at = state.ready_max(p0, p1);
            let refetch_estimate = self.device().config().read_request_latency_ns()
                + simclock::transfer_ns(pages * PAGE_SIZE, self.device().config().read_bw);
            if ready_at.saturating_sub(clock.now()) > refetch_estimate * 2 {
                // The syscall path would overtake this queued prefetch
                // with a demand read; let it.
                return None;
            }
            let (timely, late) = state.classify_access(p0, p1, clock.now());
            (timely, late, ready_at)
        };
        cache.hits.add(pages);
        self.stats().hit_pages.add(pages);
        let wait = ready_at.saturating_sub(clock.now());
        if wait > 0 {
            self.stats().ready_wait_ns.add(wait);
            clock.advance_to(ready_at);
            if let Some(sink) = spans {
                sink.emit_os_span(ready_at, OsSpanKind::ReadyWait, wait);
            }
        }
        let now = clock.now();
        cache.state.write().touch_range(p0, p1, now);
        clock.advance(costs.copy_pages_ns(pages));
        self.stats().bytes_read.add(len);
        self.stats().absorbed_reads.incr();

        // Keep the heuristic-readahead state machine in lockstep with the
        // syscall path (every ring-eligible mode silences it at open, but
        // the descriptor state must not diverge).
        let ra_request = entry.ra.lock().on_read(p0, pages);
        if let Some(req) = ra_request {
            if let Some(sink) = self.trace_sink() {
                sink.emit_os_event(
                    clock.now(),
                    crate::trace::OsTraceEvent::RaWindowGrow {
                        ino: entry.ino,
                        start_page: req.start,
                        window_pages: req.count,
                    },
                );
            }
            self.prefetch_via_tree(clock, entry.ino, &cache, req.start, req.count);
        }

        Some(crate::os::ReadOutcome {
            pages,
            hit_pages: pages,
            miss_pages: 0,
            prefetch_hit_pages: timely + late,
            bytes: len,
        })
    }

    /// Cancellation path of a speculative pre-issued read: re-flags the
    /// still-present pages of `[start_page, end_page)` as speculative so
    /// they re-enter the prefetch-quality ledger (touched later → timely
    /// or late; evicted untouched → wasted). Charged as a short bitmap
    /// write. Returns the number of pages re-flagged — the caller must
    /// bill exactly that many against its initiated-pages ledger to keep
    /// the quality-sum invariant.
    pub fn mark_range_speculative(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        start_page: u64,
        end_page: u64,
    ) -> u64 {
        let costs = &self.config().costs;
        let pages = end_page.saturating_sub(start_page);
        if pages == 0 {
            return 0;
        }
        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let access = cache.bitmap_lock.write(
            clock.now(),
            costs.bitmap_lock_hold_ns + costs.bitmap_scan_ns(pages),
        );
        clock.advance_to(access.end_ns);
        let flagged = cache.state.write().mark_speculative(start_page, end_page);
        flagged
    }
}

/// Recency bias for prefetched-but-unread pages (see the insert sites).
pub(crate) const PREFETCH_TOUCH_BIAS_NS: u64 = 5 * simclock::NS_PER_MS;

/// Records sub-chunk readiness for `[start, end)` filled between `t0` and
/// `t1`: the device streams data in, so the front of a request becomes
/// readable before its tail. Readiness is interpolated linearly over
/// 32-page (128 KiB) sub-chunks, matching DMA-completion granularity.
pub(crate) fn push_interpolated_ready(
    out: &mut Vec<(u64, u64, u64)>,
    start: u64,
    end: u64,
    t0: u64,
    t1: u64,
) {
    const SUB_PAGES: u64 = 32;
    let total = end - start;
    let span = t1.saturating_sub(t0);
    let mut cursor = start;
    while cursor < end {
        let upto = (cursor + SUB_PAGES).min(end);
        let frac_num = upto - start;
        let ready = t0 + span * frac_num / total.max(1);
        out.push((cursor, upto, ready));
        cursor = upto;
    }
}

/// Coarsens a presence window: exported bit `i` covers pages
/// `[start + i*2^shift, start + (i+1)*2^shift)` and is set only when all
/// of them are present.
fn coarsen_bitmap(state: &crate::cache::CacheState, start: u64, end: u64, shift: u32) -> Vec<u64> {
    let group = 1u64 << shift.min(16);
    let groups = (end - start).div_ceil(group);
    let mut out = vec![0u64; (groups as usize).div_ceil(64)];
    for g in 0..groups {
        let gstart = start + g * group;
        let gend = (gstart + group).min(end);
        if state.present_in(gstart, gend) == gend - gstart {
            out[(g / 64) as usize] |= 1 << (g % 64);
        }
    }
    out
}

/// Returns whether `page` is set in an exported [`RaInfo`] bitmap
/// (exact exports only — for coarse exports index by group).
pub fn bitmap_has_page(info: &RaInfo, page: u64) -> bool {
    if page < info.window_start {
        return false;
    }
    let rel = page - info.window_start;
    let (w, b) = ((rel / PAGES_PER_WORD) as usize, rel % PAGES_PER_WORD);
    info.bitmap.get(w).is_some_and(|word| word & (1 << b) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileSystem, FsKind, OsConfig};
    use simstore::{Device, DeviceConfig};

    fn os_with_file(bytes: u64) -> (Arc<Os>, Fd, ThreadClock) {
        let os = Os::new(
            OsConfig::with_memory_mb(256),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", bytes).unwrap();
        (os, fd, clock)
    }

    #[test]
    fn prefetch_fills_missing_range() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        assert_eq!(info.cached_pages, 0);
        assert_eq!(info.initiated_pages, 256);
        assert!(info.ready_at_ns > 0);
        // Second call sees everything cached, initiates nothing.
        let info2 = os.readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, 1 << 20));
        assert_eq!(info2.cached_pages, 256);
        assert_eq!(info2.initiated_pages, 0);
    }

    #[test]
    fn query_only_never_starts_io() {
        let (os, fd, mut clock) = os_with_file(1 << 20);
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 1 << 20));
        assert_eq!(info.initiated_pages, 0);
        assert_eq!(os.device().stats().read_bytes.get(), 0);
    }

    #[test]
    fn default_limit_is_os_readahead_cap() {
        let (os, fd, mut clock) = os_with_file(16 << 20);
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, 16 << 20));
        assert_eq!(info.initiated_pages, os.config().ra_max_pages);
    }

    #[test]
    fn limit_override_exceeds_cap_but_respects_ceiling() {
        let (os, fd, mut clock) = os_with_file(256 << 20);
        let huge = u64::MAX;
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 256 << 20).with_limit_pages(huge),
        );
        assert_eq!(info.initiated_pages, os.config().crossos_max_prefetch_pages);
    }

    #[test]
    fn bitmap_export_reflects_presence() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 512 * 1024).with_limit_pages(128),
        );
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 4 << 20));
        assert!(bitmap_has_page(&info, 0));
        assert!(bitmap_has_page(&info, 127));
        assert!(!bitmap_has_page(&info, 128));
        assert!(!bitmap_has_page(&info, 1000));
    }

    #[test]
    fn telemetry_reports_memory_and_counters() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        let before = os.mem().free_pages();
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        assert_eq!(info.file_resident_pages, 256);
        assert_eq!(info.free_pages, before - 256);
    }

    #[test]
    fn fast_path_avoids_tree_lock() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        let cache = os.cache(os.fd_inode(fd));
        assert_eq!(cache.tree_lock.write_stats().acquisitions(), 0);
        assert!(cache.bitmap_lock.write_stats().acquisitions() > 0);
    }

    #[test]
    fn prefetch_skips_cached_prefix() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 256 * 4096).with_limit_pages(256),
        );
        let read_bytes_before = os.device().stats().read_bytes.get();
        // Request overlapping [128, 384): only [256, 384) is missing.
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(128 * 4096, 256 * 4096).with_limit_pages(256),
        );
        assert_eq!(info.cached_pages, 128);
        assert_eq!(info.initiated_pages, 128);
        let read_bytes_after = os.device().stats().read_bytes.get();
        assert_eq!(read_bytes_after - read_bytes_before, 128 * 4096);
    }

    #[test]
    fn coarse_export_is_conservative() {
        let (os, fd, mut clock) = os_with_file(8 << 20); // 2048 pages
                                                         // Cache pages [0, 100): group of 64 pages fully covered only for
                                                         // group 0 at shift 6.
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 100 * 4096).with_limit_pages(100),
        );
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::query(0, 8 << 20).with_bitmap_shift(6),
        );
        // Group 0 (pages 0..64) fully cached -> bit set; group 1 (64..128)
        // partially cached -> clear.
        assert_eq!(info.bitmap[0] & 0b11, 0b01);
    }

    #[test]
    fn coarse_export_copies_fewer_words() {
        let (os, fd, mut clock) = os_with_file(256 << 20);
        let exact = os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 256 << 20));
        let coarse = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::query(0, 256 << 20).with_bitmap_shift(6),
        );
        assert!(coarse.bitmap.len() * 32 < exact.bitmap.len());
    }

    #[test]
    fn range_clamps_to_file_size() {
        let (os, fd, mut clock) = os_with_file(64 * 1024); // 16 pages
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, u64::MAX / 4));
        assert_eq!(info.initiated_pages, 16);
    }

    #[test]
    fn try_variant_matches_infallible_without_faults() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        let info = os
            .try_readahead_info(
                &mut clock,
                fd,
                RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
            )
            .unwrap();
        assert_eq!(info.initiated_pages, 256);
    }

    #[test]
    fn unsupported_kernel_rejects_try_readahead_info() {
        let mut config = OsConfig::with_memory_mb(64);
        config.readahead_info_supported = false;
        let os = Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let err = os
            .try_readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, 1 << 20))
            .unwrap_err();
        assert_eq!(err, IoError::Unsupported);
        assert_eq!(os.stats().ra_info_unsupported.get(), 1);
        // Nothing was scheduled and no device I/O happened.
        assert_eq!(os.device().stats().read_bytes.get(), 0);
        // The infallible entry point still works (flag only gates try_*).
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, 1 << 20));
        assert_eq!(info.initiated_pages, 32);
    }

    #[test]
    fn absorb_read_serves_cached_range_without_crossing() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        // Nothing cached yet: absorb refuses, mutating nothing.
        assert!(os.absorb_read(&mut clock, fd, 0, 64 * 1024).is_none());
        assert_eq!(os.stats().hit_pages.get(), 0);

        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        let syscalls_before = os.stats().syscalls.get();
        let outcome = os
            .absorb_read(&mut clock, fd, 0, 64 * 1024)
            .expect("fully cached range absorbs");
        assert_eq!(os.stats().syscalls.get(), syscalls_before);
        assert_eq!(outcome.pages, 16);
        assert_eq!(outcome.hit_pages, 16);
        assert_eq!(outcome.miss_pages, 0);
        assert_eq!(outcome.prefetch_hit_pages, 16);
        assert_eq!(os.stats().absorbed_reads.get(), 1);
        assert_eq!(os.stats().hit_pages.get(), 16);
        // Re-absorbing the same range is a plain cache hit now.
        let again = os.absorb_read(&mut clock, fd, 0, 64 * 1024).unwrap();
        assert_eq!(again.prefetch_hit_pages, 0);
        assert_eq!(again.hit_pages, 16);
    }

    #[test]
    fn absorb_read_declines_without_crossos() {
        let mut config = OsConfig::with_memory_mb(64);
        config.readahead_info_supported = false;
        let os = Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        // Resident, yet no exported bitmap to confirm it against.
        os.read_charge(&mut clock, fd, 0, 64 * 1024);
        let before = clock.now();
        assert!(os.absorb_read(&mut clock, fd, 0, 64 * 1024).is_none());
        assert_eq!(clock.now(), before, "declining must charge nothing");
        assert_eq!(os.stats().absorbed_reads.get(), 0);
    }

    #[test]
    fn absorb_read_matches_read_charge_accounting() {
        // Same prefetched range, consumed via absorb vs via read_charge:
        // page-level accounting (hits, prefetch-hit classification) must
        // be identical — only the crossing counters differ.
        let run = |absorb: bool| {
            let (os, fd, mut clock) = os_with_file(4 << 20);
            os.readahead_info(
                &mut clock,
                fd,
                RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
            );
            let outcome = if absorb {
                os.absorb_read(&mut clock, fd, 0, 256 * 1024).unwrap()
            } else {
                os.read_charge(&mut clock, fd, 0, 256 * 1024)
            };
            (
                outcome,
                os.stats().hit_pages.get(),
                os.stats().miss_pages.get(),
                os.prefetch_quality(),
            )
        };
        let (a_out, a_hits, a_misses, a_q) = run(true);
        let (r_out, r_hits, r_misses, r_q) = run(false);
        assert_eq!(a_out, r_out);
        assert_eq!((a_hits, a_misses), (r_hits, r_misses));
        assert_eq!(a_q, r_q);
    }

    #[test]
    fn mark_range_speculative_reenters_quality_ledger() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        // Silence the heuristic readahead so the only cached pages are the
        // demand-filled ones under test.
        os.fadvise(&mut clock, fd, crate::Advice::Random, 0, 0);
        // Demand-fill pages [0, 16) — non-speculative.
        os.read_charge(&mut clock, fd, 0, 16 * PAGE_SIZE);
        let flagged = os.mark_range_speculative(&mut clock, fd, 0, 16);
        assert_eq!(flagged, 16);
        // Dropping them now books the full range as wasted.
        os.drop_caches(&mut clock);
        assert_eq!(os.prefetch_quality().wasted, 16);
        // Re-flagging an empty or absent range is a no-op.
        assert_eq!(os.mark_range_speculative(&mut clock, fd, 5, 5), 0);
    }

    #[test]
    fn injected_prefetch_fault_is_all_or_nothing() {
        use simstore::FaultPlan;
        let os = Os::new(
            OsConfig::with_memory_mb(256),
            Device::with_fault_plan(
                DeviceConfig::local_nvme(),
                FaultPlan::seeded(3).with_prefetch_eio(1.0),
            ),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 4 << 20).unwrap();
        let err = os
            .try_readahead_info(
                &mut clock,
                fd,
                RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
            )
            .unwrap_err();
        assert_eq!(err, IoError::Io);
        // Nothing inserted: a later query sees an empty cache.
        let info = os
            .try_readahead_info(&mut clock, fd, RaInfoRequest::query(0, 1 << 20))
            .unwrap();
        assert_eq!(info.cached_pages, 0);
        assert_eq!(os.stats().prefetched_pages.get(), 0);
    }
}
