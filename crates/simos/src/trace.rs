//! OS-side decision-event export.
//!
//! The simulated OS does not know about CROSS-LIB's trace log (that would
//! invert the layering), so it emits structured events through an injected
//! [`OsTraceSink`]. CROSS-LIB installs its `TraceLog` as the sink when a
//! runtime boots; without a sink installed, every emit site is a single
//! `OnceLock` load that finds nothing.
//!
//! Emit sites sit off the per-page hot path: `readahead_info` calls,
//! heuristic readahead window growth, and reclaim passes.

use simfs::InodeId;

/// A structured OS-layer decision event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsTraceEvent {
    /// One `readahead_info` call (CROSS-OS §4.4): what the caller asked
    /// about and what the fast path found/started.
    RaInfoCall {
        /// File the call targeted.
        ino: InodeId,
        /// First page of the requested range.
        start_page: u64,
        /// Pages in the requested range.
        pages: u64,
        /// Pages already cached.
        cached_pages: u64,
        /// Pages newly scheduled for prefetch.
        initiated_pages: u64,
    },
    /// The heuristic readahead state machine issued (or grew) a window.
    RaWindowGrow {
        /// File the window belongs to.
        ino: InodeId,
        /// First page of the new window.
        start_page: u64,
        /// Window size in pages.
        window_pages: u64,
    },
    /// One OS reclaim pass.
    OsReclaim {
        /// Pages reclaim wanted to free.
        target_pages: u64,
        /// Pages actually freed.
        freed_pages: u64,
    },
}

/// Kinds of OS-side leaf spans bridged to the caller's span subsystem via
/// [`OsTraceSink::emit_os_span`]. Each names one wait or service window
/// measured on a thread's virtual clock; the receiving layer decides how
/// to attribute it (the CROSS-LIB critical-path analyzer buckets lock
/// waits, device service, and reclaim separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsSpanKind {
    /// Blocked acquiring a per-inode cache-tree lock.
    TreeLockWait,
    /// Blocked acquiring a per-inode bitmap lock (CROSS-OS fast path).
    BitmapLockWait,
    /// Waited for in-flight prefetch I/O to cover the requested range.
    ReadyWait,
    /// Demand-fill (or ready-bypass re-read) device service window on the
    /// calling thread's clock.
    DeviceRead,
    /// Prefetch-class device service window. Always measured on a
    /// *detached* I/O clock — off the caller's critical path.
    DevicePrefetch,
    /// One whole reclaim pass on the calling thread's clock.
    ReclaimPass,
    /// A write-back flush's device window: synchronous (`fsync`, hard
    /// dirty limit) flushes land on the caller's clock, daemon flushes on
    /// a detached one.
    WritebackFlush,
    /// A cross-tier promotion copy (remote read + local write). Always
    /// measured off the demand path, on a worker or detached clock.
    TierPromote,
}

impl OsSpanKind {
    /// Stable label used in folded stacks and exemplar dumps.
    pub fn name(self) -> &'static str {
        match self {
            OsSpanKind::TreeLockWait => "os-tree-lock-wait",
            OsSpanKind::BitmapLockWait => "os-bitmap-lock-wait",
            OsSpanKind::ReadyWait => "os-ready-wait",
            OsSpanKind::DeviceRead => "os-device-read",
            OsSpanKind::DevicePrefetch => "os-device-prefetch",
            OsSpanKind::ReclaimPass => "os-reclaim-pass",
            OsSpanKind::WritebackFlush => "os-writeback-flush",
            OsSpanKind::TierPromote => "os-tier-promote",
        }
    }
}

/// Receiver for OS-layer trace events, installed via
/// [`crate::Os::set_trace_sink`].
pub trait OsTraceSink: Send + Sync + std::fmt::Debug {
    /// Cheap pre-check: emit sites skip event construction when false.
    fn enabled(&self) -> bool;

    /// Delivers one event stamped with the emitting thread's virtual time.
    fn emit_os_event(&self, ts_ns: u64, event: OsTraceEvent);

    /// Cheap pre-check for span bridging: when false, emit sites skip
    /// [`OsTraceSink::emit_os_span`] entirely. Defaults to off so
    /// event-only sinks pay nothing for the span surface.
    fn span_enabled(&self) -> bool {
        false
    }

    /// Delivers one OS-side leaf span: a wait or service window of
    /// `dur_ns` virtual nanoseconds ending at `end_ns` on the emitting
    /// thread's clock. Default: ignored.
    fn emit_os_span(&self, end_ns: u64, kind: OsSpanKind, dur_ns: u64) {
        let _ = (end_ns, kind, dur_ns);
    }
}
