//! Completion-driven ring for demand reads.
//!
//! The ring keeps only what needs no staging; prefetch submission has a
//! single path (`Runtime::prefetch_pages` → `issue_prefetch`, one
//! `readahead_info` per planned run, as in §4.3):
//!
//! * a demand read whose range the user-level view claims fully cached
//!   is *absorbed* through the shared CROSS-OS bitmap
//!   (`simos::Os::absorb_read`) with zero syscall crossings; everything
//!   else crosses through the ordinary `read(2)` path;
//! * when the descriptor's predictor's confidence clears
//!   [`crate::RuntimeConfig::ring_spec_confidence`], the next predicted
//!   demand read is pre-issued speculatively (Foreactor-style) and
//!   recorded as a [`SpecRead`] completion: absorbed on an exact match,
//!   cancelled and charged as wasted prefetch on a mispredict.

use simos::ReadOutcome;

/// A completed speculative pre-issued read parked on a descriptor,
/// waiting for the application's next demand read to claim it.
///
/// If the next intercepted read matches `(offset, len)` exactly, the read
/// absorbs this completion: it pays only the ready-wait remainder and the
/// user-space copy, never crossing into the OS. On any other access the
/// speculation is cancelled and its freshly fetched pages are re-flagged
/// speculative so eviction (or a later touch) books them through the
/// normal prefetch-quality ledger — a mispredicted pre-issue must show up
/// as `wasted`, not silently vanish.
#[derive(Debug, Clone)]
pub struct SpecRead {
    /// Byte offset the speculation covered.
    pub offset: u64,
    /// Byte length the speculation covered.
    pub len: u64,
    /// The outcome the OS pipeline produced when the speculation ran.
    pub outcome: ReadOutcome,
    /// Virtual time the speculative read's data became ready.
    pub ready_ns: u64,
}
