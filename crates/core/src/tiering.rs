//! Cross-tier placement planning — the CROSS-LIB half of the tiering
//! subsystem.
//!
//! When the OS sits on a [`simos::TieredStore`] (local NVMe in front of a
//! slower remote store), demand misses on remote-resident blocks pay the
//! remote device's latency and congestion. The runtime already *predicts*
//! which ranges the application will touch next; the [`TierPlanner`]
//! turns those same high-confidence predictions into **promotion jobs**:
//! background remote→local copies of predicted-hot ranges, issued through
//! the worker pool ahead of the stream, so the demand reads that follow
//! land on the fast tier.
//!
//! Promotions are billed as prefetch: a completed promotion publishes the
//! copied pages into the page cache as prefetched pages, so the quality
//! ledger's `timely + late + wasted == pages_initiated` identity carries
//! over unchanged — a promotion the stream never catches up to surfaces
//! as `wasted`, exactly like an over-eager prefetch.
//!
//! Demotion is the OS's job (cold clean blocks are returned to the remote
//! tier under local-capacity pressure, inside
//! [`simos::Os::try_promote_range`]'s room-making pass); the planner only
//! decides *what to promote and when*.

use std::collections::HashMap;

use parking_lot::Mutex;

/// Configuration for the cross-tier promotion planner
/// ([`crate::RuntimeConfig::tiering`]; `None` — the default — disables
/// the planner entirely and leaves every mechanism byte-identical).
#[derive(Debug, Clone, PartialEq)]
pub struct TieringConfig {
    /// Minimum predictor confidence (same scale as
    /// [`crate::RuntimeConfig::ring_spec_confidence`]) before a predicted
    /// range is worth a promotion copy. Promotion moves data, not just
    /// cache state, so the bar sits above the speculation bar by default.
    pub promote_confidence: f64,
    /// Smallest promotion worth dispatching, in pages — sub-threshold
    /// tails stay remote rather than paying a worker dispatch and two
    /// device crossings for a handful of blocks.
    pub promote_min_pages: u64,
    /// Largest single promotion job, in pages; larger predicted ranges
    /// are clamped (the stream's continued progress re-arms the planner
    /// for the rest).
    pub max_promotion_pages: u64,
    /// Worker-side attempts per promotion job before giving up (remote
    /// faults retry through the same backoff ladder as prefetch).
    pub promote_retry_attempts: u32,
    /// Initial retry backoff, in virtual nanoseconds (doubles per retry).
    pub promote_retry_backoff_ns: u64,
}

impl TieringConfig {
    /// Paper-flavoured defaults: promote only well-established streams
    /// (confidence ≥ 0.75), 8-page minimum, 1024-page (4 MiB) job cap,
    /// prefetch-matching retry ladder.
    pub fn new() -> Self {
        Self {
            promote_confidence: 0.75,
            promote_min_pages: 8,
            max_promotion_pages: 1024,
            promote_retry_attempts: 4,
            promote_retry_backoff_ns: 100 * simclock::NS_PER_US,
        }
    }
}

impl Default for TieringConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The promotion planner: dedups and clamps candidate ranges so the
/// worker pool sees at most one promotion stream per file, advancing
/// monotonically with the reads.
///
/// State is one frontier per inode — the page up to which promotion has
/// already been requested. Ranges at or below the frontier are dropped
/// (the OS-side placement map makes re-promotion harmless but the
/// dispatch and device probing are not free); ranges straddling it are
/// trimmed to the new part.
#[derive(Debug)]
pub struct TierPlanner {
    config: TieringConfig,
    /// ino → one past the last page already handed to a promotion job.
    frontiers: Mutex<HashMap<u64, u64>>,
}

impl TierPlanner {
    /// Builds a planner with the given knobs.
    pub fn new(config: TieringConfig) -> Self {
        Self {
            config,
            frontiers: Mutex::new(HashMap::new()),
        }
    }

    /// The knobs in effect.
    pub fn config(&self) -> &TieringConfig {
        &self.config
    }

    /// Considers promoting `[start, start + pages)` of inode `ino` on a
    /// prediction with the given confidence. Returns the clamped,
    /// frontier-trimmed range to dispatch, or `None` when the candidate
    /// is not worth a job (low confidence, already requested, or below
    /// the minimum size).
    pub fn plan(&self, ino: u64, start: u64, pages: u64, confidence: f64) -> Option<(u64, u64)> {
        if confidence < self.config.promote_confidence || pages == 0 {
            return None;
        }
        let end = start.saturating_add(pages);
        let mut frontiers = self.frontiers.lock();
        let frontier = frontiers.entry(ino).or_insert(0);
        let from = start.max(*frontier);
        if from >= end {
            return None; // fully behind the frontier: already requested
        }
        let want = (end - from).min(self.config.max_promotion_pages);
        if want < self.config.promote_min_pages {
            return None;
        }
        *frontier = from + want;
        Some((from, want))
    }

    /// Drops the per-file frontier (close/unlink) so a reopened file
    /// plans from scratch.
    pub fn forget(&self, ino: u64) {
        self.frontiers.lock().remove(&ino);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_confidence_never_plans() {
        let planner = TierPlanner::new(TieringConfig::new());
        assert_eq!(planner.plan(1, 0, 256, 0.5), None);
        // The rejected candidate must not have advanced the frontier.
        assert_eq!(planner.plan(1, 0, 256, 0.9), Some((0, 256)));
    }

    #[test]
    fn frontier_trims_and_dedups() {
        let planner = TierPlanner::new(TieringConfig::new());
        assert_eq!(planner.plan(7, 0, 128, 1.0), Some((0, 128)));
        // Same range again: fully behind the frontier.
        assert_eq!(planner.plan(7, 0, 128, 1.0), None);
        // Straddling range: trimmed to the new part.
        assert_eq!(planner.plan(7, 64, 128, 1.0), Some((128, 64)));
        // Another file plans independently.
        assert_eq!(planner.plan(8, 0, 64, 1.0), Some((0, 64)));
    }

    #[test]
    fn clamps_to_max_and_rejects_tiny() {
        let mut config = TieringConfig::new();
        config.max_promotion_pages = 100;
        config.promote_min_pages = 10;
        let planner = TierPlanner::new(config);
        assert_eq!(planner.plan(1, 0, 5000, 1.0), Some((0, 100)));
        // Leftover above the clamp is re-plannable later.
        assert_eq!(planner.plan(1, 100, 50, 1.0), Some((100, 50)));
        // Below the minimum: dropped without moving the frontier.
        assert_eq!(planner.plan(1, 150, 5, 1.0), None);
        assert_eq!(planner.plan(1, 150, 20, 1.0), Some((150, 20)));
    }

    #[test]
    fn forget_resets_frontier() {
        let planner = TierPlanner::new(TieringConfig::new());
        assert_eq!(planner.plan(3, 0, 64, 1.0), Some((0, 64)));
        planner.forget(3);
        assert_eq!(planner.plan(3, 0, 64, 1.0), Some((0, 64)));
    }
}
