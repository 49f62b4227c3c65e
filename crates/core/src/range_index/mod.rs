//! Per-file range index for CROSS-LIB's cache-state view (§4.5).
//!
//! The paper's range tree — per-range locks with embedded presence bitmaps
//! so non-conflicting readers of one shared file never serialize — is
//! [`BPlusRangeIndex`]: an arena-allocated B+ tree whose leaves are
//! dynamically split and merged, with optimistic lock coupling for
//! readers. Virtual time is charged in per-[`NODE_PAGES`]-region quanta
//! under the caller's [`LockScope`].

pub mod bitmap;
mod bplus;

pub use bplus::BPlusRangeIndex;

/// Pages per charge region (and maximum leaf span): 1024 pages = 4 MiB.
pub const NODE_PAGES: u64 = 1024;

/// Contention regime for a range-index operation.
///
/// * **per-node** (`range_tree` feature on): virtual-time lock charges go
///   to the touched leaves' contention models — non-overlapping ranges
///   scale;
/// * **whole-file** (`range_tree` off; the Table 5 `+cache visibility`-only
///   configuration and `[+fetchall+opt]`): all charges go to one per-file
///   resource, reproducing the single-bitmap-lock bottleneck of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockScope {
    /// Charge per-leaf locks (scalable path).
    PerNode,
    /// Charge the single whole-file lock (baseline path).
    WholeFile,
}

/// Structural statistics of one file's range index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Levels from root to leaves (0 = empty, 1 = a lone leaf root).
    pub depth: u64,
    /// Live leaves.
    pub leaves: u64,
    /// Leaf or inner-node splits performed.
    pub splits: u64,
    /// Leaf absorptions / inner-node merges performed.
    pub merges: u64,
    /// Optimistic read descents that failed validation and retried.
    pub optimistic_retries: u64,
}

impl IndexStats {
    /// Folds another file's stats into a fleet-wide aggregate: depth takes
    /// the maximum, everything else sums.
    pub fn absorb(&mut self, other: &IndexStats) {
        self.depth = self.depth.max(other.depth);
        self.leaves += other.leaves;
        self.splits += other.splits;
        self.merges += other.merges;
        self.optimistic_retries += other.optimistic_retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut total = IndexStats {
            depth: 2,
            leaves: 3,
            splits: 1,
            merges: 0,
            optimistic_retries: 5,
        };
        total.absorb(&IndexStats {
            depth: 4,
            leaves: 7,
            splits: 2,
            merges: 3,
            optimistic_retries: 1,
        });
        assert_eq!(
            total,
            IndexStats {
                depth: 4,
                leaves: 10,
                splits: 3,
                merges: 3,
                optimistic_retries: 6,
            }
        );
    }
}
