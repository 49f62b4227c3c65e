//! The prefetch predictor of the CrossPrefetch runtime.
//!
//! CROSS-LIB predicts with one per-file-descriptor strided counter
//! (§4.6), [`Predictor`]. The runtime holds one per file descriptor and
//! calls [`Predictor::on_access`] from its predict pipeline stage; the
//! [`Prediction`] feeds the paced-frontier planner, and
//! [`Predictor::confidence`] gates the ring's speculation and tier
//! promotion.
//!
//! [`PredictionEngine`], [`PrefetchDecision`], [`Engine`],
//! [`EngineKind`], [`EngineConfig`] and [`Predictor::for_kind`] wrap the
//! same predictor for code that builds and drives it by engine kind
//! (the `perfbench` predict-stage probe); the runtime does not use them.
//!
//! The crate is deliberately free of clock, OS, and I/O types: the
//! predictor is a pure deterministic state machine over page numbers,
//! which keeps it unit-testable and the simulation byte-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strided;

pub use strided::{AccessPattern, Direction, Prediction, Predictor, SEQ_BATCH_PAGES};

/// The per-descriptor prediction engine: the strided counter. With
/// [`EngineKind`], [`EngineConfig`] and [`Predictor::for_kind`] it keeps
/// code that selects an engine by kind building.
pub type Engine = Predictor;

/// Which prediction engine a file descriptor uses. The strided counter
/// is the only one: the correlation and adaptive engines lost to it end
/// to end on their own workload and were removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The §4.6 n-bit saturating-counter strided predictor.
    #[default]
    Strided,
}

/// One observed access, in pages, as seen by the predict stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessObservation {
    /// First page of the access.
    pub page: u64,
    /// Access length in pages (at least 1).
    pub pages: u64,
    /// Whether the runtime currently permits aggressive window growth.
    pub aggressive_ok: bool,
    /// Upper bound on any single prefetch window, in pages.
    pub max_prefetch_pages: u64,
}

/// What the engine wants done after observing one access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchDecision {
    /// The prediction for the paced-frontier planner (window sizing,
    /// direction, jump detection).
    pub prediction: Prediction,
    /// The engine's confidence in this decision, in `[0, 1]`.
    pub confidence: f64,
}

/// A prefetch prediction engine: a deterministic state machine from
/// access streams to prefetch decisions.
pub trait PredictionEngine {
    /// Feeds one access; returns the engine's decision.
    fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision;

    /// Clears stream history (e.g. after an explicit seek).
    fn reset(&mut self);
}

/// Construction-time tuning; the runtime builds one from its
/// `RuntimeConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Strided counter width in bits (1..=5).
    pub predictor_bits: u32,
    /// Sequential-batch window in pages (default [`SEQ_BATCH_PAGES`]).
    pub seq_batch_pages: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            predictor_bits: 3,
            seq_batch_pages: SEQ_BATCH_PAGES,
        }
    }
}

impl Predictor {
    /// Builds the engine selected by `kind` from shared tuning.
    pub fn for_kind(kind: EngineKind, config: &EngineConfig) -> Engine {
        match kind {
            EngineKind::Strided => {
                Predictor::with_batch_window(config.predictor_bits, config.seq_batch_pages)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_mirrors_the_raw_predictor() {
        let mut engine = Engine::for_kind(EngineKind::Strided, &EngineConfig::default());
        let mut raw = Predictor::new(3);
        for i in 0..64u64 {
            let decision = engine.observe(&AccessObservation {
                page: i * 4,
                pages: 4,
                aggressive_ok: false,
                max_prefetch_pages: 16_384,
            });
            let expected = raw.on_access(i * 4, 4, false, 16_384);
            assert_eq!(decision.prediction, expected);
            let confidence = f64::from(raw.counter()) / f64::from(raw.max_count());
            assert_eq!(decision.confidence, confidence);
        }
    }
}
