//! Contended-read gate for the B+ range index's optimistic lock coupling.
//!
//! Eight host threads share one cache view under `LockScope::PerNode`.
//! Each barrier-synchronised round, one thread marks a fresh region with a
//! clock at virtual zero — its exclusive hold spans `[0, hold)` — and then
//! all eight threads query that region with fresh clocks, also at virtual
//! zero (the open-loop arrival pattern: a long-running thread's clock
//! drifts away from its peers and would dilute the collision this test
//! exists to measure). Every query therefore meets a writer in service,
//! and the optimistic descent must re-descend for a bounded penalty
//! rather than queue behind it: retries are observed, and the total
//! reader wait stays within `retries × range_index_retry_ns`. The rounds'
//! lone writers never collide, so the index's lock wait is reader wait
//! only.
//!
//! A full-runtime 8-thread shared-file run is exported as the
//! `BENCH_tree_bplus.json` sidecar wherever `CP_BENCH_TELEMETRY_DIR`
//! points, plus `CARGO_TARGET_TMPDIR` so the test can verify the export.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread;

use cp_bench::{telemetry_sidecar, write_sidecar};
use crossprefetch::range_index::NODE_PAGES;
use crossprefetch::{BPlusRangeIndex, LockScope, Mode, Runtime, RuntimeReport};
use simclock::{CostModel, GlobalClock, ThreadClock};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

const THREADS: usize = 8;
const ROUNDS: usize = 32;

/// Runs the write-then-read rounds and returns `(total lock wait,
/// optimistic retries)`.
fn stress_index() -> (u64, u64) {
    let index = Arc::new(BPlusRangeIndex::new());
    let global = Arc::new(GlobalClock::new());
    let barrier = Arc::new(Barrier::new(THREADS));
    thread::scope(|s| {
        for t in 0..THREADS {
            let index = Arc::clone(&index);
            let global = Arc::clone(&global);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let costs = CostModel::default();
                for r in 0..ROUNDS {
                    let base = r as u64 * NODE_PAGES;
                    let region = (base, base + NODE_PAGES);
                    if r % THREADS == t {
                        let mut clock = ThreadClock::new(Arc::clone(&global));
                        index.mark_cached(
                            &mut clock,
                            &costs,
                            LockScope::PerNode,
                            region.0,
                            region.1,
                        );
                    }
                    barrier.wait();
                    let mut clock = ThreadClock::new(Arc::clone(&global));
                    index.missing_in(&mut clock, &costs, LockScope::PerNode, region.0, region.1);
                }
            });
        }
    });
    (index.lock_wait_ns(), index.stats().optimistic_retries)
}

/// An 8-thread shared-file workload through the full runtime read path.
fn runtime_stress() -> Runtime {
    let os = Os::new(
        OsConfig::with_memory_mb(256),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let rt = Runtime::with_mode(os, Mode::Predict);
    let path = "/bplus/shared.bin";
    let mut clock = rt.new_clock();
    rt.create_sized(&mut clock, path, 32 << 20).unwrap();
    thread::scope(|s| {
        for _ in 0..THREADS {
            let rt = rt.clone();
            s.spawn(move || {
                let mut clock = rt.new_clock();
                let file = rt.open(&mut clock, path).unwrap();
                for i in 0..512u64 {
                    let off = (i * 16 * 1024) % (31 << 20);
                    file.read_charge(&mut clock, off & !4095, 16 * 1024);
                }
            });
        }
    });
    rt
}

#[test]
fn contended_reads_favor_optimistic_coupling() {
    let costs = CostModel::default();
    let (wait, retries) = stress_index();
    assert!(retries > 0, "readers never met a writer in service");
    assert!(wait > 0, "retries must be charged a penalty");
    assert!(
        wait <= retries * costs.range_index_retry_ns,
        "optimistic readers waited {wait} ns over {retries} retries: \
         more than the {} ns retry penalty each",
        costs.range_index_retry_ns
    );

    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let rt = runtime_stress();
    let report = RuntimeReport::collect(&rt);
    assert!(report.range_index_leaves > 0);
    telemetry_sidecar("tree_bplus", &rt);
    write_sidecar(tmp, "tree_bplus", &rt);
    let json = std::fs::read_to_string(tmp.join("BENCH_tree_bplus.json")).unwrap();
    assert!(json.contains("\"range_index\":{"));
    assert!(json.contains("\"optimistic_retries\""));
}
