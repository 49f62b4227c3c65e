//! Flat-vs-B+ range-index comparison: the A/B gate behind the swap.
//!
//! Two halves, mirroring the two promises the B+ index makes:
//!
//! * **Single-threaded determinism** — the same seeded workload run per
//!   Table-2 mechanism under each index must export byte-identical
//!   telemetry once the additive `range_index` section (the only place
//!   the implementations may differ) is stripped. Charges are quantised
//!   per [`NODE_PAGES`]-aligned region in both indexes, so this holds to
//!   the byte, not approximately.
//! * **Contended-read scaling** — eight host threads hammering one shared
//!   cache view under `LockScope::PerNode` must accumulate less
//!   user-level tree lock wait with optimistic lock coupling (bounded
//!   retry penalty) than with the flat tree's blocking reader queue.
//!
//! The contended half drives the index layer directly with
//! barrier-synchronised rounds and a fresh virtual clock per round (the
//! open-loop arrival pattern: every thread reaches the round's region at
//! virtual time zero, so their charge windows genuinely overlap — a
//! long-running runtime thread's clock drifts microseconds away from its
//! peers and would dilute the collision this test exists to measure).
//! Wall-clock interleavings are still noisy, so it scales the workload up
//! until the flat baseline shows unambiguous blocking (≥50 µs of virtual
//! lock wait) before asserting. Telemetry sidecars (`BENCH_tree_*.json`)
//! go wherever `CP_BENCH_TELEMETRY_DIR` points, plus
//! `CARGO_TARGET_TMPDIR` so the test can verify the export itself.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread;

use cp_bench::{telemetry_sidecar, write_sidecar};
use crossprefetch::range_index::NODE_PAGES;
use crossprefetch::{
    FileRangeIndex, LockScope, Mode, RangeIndex, RangeIndexKind, Runtime, RuntimeConfig,
    RuntimeReport,
};
use simclock::{CostModel, GlobalClock, ThreadClock};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

fn boot() -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(64),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

/// The schema-compat workload: sequential ramp, warm re-reads, seeded
/// random jumps. Single-threaded, so the telemetry export is a pure
/// function of `(mode, kind)`.
fn run_mode(mode: Mode, kind: RangeIndexKind) -> Runtime {
    let mut config = RuntimeConfig::new(mode);
    config.range_index = kind;
    let runtime = Runtime::new(boot(), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/compare.bin", 16 << 20)
        .expect("fresh namespace");
    let chunk = 16 * 1024u64;
    for i in 0..256u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    for i in 0..64u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        file.read_charge(&mut clock, (state % (15 << 20)) & !4095, chunk);
    }
    runtime
}

/// Removes a `"name":{...},`-shaped top-level section from a report JSON
/// string (brace-counted; report sections contain no string-embedded
/// braces).
fn strip_section(json: &str, name: &str) -> String {
    let key = format!("\"{name}\":{{");
    let Some(start) = json.find(&key) else {
        return json.to_string();
    };
    let bytes = json.as_bytes();
    let mut depth = 0usize;
    let mut i = start + key.len() - 1;
    let end = loop {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    break i;
                }
            }
            _ => {}
        }
        i += 1;
    };
    let mut tail = end + 1;
    if bytes.get(tail) == Some(&b',') {
        tail += 1;
    }
    format!("{}{}", &json[..start], &json[tail..])
}

#[test]
fn single_threaded_telemetry_is_index_agnostic() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for mode in [
        Mode::AppOnly,
        Mode::OsOnly,
        Mode::Predict,
        Mode::PredictOpt,
        Mode::FetchAllOpt,
        Mode::FincoreApp,
    ] {
        let flat = run_mode(mode, RangeIndexKind::Flat);
        let bplus = run_mode(mode, RangeIndexKind::BPlus);
        let flat_json = RuntimeReport::collect(&flat).to_json();
        let bplus_json = RuntimeReport::collect(&bplus).to_json();
        // The only divergence the swap is allowed to introduce is the
        // additive structural section describing the index itself.
        assert!(flat_json.contains("\"range_index\":{\"kind\":\"flat\""));
        assert!(bplus_json.contains("\"range_index\":{\"kind\":\"bplus\""));
        assert_eq!(
            strip_section(&flat_json, "range_index"),
            strip_section(&bplus_json, "range_index"),
            "mode {}: flat and B+ telemetry diverge outside range_index",
            mode.label()
        );
        let id = format!("tree_parity_{}", mode.label());
        telemetry_sidecar(&format!("{id}_flat"), &flat);
        telemetry_sidecar(&format!("{id}_bplus"), &bplus);
        write_sidecar(tmp, &format!("{id}_flat"), &flat);
        write_sidecar(tmp, &format!("{id}_bplus"), &bplus);
    }
}

/// Eight threads colliding on one shared cache view, barrier-synchronised
/// per round. Each round every thread starts a fresh clock at virtual
/// zero, marks the round's (previously untouched) region, then queries it
/// — so writer holds overlap reader arrivals on the same leaf/node and
/// the two contention disciplines actually face the same collisions.
/// Returns `(total lock wait, optimistic retries)`.
fn stress_index(kind: RangeIndexKind, rounds: usize) -> (u64, u64) {
    let index = Arc::new(FileRangeIndex::new(kind));
    let global = Arc::new(GlobalClock::new());
    let barrier = Arc::new(Barrier::new(8));
    thread::scope(|s| {
        for _ in 0..8 {
            let index = Arc::clone(&index);
            let global = Arc::clone(&global);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let costs = CostModel::default();
                for r in 0..rounds {
                    barrier.wait();
                    let mut clock = ThreadClock::new(Arc::clone(&global));
                    let base = r as u64 * NODE_PAGES;
                    index.mark_cached(
                        &mut clock,
                        &costs,
                        LockScope::PerNode,
                        base,
                        base + NODE_PAGES,
                    );
                    index.missing_in(
                        &mut clock,
                        &costs,
                        LockScope::PerNode,
                        base,
                        base + NODE_PAGES,
                    );
                }
            });
        }
    });
    (index.lock_wait_ns(), index.index_stats().optimistic_retries)
}

/// An 8-thread shared-file workload through the full runtime read path,
/// exported as the stress sidecar for the given index kind.
fn runtime_stress(kind: RangeIndexKind, tag: &str) -> Runtime {
    let os = Os::new(
        OsConfig::with_memory_mb(256),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.range_index = kind;
    let rt = Runtime::new(os, config);
    let path = format!("/{tag}/shared.bin");
    let mut clock = rt.new_clock();
    rt.create_sized(&mut clock, &path, 32 << 20).unwrap();
    thread::scope(|s| {
        for _ in 0..8 {
            let rt = rt.clone();
            let path = path.clone();
            s.spawn(move || {
                let mut clock = rt.new_clock();
                let file = rt.open(&mut clock, &path).unwrap();
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
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    // Scale until the flat baseline shows real blocking so the comparison
    // is not a coin flip on scheduler noise.
    let mut rounds = 16;
    let mut last = (0u64, 0u64, 0u64);
    for _attempt in 0..6 {
        let (flat_wait, _) = stress_index(RangeIndexKind::Flat, rounds);
        let (bplus_wait, retries) = stress_index(RangeIndexKind::BPlus, rounds);
        last = (flat_wait, bplus_wait, retries);
        if flat_wait >= 50_000 && bplus_wait < flat_wait && retries > 0 {
            // Export the runtime-level stress sidecars for this A/B so CI
            // archives the full telemetry (including the new structural
            // section) alongside the gate.
            let flat_rt = runtime_stress(RangeIndexKind::Flat, "flat");
            let bplus_rt = runtime_stress(RangeIndexKind::BPlus, "bplus");
            let report = RuntimeReport::collect(&bplus_rt);
            assert_eq!(report.range_index_kind, "bplus");
            assert!(report.range_index_leaves > 0);
            telemetry_sidecar("tree_flat", &flat_rt);
            telemetry_sidecar("tree_bplus", &bplus_rt);
            write_sidecar(tmp, "tree_flat", &flat_rt);
            write_sidecar(tmp, "tree_bplus", &bplus_rt);
            let json = std::fs::read_to_string(tmp.join("BENCH_tree_bplus.json")).unwrap();
            assert!(json.contains("\"range_index\":{\"kind\":\"bplus\""));
            assert!(json.contains("\"optimistic_retries\""));
            return;
        }
        rounds *= 2;
    }
    panic!(
        "optimistic coupling never separated from the flat baseline: \
         flat wait {} ns, B+ wait {} ns, {} retries",
        last.0, last.1, last.2
    );
}
