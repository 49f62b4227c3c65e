//! Prediction-engine comparison: strided vs correlation vs adaptive
//! across the Table-2 mechanisms.
//!
//! The random-dominant workload is [`workloads::kvprobe`] — a zipfian
//! YCSB-C-style index-then-record probe stream over a dataset larger than
//! memory, the access shape the §4.6 strided counter cannot learn and a
//! MITHRIL-style correlation miner can. Each engine × mechanism cell runs
//! the same seeded stream, drops the cache to close the prefetch-quality
//! books (every initiated page settles as timely, late, or wasted), and
//! reports the prefetch-hit ratio `(timely + late) / initiated` next to
//! the wasted-page count. A sequential 16 KiB-read row checks that the
//! adaptive selector does not tax streaming scans. With
//! `CP_BENCH_TELEMETRY_DIR` set, each cell writes a
//! `BENCH_engine_<engine>_<mechanism>.json` telemetry sidecar.
//!
//! Acceptance gate (on `CrossP[+predict]`, where the engine selection is
//! live): `Correlation` and `Adaptive` must achieve a strictly higher
//! prefetch-hit ratio than `Strided` at no more than 1.25x its
//! wasted-page count, and `Adaptive` must finish the sequential
//! microbench within 2% of `Strided`'s virtual elapsed time. The harness
//! exits nonzero otherwise.

use std::sync::Arc;

use cp_bench::{banner, boot, scale, telemetry_sidecar, TablePrinter};
use crossprefetch::{EngineKind, Mode, Runtime, RuntimeConfig, RuntimeReport};
use simclock::NS_PER_MS;
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig};

struct Cell {
    pages_initiated: u64,
    timely: u64,
    late: u64,
    wasted: u64,
    hit_ratio: f64,
    elapsed_ms: f64,
}

/// One engine × mechanism cell on the zipfian probe stream. 8 MB of
/// memory against an 18 MiB dataset keeps the OS evicting, so planned
/// prefetches actually issue and waste is a real cost.
fn run_kv(mode: Mode, engine: EngineKind) -> Cell {
    let os = boot(8);
    let mut config = RuntimeConfig::new(mode);
    config.engine = engine;
    let rt = Runtime::new(Arc::clone(&os), config);
    let cfg = KvProbeConfig {
        probes: 4096 * scale(),
        ..KvProbeConfig::default()
    };
    setup_kvprobe(&rt, &cfg, "/bench/kv.db");
    let mut clock = rt.new_clock();
    let result = run_kvprobe(&rt, &mut clock, &cfg, "/bench/kv.db");
    // Close the quality books: still-speculative pages settle as wasted.
    os.drop_caches(&mut clock);
    let report = RuntimeReport::collect(&rt);
    let q = report.prefetch_quality;
    let useful = q.timely + q.late;
    let cell = Cell {
        pages_initiated: report.pages_initiated,
        timely: q.timely,
        late: q.late,
        wasted: q.wasted,
        // Quality counters also track the OS heuristic readahead, so the
        // ratio is only meaningful when the runtime initiated prefetches.
        hit_ratio: if report.pages_initiated > 0 {
            useful as f64 / report.pages_initiated as f64
        } else {
            0.0
        },
        elapsed_ms: result.elapsed_ns as f64 / NS_PER_MS as f64,
    };
    telemetry_sidecar(&format!("engine_{}_{}", engine.name(), mode.label()), &rt);
    cell
}

/// Sequential 16 KiB reads: the stream the strided counter owns. Used to
/// check the adaptive selector's overhead on the pattern it should lose.
fn run_seq(engine: EngineKind) -> f64 {
    let os = boot(64);
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.engine = engine;
    let rt = Runtime::new(Arc::clone(&os), config);
    let mut clock = rt.new_clock();
    let file = rt
        .create_sized(&mut clock, "/bench/seq.bin", 96 << 20)
        .expect("create");
    let chunk = 16 * 1024u64;
    let start = clock.now();
    for i in 0..(1536 * scale()) {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    let elapsed_ms = (clock.now() - start) as f64 / NS_PER_MS as f64;
    telemetry_sidecar(&format!("engine_{}_seq", engine.name()), &rt);
    elapsed_ms
}

fn main() {
    banner(
        "engine_compare",
        "prediction engines (strided/correlation/adaptive) on a zipfian KV probe stream",
        "random-dominant workloads defeat the strided counter; association mining recovers the misses",
    );
    let mechanisms = [
        Mode::AppOnly,
        Mode::OsOnly,
        Mode::Predict,
        Mode::PredictOpt,
        Mode::FetchAllOpt,
        Mode::FincoreApp,
    ];
    let mut table = TablePrinter::new([
        "mechanism",
        "engine",
        "initiated",
        "timely",
        "late",
        "wasted",
        "prefetch-hit%",
        "ms",
    ]);
    let mut gate: Vec<(EngineKind, Cell)> = Vec::new();
    for mode in mechanisms {
        for engine in EngineKind::all() {
            let cell = run_kv(mode, engine);
            table.row([
                mode.label().to_string(),
                engine.name().to_string(),
                format!("{}", cell.pages_initiated),
                format!("{}", cell.timely),
                format!("{}", cell.late),
                format!("{}", cell.wasted),
                if cell.pages_initiated > 0 {
                    format!("{:.1}", cell.hit_ratio * 100.0)
                } else {
                    "-".to_string()
                },
                format!("{:.2}", cell.elapsed_ms),
            ]);
            if mode == Mode::Predict {
                gate.push((engine, cell));
            }
        }
    }
    table.print();

    let seq_strided = run_seq(EngineKind::Strided);
    let seq_adaptive = run_seq(EngineKind::Adaptive);
    println!(
        "\nsequential 16 KiB reads: strided {seq_strided:.2} ms, adaptive {seq_adaptive:.2} ms"
    );

    let mut gate_ok = true;
    let strided = &gate
        .iter()
        .find(|(e, _)| *e == EngineKind::Strided)
        .expect("strided cell")
        .1;
    for (engine, cell) in gate.iter().filter(|(e, _)| *e != EngineKind::Strided) {
        let hits_ok = cell.hit_ratio > strided.hit_ratio;
        let waste_ok = cell.wasted as f64 <= strided.wasted as f64 * 1.25;
        if !(hits_ok && waste_ok) {
            gate_ok = false;
            eprintln!(
                "ACCEPTANCE FAIL ({}): prefetch-hit {:.3} vs strided {:.3}, wasted {} vs {} (cap {:.0})",
                engine.name(),
                cell.hit_ratio,
                strided.hit_ratio,
                cell.wasted,
                strided.wasted,
                strided.wasted as f64 * 1.25,
            );
        }
    }
    let seq_drift = (seq_adaptive - seq_strided).abs() / seq_strided.max(f64::MIN_POSITIVE);
    if seq_drift > 0.02 {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (adaptive/seq): {seq_adaptive:.2} ms vs strided {seq_strided:.2} ms ({:.1}% drift > 2%)",
            seq_drift * 100.0
        );
    }
    if !gate_ok {
        std::process::exit(1);
    }
    println!(
        "acceptance: correlation & adaptive beat strided's prefetch-hit ratio at <=1.25x waste; \
         adaptive within 2% on sequential — ok"
    );
}
