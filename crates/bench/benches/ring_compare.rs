//! Completion-driven ring (`ring_submit`) off vs on for the demand path
//! on the zipfian kvprobe. With the ring on, fully-cached reads absorb
//! through the shared CROSS-OS bitmap without a syscall crossing and
//! confident predictions pre-issue the next demand read; misses still
//! cross as plain `read` calls, so demand-read crossings collapse while
//! the per-read hit classification stays put. With
//! `CP_BENCH_TELEMETRY_DIR` set, each cell writes a
//! `BENCH_ring_kvprobe_{on,off}.json` telemetry sidecar.
//!
//! Acceptance gates (the harness exits nonzero otherwise):
//! * the ring must at least halve demand-read crossings while
//!   classifying the same number of reads with per-bucket drift under 1%
//!   (speculative pre-issue may convert a handful of demand misses into
//!   hits — never the other way);
//! * end to end, the ring-on run's virtual elapsed time must be strictly
//!   below the ring-off run's — fewer crossings alone do not count.

use std::sync::Arc;

use cp_bench::{banner, boot, telemetry_sidecar, TablePrinter};
use crossprefetch::{Mode, Runtime, RuntimeConfig, RuntimeReport};
use simclock::NS_PER_MS;
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig};

struct RingCell {
    /// Demand-read crossings (`read` syscalls, speculative pre-issues
    /// included).
    demand_crossings: u64,
    reads: u64,
    hit_ratio: f64,
    cache_hits: u64,
    prefetch_hits: u64,
    demand_misses: u64,
    absorbed: u64,
    spec_issued: u64,
    spec_absorbed: u64,
    spec_cancelled: u64,
    elapsed_ms: f64,
}

/// One ring on/off cell on the zipfian kvprobe. 8 MB of memory against
/// an 18 MiB dataset keeps the OS evicting, so demand misses and planned
/// prefetches both stay live and the ring has real work to absorb.
fn run(ring: bool) -> RingCell {
    let os = boot(8);
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = ring;
    let rt = Runtime::new(Arc::clone(&os), config);
    let cfg = KvProbeConfig {
        probes: 4096,
        ..KvProbeConfig::default()
    };
    setup_kvprobe(&rt, &cfg, "/bench/kv.db");
    let mut clock = rt.new_clock();
    let result = run_kvprobe(&rt, &mut clock, &cfg, "/bench/kv.db");
    let report = RuntimeReport::collect(&rt);
    let stats = rt.os().stats();
    let cell = RingCell {
        demand_crossings: stats.reads.get(),
        reads: report.reads,
        hit_ratio: report.hit_ratio,
        cache_hits: report.read_cache_hit.count,
        prefetch_hits: report.read_prefetch_hit.count,
        demand_misses: report.read_demand_miss.count,
        absorbed: stats.absorbed_reads.get(),
        spec_issued: report.ring_spec_issued,
        spec_absorbed: report.ring_spec_absorbed,
        spec_cancelled: report.ring_spec_cancelled,
        elapsed_ms: result.elapsed_ns as f64 / NS_PER_MS as f64,
    };
    telemetry_sidecar(
        &format!("ring_kvprobe_{}", if ring { "on" } else { "off" }),
        &rt,
    );
    cell
}

fn main() {
    banner(
        "ring_compare",
        "completion-driven ring off vs on, zipfian kvprobe demand path",
        "absorbing cached reads and pre-issuing confident ones cuts demand crossings and end-to-end time at equal read classification",
    );
    let mut gate_ok = true;
    let (ring_off, ring_on) = (run(false), run(true));
    let mut ring_table = TablePrinter::new([
        "ring",
        "demand xings",
        "reads",
        "hit%",
        "cache/pf/miss",
        "absorbed",
        "spec iss/abs/can",
        "ms",
    ]);
    for (label, cell) in [("off", &ring_off), ("on", &ring_on)] {
        ring_table.row([
            label.to_string(),
            format!("{}", cell.demand_crossings),
            format!("{}", cell.reads),
            format!("{:.1}", cell.hit_ratio * 100.0),
            format!(
                "{}/{}/{}",
                cell.cache_hits, cell.prefetch_hits, cell.demand_misses
            ),
            format!("{}", cell.absorbed),
            format!(
                "{}/{}/{}",
                cell.spec_issued, cell.spec_absorbed, cell.spec_cancelled
            ),
            format!("{:.2}", cell.elapsed_ms),
        ]);
    }
    ring_table.print();

    // Gate: >=2x fewer demand crossings; same number of classified reads;
    // per-bucket drift under 1%; hit ratio never worse.
    let buckets_ok = |off: u64, on: u64| off.abs_diff(on) * 100 <= off.max(1);
    let ring_gate = ring_on.demand_crossings * 2 <= ring_off.demand_crossings
        && ring_on.reads == ring_off.reads
        && buckets_ok(ring_off.cache_hits, ring_on.cache_hits)
        && buckets_ok(ring_off.prefetch_hits, ring_on.prefetch_hits)
        && buckets_ok(ring_off.demand_misses, ring_on.demand_misses)
        && ring_on.demand_misses <= ring_off.demand_misses
        && ring_on.hit_ratio >= ring_off.hit_ratio - 0.01;
    if !ring_gate {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (ring/kvprobe): demand {}->{}, reads {}->{}, \
             buckets {}/{}/{} -> {}/{}/{}, hit {:.3}->{:.3}",
            ring_off.demand_crossings,
            ring_on.demand_crossings,
            ring_off.reads,
            ring_on.reads,
            ring_off.cache_hits,
            ring_off.prefetch_hits,
            ring_off.demand_misses,
            ring_on.cache_hits,
            ring_on.prefetch_hits,
            ring_on.demand_misses,
            ring_off.hit_ratio,
            ring_on.hit_ratio,
        );
    }

    // End to end: the caller must actually get faster.
    if ring_on.elapsed_ms >= ring_off.elapsed_ms {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (ring/kvprobe end to end): {:.2} ms on vs {:.2} ms off",
            ring_on.elapsed_ms, ring_off.elapsed_ms,
        );
    }

    if !gate_ok {
        std::process::exit(1);
    }
    println!("\nacceptance: kvprobe ring >=2x fewer demand crossings at hit parity — ok");
    println!("acceptance: kvprobe ring strictly faster end to end (virtual) — ok");
}
