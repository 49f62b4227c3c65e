//! Tiered placement: cross-tier promotion of predicted-hot ranges, plus
//! the write-back coalescing half of the RW story.
//!
//! **Placement runs.** A two-tier store (local NVMe in front of the
//! paper's RDMA NVMe-oF remote model) whose local tier is smaller than
//! the dataset, so placement genuinely has to choose. Both runs execute
//! the identical workload — a sequential warm scan (the predictable
//! stream the [`crossprefetch::TierPlanner`] feeds on) followed by a
//! zipfian kvprobe pass, then a measured phase of record probes issued as
//! one 32 KiB read each — and differ only in `RuntimeConfig::tiering`:
//!
//! * **promote** — CrossP\[+predict\] with the tier planner on: the warm
//!   scan's high-confidence predictions promote hot ranges local (the
//!   tail past local capacity demotes cold blocks or stays remote);
//! * **no-promote** — same mechanism, `tiering: None`: every block stays
//!   remote forever.
//!
//! Acceptance gate, over the measured phase's interval delta: both runs
//! must classify the same total number of reads (same workload, same
//! shim), and the promote run must strictly beat the no-promote run on
//! p99 demand-read (miss) latency — hot reads are served by the local
//! tier while the no-promote run pays the network round trip on every
//! miss.
//!
//! **Mixed RW runs.** Same zipfian probe stream with interleaved strided
//! writes on a single-device OS, deferred CAWL-style write-back vs
//! `write_through`. Gate: deferral + adjacent-run coalescing strictly
//! reduces device write crossings without regressing read p99. The
//! harness exits nonzero if any gate fails. With
//! `CP_BENCH_TELEMETRY_DIR` set, each run writes a `BENCH_tier_<run>.json`
//! telemetry sidecar.

use cp_bench::{banner, boot_tiered, scale, telemetry_sidecar, TablePrinter};
use crossprefetch::{
    Mode, Runtime, RuntimeConfig, RuntimeReport, TieringConfig, WritebackConfig, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simclock::NS_PER_US;
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig, Zipfian};

const PATH: &str = "/bench/tier.kv";
/// Local-tier capacity in 4 KiB blocks: 8 MiB against the 9 MiB dataset,
/// so ~11% of the blocks cannot fit locally no matter what.
const LOCAL_CAPACITY_BLOCKS: u64 = 2048;
const MEMORY_MB: u64 = 4;

fn probe_config() -> KvProbeConfig {
    KvProbeConfig {
        keys: 256,
        record_pages: 8,
        probes: 2048 * scale(),
        theta: 0.99,
        seed: 42,
    }
}

/// SplitMix64 finalizer — mirrors the kvprobe slot hash so the measured
/// phase probes the same hashed record slots the warm pass touched.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn record_offset(cfg: &KvProbeConfig, key: u64) -> u64 {
    let slot = splitmix64(key ^ cfg.seed.rotate_left(17)) % cfg.keys;
    (cfg.keys + slot * cfg.record_pages) * PAGE_SIZE
}

/// The measured probe phase: zipfian keys, one single-page index read
/// plus one whole-record 32 KiB read per probe. The record read is big
/// enough that a local-tier miss and a remote-tier miss land in
/// different log2 latency buckets, so the p99 comparison below sees the
/// placement difference.
fn measured_probes(runtime: &Runtime, clock: &mut simclock::ThreadClock, cfg: &KvProbeConfig) {
    let file = runtime.open(clock, PATH).expect("dataset exists");
    let zipf = Zipfian::new(cfg.keys, cfg.theta);
    let mut rng = StdRng::seed_from_u64(cfg.seed + 1);
    for _ in 0..(4096 * scale()) {
        let key = zipf.sample(&mut rng);
        file.read_charge(clock, key * PAGE_SIZE, PAGE_SIZE);
        file.read_charge(clock, record_offset(cfg, key), cfg.record_pages * PAGE_SIZE);
    }
}

/// One placement run; returns the runtime plus the measured-phase delta.
fn placement_run(promote: bool) -> (Runtime, RuntimeReport) {
    let cfg = probe_config();
    let os = boot_tiered(MEMORY_MB, LOCAL_CAPACITY_BLOCKS);
    let mut rt_config = RuntimeConfig::new(Mode::Predict);
    if promote {
        rt_config.tiering = Some(TieringConfig::new());
    }
    let runtime = Runtime::new(os, rt_config);
    setup_kvprobe(&runtime, &cfg, PATH);
    let mut clock = runtime.new_clock();

    // Warm phase, identical in both runs: one sequential scan (the
    // stream the planner promotes from) and one page-granular kvprobe
    // pass. Promotion happens here when enabled.
    let file = runtime.open(&mut clock, PATH).expect("dataset exists");
    let pages = cfg.dataset_bytes() / PAGE_SIZE;
    for p in 0..pages {
        file.read_charge(&mut clock, p * PAGE_SIZE, PAGE_SIZE);
    }
    drop(file);
    run_kvprobe(&runtime, &mut clock, &cfg, PATH);

    let warm = RuntimeReport::collect(&runtime);
    measured_probes(&runtime, &mut clock, &cfg);
    let delta = RuntimeReport::collect(&runtime).delta(&warm);
    (runtime, delta)
}

/// One mixed-RW run on a single local device; returns (runtime, device
/// write crossings, measured read-miss p99 ns, coalesced runs).
fn rw_run(write_through: bool) -> (Runtime, u64, u64, u64) {
    let cfg = probe_config();
    let os = {
        let mut os_config = simos::OsConfig::with_memory_mb(8);
        os_config.writeback = Some(WritebackConfig {
            write_through,
            ..WritebackConfig::default()
        });
        simos::Os::new(
            os_config,
            simos::Device::new(simos::DeviceConfig::local_nvme()),
            simos::FileSystem::new(simos::FsKind::Ext4Like),
        )
    };
    let runtime = Runtime::new(os, RuntimeConfig::new(Mode::Predict));
    setup_kvprobe(&runtime, &cfg, PATH);
    let mut clock = runtime.new_clock();
    let file = runtime.open(&mut clock, PATH).expect("dataset exists");
    let zipf = Zipfian::new(cfg.keys, cfg.theta);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let file_pages = cfg.dataset_bytes() / PAGE_SIZE;
    for i in 0..(4096 * scale()) {
        let key = zipf.sample(&mut rng);
        file.read_charge(
            &mut clock,
            record_offset(&cfg, key),
            cfg.record_pages * PAGE_SIZE,
        );
        // Strided dirty runs: 4 dirty pages, 4-page gap — distinct write
        // calls the deferred daemon can coalesce under its 8-page budget.
        if i % 4 == 0 {
            let base = (i * 2) % (file_pages - 4);
            file.write_charge(&mut clock, base * PAGE_SIZE, 4 * PAGE_SIZE);
        }
    }
    file.fsync(&mut clock);
    let report = RuntimeReport::collect(&runtime);
    let crossings = runtime.os().device().stats().write_requests.get();
    let p99 = report.read_demand_miss.p99();
    let coalesced = report.wb_runs_coalesced;
    (runtime, crossings, p99, coalesced)
}

fn classified_reads(delta: &RuntimeReport) -> u64 {
    delta.read_cache_hit.count + delta.read_prefetch_hit.count + delta.read_demand_miss.count
}

fn main() {
    banner(
        "tier_compare",
        "cross-tier promotion placement + write-back coalescing",
        "predicted-hot ranges served from the local tier; deferred dirty runs merge",
    );

    let (rt_promote, d_promote) = placement_run(true);
    let (rt_nopromote, d_nopromote) = placement_run(false);
    telemetry_sidecar("tier_promote", &rt_promote);
    telemetry_sidecar("tier_nopromote", &rt_nopromote);

    let mut table = TablePrinter::new([
        "run",
        "reads",
        "misses",
        "miss p50 us",
        "miss p99 us",
        "local rds",
        "remote rds",
        "promoted blks",
    ]);
    for (name, rt, d) in [
        ("promote", &rt_promote, &d_promote),
        ("no-promote", &rt_nopromote, &d_nopromote),
    ] {
        table.row([
            name.to_string(),
            format!("{}", classified_reads(d)),
            format!("{}", d.read_demand_miss.count),
            format!("{:.1}", d.read_demand_miss.p50() as f64 / NS_PER_US as f64),
            format!("{:.1}", d.read_demand_miss.p99() as f64 / NS_PER_US as f64),
            format!("{}", d.tier_local_reads),
            format!("{}", d.tier_remote_reads),
            format!("{}", RuntimeReport::collect(rt).tier_promoted_blocks),
        ]);
    }
    table.print();

    let mut gate_ok = true;
    let (promote_total, nopromote_total) =
        (classified_reads(&d_promote), classified_reads(&d_nopromote));
    if promote_total != nopromote_total {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (classification totals): \
             promote classified {promote_total} reads vs no-promote {nopromote_total}"
        );
    }
    let (p99_promote, p99_nopromote) = (
        d_promote.read_demand_miss.p99(),
        d_nopromote.read_demand_miss.p99(),
    );
    println!(
        "\nmeasured miss p99: promote {:.1} us vs no-promote {:.1} us \
         (local reads {} vs {})",
        p99_promote as f64 / NS_PER_US as f64,
        p99_nopromote as f64 / NS_PER_US as f64,
        d_promote.tier_local_reads,
        d_nopromote.tier_local_reads,
    );
    if p99_promote >= p99_nopromote {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (p99 demand-read): promote {p99_promote} ns \
             >= no-promote {p99_nopromote} ns"
        );
    }
    if d_promote.tier_local_reads == 0 {
        gate_ok = false;
        eprintln!("ACCEPTANCE FAIL (placement): no measured read was served locally");
    }
    if d_nopromote.tier_local_reads != 0 {
        gate_ok = false;
        eprintln!("ACCEPTANCE FAIL (control): no-promote run touched the local tier");
    }

    let (rt_deferred, w_deferred, p99_deferred, coalesced) = rw_run(false);
    let (rt_through, w_through, p99_through, _) = rw_run(true);
    telemetry_sidecar("tier_rw_deferred", &rt_deferred);
    telemetry_sidecar("tier_rw_through", &rt_through);
    println!(
        "mixed RW: write crossings deferred {w_deferred} vs write-through {w_through} \
         ({coalesced} runs coalesced); read miss p99 {:.1} vs {:.1} us",
        p99_deferred as f64 / NS_PER_US as f64,
        p99_through as f64 / NS_PER_US as f64,
    );
    if w_deferred >= w_through {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (write crossings): deferred {w_deferred} >= \
             write-through {w_through}"
        );
    }
    if coalesced == 0 {
        gate_ok = false;
        eprintln!("ACCEPTANCE FAIL (coalescing): no adjacent dirty runs merged");
    }
    if p99_deferred > p99_through {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (read p99 regression): deferred {p99_deferred} ns > \
             write-through {p99_through} ns"
        );
    }

    if !gate_ok {
        std::process::exit(1);
    }
    println!(
        "acceptance: promotion beats no-promotion on miss p99 at equal read totals; \
         deferred write-back coalesces and costs reads nothing — ok"
    );
}
