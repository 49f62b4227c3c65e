//! Multi-tenant arbitration: QoS-weighted prefetch budgets under a
//! saturating mixed fleet.
//!
//! The workload is [`workloads::fleet`] — an open-loop seeded Poisson
//! arrival stream over zipfian tenant popularity. The hot tenants are
//! bronze batch jobs doing hashed-random (prefetch-wasteful) reads; the
//! cold tail is a gold latency-sensitive tenant streaming sequentially.
//! The aggregate dataset is several times the page-cache budget, so
//! tenants genuinely compete for memory and prefetch credit.
//!
//! Three runs on the identical arrival stream:
//!
//! * **arbiter** — tenant arbiter on: QoS-weighted fair-share budgets,
//!   efficiency-scaled by each tenant's timely/late/wasted ledger, with
//!   the pressure admission ladder (full → coalesced-only → blind → deny)
//!   degrading speculative prefetch before demand reads pay;
//! * **no-arbiter** — same stream, `RuntimeConfig::tenants` unset;
//! * **baseline** — arbiter on, [`FleetConfig::only_tenant`] replaying
//!   only the gold tenant's share of the stream: its *unloaded* p99.
//!
//! Acceptance gate: the gold tenant's p99 demand-read latency under the
//! full arbitrated fleet must stay within `CP_FLEET_P99_BOUND` (default
//! 4.0) of its unloaded baseline, and the arbitrated fleet's aggregate
//! prefetch-hit ratio — `(timely + late) / initiated` — must strictly beat
//! the no-arbiter run's. The harness exits nonzero otherwise. With
//! `CP_BENCH_TELEMETRY_DIR` set, each run writes a
//! `BENCH_fleet_<run>.json` telemetry sidecar.

use std::sync::Arc;

use cp_bench::{banner, boot, scale, telemetry_sidecar, TablePrinter};
use crossprefetch::{Mode, QosClass, Runtime, RuntimeConfig, RuntimeReport, TenantsConfig};
use simclock::NS_PER_US;
use workloads::{run_fleet, setup_fleet, FleetConfig, FleetResult, FleetTenantSpec};

const GOLD: usize = 3;

/// Mean inter-arrival gap in virtual µs (`CP_FLEET_IA_US`). The default
/// keeps the mixed fleet saturating — demand + prefetch I/O near the
/// device's capacity — without collapsing into unbounded overload.
fn interarrival_us() -> u64 {
    std::env::var("CP_FLEET_IA_US")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&us| us >= 1)
        .unwrap_or(50)
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        // The bronze batch tenants burst at hashed-random offsets over
        // cold 32 MiB files; the sequential tenants stream one long cold
        // pass over 128 MiB, so their only structural misses are the
        // initial readahead ramp — the same misses the unloaded baseline
        // pays. Anything beyond that is inflicted by the fleet.
        tenants: vec![
            FleetTenantSpec::new("batch-a", QosClass::Bronze, true),
            FleetTenantSpec::new("batch-b", QosClass::Bronze, true),
            FleetTenantSpec::new("standard", QosClass::Silver, false).with_file_bytes(128 << 20),
            FleetTenantSpec::new("gold", QosClass::Gold, false).with_file_bytes(128 << 20),
        ],
        requests: 8192 * scale(),
        mean_interarrival_ns: interarrival_us() * NS_PER_US,
        files_per_tenant: 1,
        file_bytes: 32 << 20,
        read_bytes: 16 * 1024,
        ..FleetConfig::default()
    }
}

fn run(arbiter: bool, only: Option<usize>) -> (FleetResult, Runtime) {
    let cfg = FleetConfig {
        only_tenant: only,
        ..fleet_config()
    };
    // 16 MiB of memory against a ~320 MiB fleet dataset: every tenant's
    // working set is cold, so prefetch credit is the contended resource.
    let os = boot(16);
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    if arbiter {
        config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
    }
    let rt = Runtime::new(Arc::clone(&os), config);
    setup_fleet(&rt, &cfg);
    let mut clock = rt.new_clock();
    let result = run_fleet(&rt, &mut clock, &cfg);
    // Close the quality books: still-speculative pages settle as wasted,
    // so the prefetch-hit ratio below compares fully settled ledgers.
    os.drop_caches(&mut clock);
    (result, rt)
}

/// Aggregate cache hit ratio the workload observed (hit pages / pages).
fn cache_hit_ratio(result: &FleetResult) -> f64 {
    let pages: u64 = result.per_tenant.iter().map(|t| t.pages).sum();
    let hits: u64 = result.per_tenant.iter().map(|t| t.hit_pages).sum();
    if pages == 0 {
        0.0
    } else {
        hits as f64 / pages as f64
    }
}

/// Aggregate prefetch-hit ratio, `(timely + late) / initiated` — the
/// repo's standard prefetch-effectiveness metric: of the pages
/// prefetching initiated, how many a read actually consumed.
fn prefetch_hit_ratio(report: &RuntimeReport) -> f64 {
    let q = &report.prefetch_quality;
    let useful = q.timely + q.late;
    if report.pages_initiated == 0 {
        0.0
    } else {
        useful as f64 / report.pages_initiated as f64
    }
}

fn p99_bound() -> f64 {
    std::env::var("CP_FLEET_P99_BOUND")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&b| b >= 1.0)
        .unwrap_or(4.0)
}

fn main() {
    banner(
        "fleet_compare",
        "QoS-weighted tenant arbitration on a saturating mixed fleet",
        "per-tenant prefetch budgets shield the gold tenant's tail while raising aggregate hits",
    );

    let (arb, rt_arb) = run(true, None);
    let (noarb, rt_noarb) = run(false, None);
    let (base, rt_base) = run(true, Some(GOLD));
    telemetry_sidecar("fleet_arbiter", &rt_arb);
    telemetry_sidecar("fleet_noarbiter", &rt_noarb);
    telemetry_sidecar("fleet_baseline", &rt_base);

    let mut table = TablePrinter::new([
        "tenant",
        "requests",
        "reads",
        "miss-rds",
        "hit%",
        "rd p50 us",
        "rd p99 us",
        "rd p99 (no-arb)",
        "resp p99 us",
    ]);
    for (row, no_row) in arb.per_tenant.iter().zip(noarb.per_tenant.iter()) {
        let hit = if row.pages > 0 {
            row.hit_pages as f64 * 100.0 / row.pages as f64
        } else {
            0.0
        };
        table.row([
            row.name.clone(),
            format!("{}", row.requests),
            format!("{}", row.reads),
            format!("{}", row.miss_reads),
            format!("{hit:.1}"),
            format!("{:.1}", row.p50_read_ns as f64 / NS_PER_US as f64),
            format!("{:.1}", row.p99_read_ns as f64 / NS_PER_US as f64),
            format!("{:.1}", no_row.p99_read_ns as f64 / NS_PER_US as f64),
            format!("{:.1}", row.p99_response_ns as f64 / NS_PER_US as f64),
        ]);
    }
    table.print();

    let report = RuntimeReport::collect(&rt_arb);
    println!(
        "\narbiter: {} rebalances across {} tenants",
        report.tenant_rebalances,
        report.tenants.len()
    );
    for t in &report.tenants {
        println!(
            "  {:<10} budget {:>6} pages  initiated {:>6}  admitted {:>6}  coalesced {:>4}  blind {:>4}  denied {:>4} ({} pages)",
            t.name,
            t.budget_pages,
            t.initiated_pages,
            t.admitted_pages,
            t.degraded_coalesced,
            t.degraded_blind,
            t.denied,
            t.denied_pages,
        );
    }

    let gold_p99 = arb.per_tenant[GOLD].p99_read_ns as f64;
    let gold_base_p99 = base.per_tenant[GOLD].p99_read_ns.max(1) as f64;
    let bound = p99_bound();
    let hit_arb = prefetch_hit_ratio(&report);
    let hit_noarb = prefetch_hit_ratio(&RuntimeReport::collect(&rt_noarb));
    println!(
        "\ngold p99: loaded {:.1} us vs unloaded {:.1} us ({:.2}x, bound {bound:.2}x)",
        gold_p99 / NS_PER_US as f64,
        gold_base_p99 / NS_PER_US as f64,
        gold_p99 / gold_base_p99,
    );
    println!(
        "aggregate prefetch-hit ratio: arbiter {:.3} vs no-arbiter {:.3} \
         (cache hits: {:.3} vs {:.3})",
        hit_arb,
        hit_noarb,
        cache_hit_ratio(&arb),
        cache_hit_ratio(&noarb),
    );

    let mut gate_ok = true;
    if gold_p99 > bound * gold_base_p99 {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (gold p99): {:.1} us > {bound:.2}x unloaded baseline {:.1} us",
            gold_p99 / NS_PER_US as f64,
            gold_base_p99 / NS_PER_US as f64,
        );
    }
    if hit_arb <= hit_noarb {
        gate_ok = false;
        eprintln!(
            "ACCEPTANCE FAIL (aggregate prefetch hits): \
             arbiter {hit_arb:.4} <= no-arbiter {hit_noarb:.4}"
        );
    }
    if !gate_ok {
        std::process::exit(1);
    }
    println!(
        "acceptance: gold p99 within {bound:.2}x of unloaded baseline; \
         arbitrated hit ratio beats no-arbiter — ok"
    );
}
