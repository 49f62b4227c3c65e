//! Tenant arbiter suite: knob-inertness of `RuntimeConfig::tenants` for
//! untenanted opens, same-seed fleet determinism, the per-tenant
//! quality-ledger invariant under admission throttling, and starvation
//! freedom for low-QoS tenants.

use crossprefetch::{Mode, Runtime, RuntimeConfig, RuntimeReport, TenantId, TenantsConfig};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use workloads::{run_fleet, setup_fleet, FleetConfig, FleetTenantSpec};

fn os(memory_mb: u64) -> std::sync::Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

const MECHANISMS: [Mode; 6] = [
    Mode::AppOnly,
    Mode::OsOnly,
    Mode::Predict,
    Mode::PredictOpt,
    Mode::FetchAllOpt,
    Mode::FincoreApp,
];

/// A small cold-cache fleet over little memory: window budgets are tiny
/// and the cache sits above the pressure watermark, so the admission
/// ladder actually engages.
fn throttled_fleet() -> FleetConfig {
    FleetConfig {
        tenants: vec![
            FleetTenantSpec::new("batch-a", crossprefetch::QosClass::Bronze, true),
            FleetTenantSpec::new("batch-b", crossprefetch::QosClass::Bronze, true),
            FleetTenantSpec::new("standard", crossprefetch::QosClass::Silver, false),
            FleetTenantSpec::new("gold", crossprefetch::QosClass::Gold, false),
        ],
        files_per_tenant: 1,
        file_bytes: 16 << 20,
        requests: 2048,
        reads_per_request: 4,
        read_bytes: 16 * 1024,
        ..FleetConfig::default()
    }
}

/// Removes a `"name":{...},`-shaped top-level section from a report JSON
/// string (brace-counted), as `examples/schema_compat.rs` does.
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

/// The deterministic mixed workload the batching/ring suites drive, with
/// plain (untenanted) opens.
fn run_untenanted(config: RuntimeConfig) -> String {
    let runtime = Runtime::new(os(48), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/w.bin", 48 << 20)
        .unwrap();
    let chunk = 16 * 1024u64;
    for i in 0..512u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..128 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        file.read_charge(&mut clock, (state % (47 << 20)) & !4095, chunk);
    }
    RuntimeReport::collect(&runtime).to_json()
}

/// Configuring tenants without ever binding one must not change a single
/// byte outside the additive `tenants` section, for every mechanism:
/// untenanted files bypass admission entirely.
#[test]
fn tenants_config_is_inert_for_untenanted_opens() {
    for mode in MECHANISMS {
        let without = run_untenanted(RuntimeConfig::new(mode));
        let mut config = RuntimeConfig::new(mode);
        config.tenants = Some(TenantsConfig::new(throttled_fleet().tenant_specs()));
        let with = run_untenanted(config);
        assert!(
            with.contains("\"tenants\":{\"enabled\":true"),
            "{}: configured arbiter should surface in telemetry",
            mode.label()
        );
        assert!(
            without.contains("\"tenants\":{\"enabled\":false"),
            "{}: unconfigured arbiter should read disabled",
            mode.label()
        );
        assert_eq!(
            strip_section(&with, "tenants"),
            strip_section(&without, "tenants"),
            "{}: tenant config leaked into untenanted telemetry",
            mode.label()
        );
    }
}

/// Same seed, same fleet, same budgets: the arbitrated run is fully
/// deterministic, down to the exported telemetry bytes.
#[test]
fn same_seed_fleet_is_byte_identical() {
    let cfg = throttled_fleet();
    let mut exports = Vec::new();
    for _ in 0..2 {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
        let runtime = Runtime::new(os(8), config);
        setup_fleet(&runtime, &cfg);
        let mut clock = runtime.new_clock();
        run_fleet(&runtime, &mut clock, &cfg);
        exports.push(RuntimeReport::collect(&runtime).to_json());
    }
    assert_eq!(exports[0], exports[1]);
}

/// The closed-loop quality invariant holds *per tenant* while admission
/// control rejects and degrades prefetch mid-stream: after the cache
/// drop settles the books, each tenant's timely + late + wasted equals
/// exactly the pages initiated on its files — with the completion-driven
/// ring off and on (its speculative pre-issues and cancellations bill
/// through the same per-tenant ledger).
///
/// `Mode::Predict` silences the OS heuristic readahead and does no
/// open-time prefetch, so each tenant's runtime prefetches are the only
/// speculative pages its ledger sees.
#[test]
fn per_tenant_quality_books_balance_under_throttling() {
    for ring in [false, true] {
        let cfg = throttled_fleet();
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
        config.ring_submit = ring;
        let runtime = Runtime::new(os(8), config);
        setup_fleet(&runtime, &cfg);
        let mut clock = runtime.new_clock();
        run_fleet(&runtime, &mut clock, &cfg);
        runtime.os().drop_caches(&mut clock);

        if ring {
            assert!(
                runtime.stats().ring_spec_issued.get() > 0,
                "the ring should pre-issue speculative reads under the fleet"
            );
        }
        let arbiter = runtime.tenants().expect("arbiter configured");
        let reports = arbiter.reports();
        let degraded: u64 = reports
            .iter()
            .map(|t| t.degraded_coalesced + t.degraded_blind + t.denied)
            .sum();
        assert!(
            degraded > 0,
            "ring={ring}: the 8 MiB cache should force the ladder below Full"
        );
        let initiated: u64 = reports.iter().map(|t| t.initiated_pages).sum();
        assert!(
            initiated > 0,
            "ring={ring}: the fleet should trigger prefetching"
        );
        for (idx, report) in reports.iter().enumerate() {
            let q = arbiter.tenant_quality(runtime.os(), TenantId(idx as u32));
            assert_eq!(
                q.timely + q.late + q.wasted,
                report.initiated_pages,
                "ring={ring}, {}: per-tenant books don't balance \
                 (timely={} late={} wasted={} initiated={})",
                report.name,
                q.timely,
                q.late,
                q.wasted,
                report.initiated_pages
            );
        }
    }
}

/// The efficiency floor keeps even a wasteful bronze tenant's weight
/// above zero: under sustained saturation every tenant still completes
/// reads and wins some prefetch admission.
#[test]
fn no_tenant_starves_under_saturation() {
    let cfg = throttled_fleet();
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
    let runtime = Runtime::new(os(8), config);
    setup_fleet(&runtime, &cfg);
    let mut clock = runtime.new_clock();
    let result = run_fleet(&runtime, &mut clock, &cfg);

    let arbiter = runtime.tenants().expect("arbiter configured");
    assert!(arbiter.rebalances() > 0, "windows should have rebalanced");
    for (row, report) in result.per_tenant.iter().zip(arbiter.reports()) {
        assert!(row.reads > 0, "{}: no reads completed", row.name);
        assert!(row.hit_pages > 0, "{}: no cached pages at all", row.name);
        assert!(
            report.admitted_pages > 0,
            "{}: starved of prefetch admission despite the efficiency floor",
            report.name
        );
        assert!(
            report.budget_pages > 0,
            "{}: rebalance assigned a zero budget",
            report.name
        );
    }
}
