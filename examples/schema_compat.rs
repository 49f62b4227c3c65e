//! schema-compat: pin the whole telemetry export.
//!
//! Runs one fixed, fully deterministic single-threaded workload per
//! Table-2 mechanism (plus the fincore baseline) with every opt-in knob at
//! its default, and a seventh run with every opt-in mechanism on
//! (`PredictOpt` on a tiered store with the write-back daemon, the
//! adaptive prediction engine, the completion-driven ring, a two-tenant
//! arbiter, cross-tier promotion and span tracing) over a read + write +
//! `fsync` mix. Each run's full telemetry JSON is one line; the seven
//! lines are compared byte-for-byte against the checked-in baseline
//! (`tests/data/telemetry_schema_baseline.json`). Any difference means the
//! export changed: a renamed or reordered key, a new section, or a knob
//! that should be inert moving a number.
//!
//! Usage:
//!   cargo run --release --example schema_compat            # verify
//!   cargo run --release --example schema_compat -- --write # regenerate baseline

use std::path::PathBuf;

use crossprefetch::{
    EngineKind, Mode, QosClass, Runtime, RuntimeConfig, RuntimeReport, TenantId, TenantSpec,
    TenantsConfig, TieredStore, TieringConfig, WritebackConfig, PAGE_SIZE,
};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("telemetry_schema_baseline.json")
}

/// One deterministic mixed workload under `mode`: sequential ramp, warm
/// re-reads, seeded random jumps. Single-threaded, so the export is a pure
/// function of the mode.
fn run_mode(mode: Mode) -> String {
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let config = RuntimeConfig::new(mode);
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/compat.bin", 16 << 20)
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
    RuntimeReport::collect(&runtime).to_json()
}

/// Every opt-in mechanism on at once, so each export section carries
/// non-zero values: two tenants share a tiered OS (small local tier, so
/// promotion has to demote) with the write-back daemon; one streams its
/// file sequentially while the other mixes seeded random reads with
/// writes and an `fsync` every 16 writes.
fn run_all_on() -> String {
    let mut os_config = OsConfig::with_memory_mb(32);
    os_config.writeback = Some(WritebackConfig {
        file_dirty_threshold_pages: 128,
        ..WritebackConfig::default()
    });
    let os = Os::new_tiered(
        os_config,
        TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::new(DeviceConfig::remote_nvmeof()),
            2048,
        ),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.engine = EngineKind::Adaptive;
    config.ring_submit = true;
    config.tiering = Some(TieringConfig::new());
    config.tenants = Some(TenantsConfig::new(vec![
        TenantSpec::new("gold", QosClass::Gold),
        TenantSpec::new("bronze", QosClass::Bronze),
    ]));
    let runtime = Runtime::new(os, config);
    runtime.spans().set_enabled(true);
    let mut clock = runtime.new_clock();
    let stream = runtime
        .create_sized_for_tenant(&mut clock, "/data/stream.bin", 16 << 20, TenantId(0))
        .expect("fresh namespace");
    let mixed = runtime
        .create_sized_for_tenant(&mut clock, "/data/mixed.bin", 16 << 20, TenantId(1))
        .expect("fresh namespace");
    let chunk = 16 * 1024u64;
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in 0..1024u64 {
        stream.read_charge(&mut clock, i * chunk, chunk);
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let offset = (state % (15 << 20)) & !(PAGE_SIZE - 1);
        if i % 4 == 0 {
            mixed.write_charge(&mut clock, offset, 2 * PAGE_SIZE);
            if i % 64 == 0 {
                mixed.fsync(&mut clock);
            }
        } else {
            mixed.read_charge(&mut clock, offset, chunk);
        }
    }
    RuntimeReport::collect(&runtime).to_json()
}

fn main() {
    let modes = [
        Mode::AppOnly,
        Mode::OsOnly,
        Mode::Predict,
        Mode::PredictOpt,
        Mode::FetchAllOpt,
        Mode::FincoreApp,
    ];
    let current: Vec<String> = modes
        .iter()
        .map(|&mode| run_mode(mode))
        .chain(std::iter::once(run_all_on()))
        .collect();
    let rendered = current.join("\n") + "\n";

    let path = baseline_path();
    if std::env::args().any(|a| a == "--write") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("baseline dir");
        std::fs::write(&path, &rendered).expect("write baseline");
        eprintln!(
            "wrote baseline: {} ({} runs)",
            path.display(),
            current.len()
        );
        return;
    }

    let baseline = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {}: {e}", path.display());
        eprintln!("generate it with: cargo run --release --example schema_compat -- --write");
        std::process::exit(2);
    });
    if rendered == baseline {
        println!(
            "schema-compat OK: {} runs byte-identical to the baseline",
            current.len()
        );
        return;
    }
    let base_lines: Vec<&str> = baseline.lines().collect();
    for (i, line) in rendered.lines().enumerate() {
        let want = base_lines.get(i).copied().unwrap_or("<missing>");
        if line != want {
            let diverge = line
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(line.len().min(want.len()));
            let lo = diverge.saturating_sub(60);
            eprintln!("schema-compat FAILED: run #{i} diverges at byte {diverge}");
            eprintln!(
                "  current : ...{}",
                &line[lo..(diverge + 60).min(line.len())]
            );
            eprintln!(
                "  baseline: ...{}",
                &want[lo..(diverge + 60).min(want.len())]
            );
            std::process::exit(1);
        }
    }
    eprintln!("schema-compat FAILED: line counts differ");
    std::process::exit(1);
}
