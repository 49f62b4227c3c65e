//! tiering: deterministic tiered-placement + write-back smoke.
//!
//! Runs a mixed read/write workload on the full tiered stack — local
//! NVMe in front of the paper's RDMA NVMe-oF remote model, the tier
//! planner promoting predicted-hot ranges, and the deferred write-back
//! daemon absorbing dirty pages — then writes the full telemetry export
//! to the given path. Same-seed invocations must produce byte-identical
//! files; CI runs it twice and diffs.
//!
//! Usage: cargo run --release --example tiering -- <out.json> [seed]

use std::sync::Arc;

use crossprefetch::{
    Mode, Runtime, RuntimeConfig, RuntimeReport, TieredStore, TieringConfig, WritebackConfig,
    PAGE_SIZE,
};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let out = args.next().unwrap_or_else(|| {
        eprintln!("usage: tiering <out.json> [seed]");
        std::process::exit(2);
    });
    let seed: u64 = args.next().map_or(42, |s| s.parse().expect("numeric seed"));

    let mut os_config = OsConfig::with_memory_mb(32);
    os_config.writeback = Some(WritebackConfig::default());
    let os = Os::new_tiered(
        os_config,
        TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::new(DeviceConfig::remote_nvmeof()),
            // 8 MiB local tier against the 16 MiB file: placement chooses.
            2048,
        ),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.tiering = Some(TieringConfig::new());
    let runtime = Runtime::new(Arc::clone(&os), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/tiered.bin", 16 << 20)
        .expect("fresh namespace");

    // A sequential stream (the planner's food) with a seeded scatter of
    // page-aligned writes riding along — the write-back daemon absorbs
    // and coalesces them while promotions copy the read stream local.
    let pages = (16u64 << 20) / PAGE_SIZE;
    let mut state = seed | 1;
    for i in 0..1024u64 {
        file.read_charge(&mut clock, (i * 4 % pages) * PAGE_SIZE, 4 * PAGE_SIZE);
        if i % 8 == 0 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            file.write_charge(&mut clock, (state % (pages - 2)) * PAGE_SIZE, 2 * PAGE_SIZE);
        }
    }
    file.fsync(&mut clock);

    let report = RuntimeReport::collect(&runtime);
    std::fs::write(&out, report.to_json()).expect("write telemetry");
    let tiered = os.tiered().expect("tiered store");
    eprintln!(
        "tiering: {} promotions ({} blocks local), {} dirtied pages \
         ({} written back, {} runs coalesced), telemetry -> {out}",
        report.promotions_completed,
        tiered.local_resident_blocks(),
        report.wb_dirtied_pages,
        report.wb_written_back_pages,
        report.wb_runs_coalesced,
    );
}
