//! The strided prediction engine on the zipfian kvprobe: same-seed
//! determinism and closed-loop prefetch-quality accounting. Strided is
//! the only engine, so "every engine" is every mechanism that consults it.

use crossprefetch::{Mode, Runtime, RuntimeConfig, RuntimeReport};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig};

fn os(memory_mb: u64) -> std::sync::Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

/// The mechanisms that consult the predictor.
const PREDICTING: [Mode; 2] = [Mode::Predict, Mode::PredictOpt];

fn kvprobe_json(mode: Mode, seed: u64) -> String {
    let runtime = Runtime::new(os(64), RuntimeConfig::new(mode));
    let cfg = KvProbeConfig {
        probes: 1024,
        seed,
        ..KvProbeConfig::default()
    };
    setup_kvprobe(&runtime, &cfg, "/kv");
    let mut clock = runtime.new_clock();
    run_kvprobe(&runtime, &mut clock, &cfg, "/kv");
    RuntimeReport::collect(&runtime).to_json()
}

/// Same-seed zipfian runs diff clean under every predicting mechanism.
#[test]
fn same_seed_runs_are_identical_for_every_engine() {
    for mode in PREDICTING {
        let first = kvprobe_json(mode, 7);
        let second = kvprobe_json(mode, 7);
        assert_eq!(first, second, "{}: same-seed divergence", mode.label());
    }
}

/// Closed-loop quality accounting: after a zipfian run plus a cache drop,
/// every initiated prefetch page has been classified exactly once —
/// timely + late + wasted sums to `pages_initiated`.
///
/// `Mode::Predict` silences the OS heuristic readahead and does no
/// open-time prefetch, so the runtime's own prefetch path is the only
/// source of speculative pages; dropping the cache at the end converts
/// still-speculative pages to wasted, closing the books.
#[test]
fn quality_counters_sum_to_pages_initiated_for_every_engine() {
    // 8 MB of memory against an 18 MiB dataset: eviction keeps cold
    // pages uncached, so planned prefetches actually issue.
    let runtime = Runtime::new(os(8), RuntimeConfig::new(Mode::Predict));
    let cfg = KvProbeConfig {
        probes: 2048,
        ..KvProbeConfig::default()
    };
    setup_kvprobe(&runtime, &cfg, "/kv");
    let mut clock = runtime.new_clock();
    run_kvprobe(&runtime, &mut clock, &cfg, "/kv");
    runtime.os().drop_caches(&mut clock);
    let report = RuntimeReport::collect(&runtime);
    let q = report.prefetch_quality;
    assert!(
        report.pages_initiated > 0,
        "the probe stream should trigger prefetching"
    );
    assert_eq!(
        q.timely + q.late + q.wasted,
        report.pages_initiated,
        "quality books don't balance (timely={} late={} wasted={} initiated={})",
        q.timely,
        q.late,
        q.wasted,
        report.pages_initiated
    );
}
