//! Completion-driven ring: off-path byte-identity, same-seed
//! determinism, visibility gating, inertness on a kernel without
//! CROSS-OS, demand-crossing reduction at hit parity, speculative
//! pre-issue absorb/cancel, and closed-loop prefetch-quality accounting
//! with the ring enabled.

use crossprefetch::{Mode, Runtime, RuntimeConfig, RuntimeReport};
use simos::{Device, DeviceConfig, FaultPlan, FileSystem, FsKind, Os, OsConfig};
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig};

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

/// A deterministic mixed workload: sequential ramp, warm re-read, seeded
/// random jumps.
fn run_workload(config: RuntimeConfig) -> String {
    run_workload_on(os(48), config)
}

fn run_workload_on(os: std::sync::Arc<Os>, config: RuntimeConfig) -> String {
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/w.bin", 48 << 20)
        .unwrap();
    let chunk = 16 * 1024u64;
    for i in 0..512u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    for i in 0..64u64 {
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

/// With `ring_submit` off, the ring knobs must be inert: telemetry is
/// byte-identical no matter how they are set, for every mechanism.
#[test]
fn ring_knobs_are_inert_when_disabled() {
    for mode in MECHANISMS {
        let baseline = run_workload(RuntimeConfig::new(mode));
        let mut tweaked = RuntimeConfig::new(mode);
        tweaked.ring_spec_confidence = 0.0;
        assert_eq!(
            baseline,
            run_workload(tweaked),
            "{}: ring knobs leaked into the ring-off path",
            mode.label()
        );
    }
}

/// The ring requires cache visibility (the absorb path reads the shared
/// bitmap): turning the knob on under a blind mechanism changes nothing,
/// end to end.
#[test]
fn ring_is_gated_on_visibility_end_to_end() {
    for mode in [Mode::AppOnly, Mode::OsOnly, Mode::FincoreApp] {
        let baseline = run_workload(RuntimeConfig::new(mode));
        let mut ringed = RuntimeConfig::new(mode);
        ringed.ring_submit = true;
        assert_eq!(
            baseline,
            run_workload(ringed),
            "{}: ring_submit must be inert without visibility",
            mode.label()
        );
    }
}

/// Ring-enabled runs are deterministic: the same configuration twice
/// produces byte-identical telemetry, for every mechanism.
#[test]
fn ring_run_is_deterministic_for_every_mechanism() {
    for mode in MECHANISMS {
        let mut config = RuntimeConfig::new(mode);
        config.ring_submit = true;
        let first = run_workload(config.clone());
        let second = run_workload(config);
        assert_eq!(first, second, "{}: same-seed ring divergence", mode.label());
    }
}

/// On a kernel without CROSS-OS there is no exported bitmap to absorb
/// through, so the ring must change nothing: ring-on telemetry equals
/// ring-off telemetry apart from `ring.enabled`, and no read is absorbed.
#[test]
fn ring_is_inert_on_a_kernel_without_crossos() {
    let stock_os = || {
        let mut config = OsConfig::with_memory_mb(48);
        config.readahead_info_supported = false;
        Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        )
    };
    for mode in [Mode::Predict, Mode::PredictOpt, Mode::FetchAllOpt] {
        let off = run_workload_on(stock_os(), RuntimeConfig::new(mode));
        let mut ringed = RuntimeConfig::new(mode);
        ringed.ring_submit = true;
        let on = run_workload_on(stock_os(), ringed);
        assert!(
            on.contains("\"ring\":{\"enabled\":true,\"absorbed_reads\":0,"),
            "{}: ring must be enabled yet absorb nothing",
            mode.label()
        );
        assert_eq!(
            off,
            on.replace(
                "\"ring\":{\"enabled\":true,",
                "\"ring\":{\"enabled\":false,"
            ),
            "{}: the ring leaked into a kernel without CROSS-OS",
            mode.label()
        );
    }
}

/// With the ring enabled, demand reads stop crossing one syscall each —
/// fully-claimed reads absorb through the shared bitmap — while the
/// cache-hit accounting stays identical.
#[test]
fn ring_cuts_demand_crossings_at_hit_parity() {
    let run = |ring: bool| {
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.ring_submit = ring;
        let runtime = Runtime::new(os(64), config);
        let mut clock = runtime.new_clock();
        let file = runtime
            .create_sized(&mut clock, "/data/seq.bin", 48 << 20)
            .unwrap();
        for i in 0..768u64 {
            file.read_charge(&mut clock, i * 16_384, 16_384);
        }
        let os = runtime.os();
        let crossings = os.stats().reads.get();
        let report = RuntimeReport::collect(&runtime);
        (
            crossings,
            report.hit_ratio,
            report.reads,
            report.pages_initiated,
            report.prefetch_quality.timely + report.prefetch_quality.late,
        )
    };
    let (off_crossings, off_hits, off_reads, off_init, off_consumed) = run(false);
    let (on_crossings, on_hits, on_reads, on_init, on_consumed) = run(true);
    assert_eq!(off_reads, on_reads, "ring must not lose reads");
    assert!(
        on_crossings * 2 <= off_crossings,
        "expected >=2x fewer demand-read crossings: {on_crossings} vs {off_crossings}"
    );
    // Identical hit accounting: same hit ratio, same initiated pages,
    // same consumed (timely+late) prefetched pages.
    assert_eq!(off_hits, on_hits, "hit ratio must not change");
    assert_eq!(off_init, on_init, "initiated pages must not change");
    assert_eq!(off_consumed, on_consumed, "consumed pages must not change");
}

/// When the prefetch class is broken (permanent EIO), the predicted next
/// read stays missing, so the confident predictor pre-issues it through
/// the ring (demand class, un-faulted) and the stream's next read absorbs
/// the parked completion without a crossing of its own.
#[test]
fn speculative_preissue_absorbs_matching_reads() {
    let plan = FaultPlan::seeded(7).with_prefetch_eio(1.0);
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::with_fault_plan(DeviceConfig::local_nvme(), plan),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = true;
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/seq.bin", 32 << 20)
        .unwrap();
    for i in 0..256u64 {
        file.read_charge(&mut clock, i * 16_384, 16_384);
    }
    let stats = runtime.stats();
    assert_eq!(stats.reads.get(), 256, "every read completes");
    assert!(
        stats.ring_spec_issued.get() > 0,
        "confident predictions over missing ranges must pre-issue"
    );
    assert!(
        stats.ring_spec_absorbed.get() > 0,
        "the sequential stream must absorb parked speculations"
    );
    // Absorbed speculations never cross: total crossings stay well below
    // one per read.
    let os = runtime.os();
    let crossings = os.stats().reads.get();
    assert!(
        crossings < 256 + stats.ring_spec_issued.get(),
        "absorbed reads must not pay their own crossing ({crossings})"
    );
}

/// A mispredicted speculation is cancelled and its pages re-enter the
/// prefetch-quality ledger: after a cache drop they surface as `wasted`,
/// and the closed-loop invariant (timely + late + wasted ==
/// pages_initiated) holds with the ring enabled.
#[test]
fn cancelled_speculation_is_charged_as_wasted() {
    let plan = FaultPlan::seeded(7).with_prefetch_eio(1.0);
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::with_fault_plan(DeviceConfig::local_nvme(), plan),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = true;
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/seq.bin", 32 << 20)
        .unwrap();
    // Ramp long enough to park a speculation, then jump away from it.
    for i in 0..256u64 {
        file.read_charge(&mut clock, i * 16_384, 16_384);
    }
    file.read_charge(&mut clock, 31 << 20, 16_384);
    let stats = runtime.stats();
    assert!(
        stats.ring_spec_cancelled.get() > 0,
        "the jump must cancel the parked speculation"
    );
    assert!(
        stats.ring_spec_pages_charged.get() > 0,
        "cancelled pages must be charged to the quality ledger"
    );
    runtime.os().drop_caches(&mut clock);
    let report = RuntimeReport::collect(&runtime);
    let q = report.prefetch_quality;
    assert!(
        q.wasted >= stats.ring_spec_pages_charged.get(),
        "cancelled speculative pages must surface as wasted"
    );
    assert_eq!(
        q.timely + q.late + q.wasted,
        report.pages_initiated,
        "quality books don't balance with the ring on \
         (timely={} late={} wasted={} initiated={})",
        q.timely,
        q.late,
        q.wasted,
        report.pages_initiated
    );
}

/// The prefetch-quality identity with the ring enabled on the zipfian
/// kvprobe: every initiated page is classified exactly
/// once even when speculations issue, absorb, and cancel along the way.
#[test]
fn quality_counters_balance_under_ring_on_kvprobe() {
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = true;
    let runtime = Runtime::new(os(8), config);
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
    assert!(report.pages_initiated > 0);
    assert_eq!(
        q.timely + q.late + q.wasted,
        report.pages_initiated,
        "quality books don't balance with the ring on \
         (timely={} late={} wasted={} initiated={})",
        q.timely,
        q.late,
        q.wasted,
        report.pages_initiated
    );
}
