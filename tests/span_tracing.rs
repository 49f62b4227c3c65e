//! Integration checks for request-scoped causal span tracing.
//!
//! The acceptance contract for the span subsystem:
//!
//! * spans disabled ⇒ same-seed telemetry is byte-identical to the same
//!   run with the subsystem never consulted (and the simulated timeline
//!   matches the spans-enabled run exactly — observation never perturbs
//!   virtual time);
//! * spans enabled ⇒ every kept exemplar's critical-path buckets sum to
//!   its end-to-end latency to the nanosecond, including at least one
//!   demand-miss exemplar;
//! * folded stacks parse (root frame, `stage:` frames, positive counts).

use crossprefetch::{Mode, ReadClass, Runtime, RuntimeConfig, RuntimeReport};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use workloads::kvprobe::{run_kvprobe, setup_kvprobe, KvProbeConfig};

fn runtime(mode: Mode) -> Runtime {
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    Runtime::new(os, RuntimeConfig::new(mode))
}

/// A deterministic mixed read pattern that produces all three latency
/// classes: cold sequential (demand misses at the head, prefetch hits
/// down the stream), warm re-reads (cache hits), and far jumps.
fn mixed_reads(runtime: &Runtime) -> u64 {
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/span.bin", 16 << 20)
        .expect("fresh namespace");
    let chunk = 16 * 1024u64;
    for i in 0..256u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    for i in 0..64u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    let mut state = 0xD1B54A32D192ED03u64;
    for _ in 0..64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        file.read_charge(&mut clock, (state % (15 << 20)) & !4095, chunk);
    }
    clock.now()
}

#[test]
fn exemplar_buckets_sum_to_latency_exactly() {
    let rt = runtime(Mode::PredictOpt);
    rt.spans().set_enabled(true);
    mixed_reads(&rt);

    let exemplars = rt.spans().exemplars();
    assert!(!exemplars.is_empty(), "reservoirs must hold exemplars");
    for exemplar in &exemplars {
        assert_eq!(
            exemplar.path.total_ns(),
            exemplar.latency_ns,
            "critical-path buckets must partition the latency (req {} class {})",
            exemplar.req_id,
            exemplar.class.name()
        );
        // Stage durations chain entry→exit, so they sum to latency too.
        let stage_total: u64 = exemplar.stages.iter().map(|s| s.dur_ns).sum();
        assert_eq!(stage_total, exemplar.latency_ns);
    }

    // The cold head of the sequential scan guarantees demand misses; the
    // slowest of them must be held with device time attributed.
    let misses = rt.spans().exemplars_for(ReadClass::DemandMiss);
    assert!(
        !misses.is_empty(),
        "cold reads must leave demand-miss exemplars"
    );
    assert!(
        misses[0].path.device_service_ns > 0,
        "a demand miss spends time on the device"
    );

    // Totals cover every traced read, not just the kept exemplars.
    let report = RuntimeReport::collect(&rt);
    assert!(report.spans_enabled);
    assert_eq!(report.spans_reads_traced, 256 + 64 + 64);
    let class_reads: u64 = report.spans_classes.iter().map(|(_, t)| t.reads).sum();
    assert_eq!(class_reads, report.spans_reads_traced);
}

#[test]
fn disabled_spans_leave_telemetry_and_timeline_untouched() {
    // Same seed, three runs: spans never enabled, spans enabled, and the
    // export surface with the spans section stripped must agree between
    // the first two on (a) the simulated end time — observation adds no
    // virtual cost — and (b) every pre-span telemetry byte.
    let rt_off = runtime(Mode::PredictOpt);
    let end_off = mixed_reads(&rt_off);
    let json_off = RuntimeReport::collect(&rt_off).to_json();

    let rt_on = runtime(Mode::PredictOpt);
    rt_on.spans().set_enabled(true);
    let end_on = mixed_reads(&rt_on);
    let json_on = RuntimeReport::collect(&rt_on).to_json();

    assert_eq!(
        end_off, end_on,
        "span observation must not perturb the virtual timeline"
    );
    // Strip the additive spans section from both exports; everything
    // else must match byte for byte.
    let strip = |json: &str| -> String {
        let start = json.find("\"spans\":{").expect("spans section present");
        let tail = json[start..]
            .find("},\"registries\"")
            .expect("registries follow")
            + start;
        format!("{}{}", &json[..start], &json[tail + 2..])
    };
    assert_eq!(strip(&json_off), strip(&json_on));
    assert!(json_off.contains("\"spans\":{\"enabled\":false,\"reads_traced\":0,"));
}

#[test]
fn kvprobe_folded_stacks_parse() {
    let rt = runtime(Mode::PredictOpt);
    rt.spans().set_enabled(true);
    let mut clock = rt.new_clock();
    let cfg = KvProbeConfig {
        probes: 1024,
        ..KvProbeConfig::default()
    };
    setup_kvprobe(&rt, &cfg, "/kv/span.db");
    run_kvprobe(&rt, &mut clock, &cfg, "/kv/span.db");

    let exemplars = rt.spans().exemplars();
    assert!(!exemplars.is_empty());
    let mut lines = 0usize;
    for exemplar in &exemplars {
        for (stack, weight) in exemplar.folded_lines() {
            lines += 1;
            assert!(weight > 0, "zero-weight folded line: {stack}");
            let frames: Vec<&str> = stack.split(';').collect();
            assert!(frames.len() >= 2, "stack needs root + frame: {stack}");
            assert!(
                frames[0].starts_with("read-"),
                "root is the latency class: {stack}"
            );
            assert!(
                frames[1].starts_with("stage:"),
                "second frame is the pipeline stage: {stack}"
            );
        }
    }
    assert!(lines > 0, "exemplars must fold into at least one line");
}

#[test]
fn exemplar_reservoirs_respect_configured_depth() {
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.span_exemplars = 3;
    let rt = Runtime::new(os, config);
    rt.spans().set_enabled(true);
    mixed_reads(&rt);

    for class in [
        ReadClass::CacheHit,
        ReadClass::PrefetchHit,
        ReadClass::DemandMiss,
    ] {
        let kept = rt.spans().exemplars_for(class);
        assert!(kept.len() <= 3, "reservoir depth is a hard cap");
        // Slowest-first ordering within a class.
        for pair in kept.windows(2) {
            assert!(pair[0].latency_ns >= pair[1].latency_ns);
        }
    }
    assert!(
        rt.spans().exemplars_evicted() > 0,
        "384 reads into 3 slots must displace"
    );
}
