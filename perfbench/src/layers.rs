//! Per-layer metrics: virtual numbers read from the runtime's exported
//! telemetry, host numbers from replaying a run's reads straight into
//! each layer's public functions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crossprefetch::{BPlusRangeIndex, Engine, PredictionEngine, ReadClass, Runtime, PAGE_SIZE};
use predict::AccessObservation;
use simclock::{GlobalClock, ThreadClock};
use simos::{Device, DeviceConfig, FileSystem, FsKind, IoPriority, Os, OsConfig, RaInfoRequest};

use crate::scenario::{runtime_config, Inputs, Op, RunLog, Settled};
use crate::stats::ratio;

/// Reads replayed per layer: enough for a steady per-call mean while the
/// replay stays well under a second.
pub const REPLAY_READS: usize = 100_000;

/// Per-layer metrics as `(name, unit)`, in output order.
///
/// Virtual time is reported as a share of the clients' caller time (or,
/// for the critical-path buckets, of the traced reads' latency), because
/// the cost model charges most steps a fixed amount: a per-call mean
/// would read the same on every run, a share still moves with the mix.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shim.stage.predict_share", "ratio"),
    ("shim.stage.prefetch_plan_share", "ratio"),
    ("shim.stage.cache_probe_share", "ratio"),
    ("shim.stage.demand_fill_share", "ratio"),
    ("shim.stage.account_share", "ratio"),
    ("shim.path.compute_share", "ratio"),
    ("shim.path.lock_wait_share", "ratio"),
    ("shim.path.device_service_share", "ratio"),
    ("shim.class.cache_hit", "ratio"),
    ("shim.class.prefetch_hit", "ratio"),
    ("shim.class.demand_miss", "ratio"),
    ("predict.pages_initiated_per_read", "pages"),
    ("predict.timely_ratio", "ratio"),
    ("predict.late_pages", "pages"),
    ("predict.wasted_pages", "pages"),
    ("predict.host_ns_per_step", "ns"),
    ("range_index.prefetch_skip_ratio", "ratio"),
    ("range_index.stale_resyncs", "count"),
    ("range_index.host_ns_per_mark", "ns"),
    ("range_index.host_ns_per_query", "ns"),
    ("worker.jobs", "count"),
    ("worker.prefetch_mean_ns", "ns"),
    ("crossos.ra_info_per_kread", "count"),
    ("crossos.host_ns_per_ra_info", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.ready_wait_share", "ratio"),
    ("cache.os_lock_wait_share", "ratio"),
    ("cache.evicted_pages", "pages"),
    ("cache.reclaim_scan_share", "ratio"),
    ("cache.dirtied_pages", "pages"),
    ("cache.written_back_pages", "pages"),
    ("cache.host_ns_per_os_read", "ns"),
    ("device.read_requests", "count"),
    ("device.read_bytes_per_app_byte", "B/B"),
    ("device.prefetch_requests", "count"),
    ("device.write_requests", "count"),
    ("device.write_bytes_per_app_byte", "B/B"),
    ("device.host_ns_per_charge", "ns"),
    ("sim.host_kops_per_s", "kop/s"),
    ("trace.host_overhead_pct", "%"),
];

/// The virtual per-layer numbers of one traced run.
pub fn virtual_layers(
    runtime: &Runtime,
    log: &RunLog,
    books: &Settled,
) -> Vec<(&'static str, f64)> {
    let live = &books.live;
    let reads = live.reads as f64;
    // Caller time: every read and write latency the clients observed.
    let caller_ns: f64 = log
        .clients
        .iter()
        .flat_map(|c| c.read_ns.iter().chain(&c.write_ns))
        .map(|&ns| ns as f64)
        .sum();
    let share = |ns: f64| ratio(ns, caller_ns);
    let mut out = Vec::new();
    for (stage, hist) in &live.stage_latency {
        let name = match *stage {
            // Entry bookkeeping costs no virtual time in the model.
            "classify" => continue,
            "predict" => "shim.stage.predict_share",
            "prefetch_plan" => "shim.stage.prefetch_plan_share",
            "cache_probe" => "shim.stage.cache_probe_share",
            "demand_fill" => "shim.stage.demand_fill_share",
            "account" => "shim.stage.account_share",
            other => panic!("unknown pipeline stage {other}"),
        };
        out.push((name, share(hist.sum as f64)));
    }

    // Critical-path buckets partition each traced read's latency
    // exactly. Queue wait and retry backoff stay off the demand path
    // without queues or faults, so they are not reported.
    let mut path = [0u64; 3];
    for class in [
        ReadClass::CacheHit,
        ReadClass::PrefetchHit,
        ReadClass::DemandMiss,
    ] {
        let p = runtime.spans().class_totals(class).path;
        path[0] += p.stage_compute_ns + p.queue_wait_ns + p.retry_backoff_ns;
        path[1] += p.lock_wait_ns;
        path[2] += p.device_service_ns;
    }
    let traced_ns = path.iter().sum::<u64>() as f64;
    out.push(("shim.path.compute_share", ratio(path[0] as f64, traced_ns)));
    out.push((
        "shim.path.lock_wait_share",
        ratio(path[1] as f64, traced_ns),
    ));
    out.push((
        "shim.path.device_service_share",
        ratio(path[2] as f64, traced_ns),
    ));

    let classified = (live.read_cache_hit.count
        + live.read_prefetch_hit.count
        + live.read_demand_miss.count) as f64;
    out.push((
        "shim.class.cache_hit",
        ratio(live.read_cache_hit.count as f64, classified),
    ));
    out.push((
        "shim.class.prefetch_hit",
        ratio(live.read_prefetch_hit.count as f64, classified),
    ));
    out.push((
        "shim.class.demand_miss",
        ratio(live.read_demand_miss.count as f64, classified),
    ));

    // Quality needs the settled books: pages still speculative at the
    // end of the run only become timely, late or wasted at the drop.
    let settled = &books.settled;
    let q = settled.prefetch_quality;
    out.push((
        "predict.pages_initiated_per_read",
        ratio(settled.pages_initiated as f64, reads),
    ));
    out.push((
        "predict.timely_ratio",
        ratio(q.timely as f64, settled.pages_initiated as f64),
    ));
    out.push(("predict.late_pages", q.late as f64));
    out.push(("predict.wasted_pages", q.wasted as f64));

    out.push((
        "range_index.prefetch_skip_ratio",
        runtime.stats().skip_ratio(),
    ));
    out.push(("range_index.stale_resyncs", live.stale_resyncs as f64));

    out.push(("worker.jobs", runtime.workers().jobs() as f64));
    out.push(("worker.prefetch_mean_ns", live.prefetch_latency.mean()));

    out.push((
        "crossos.ra_info_per_kread",
        ratio(live.ra_info_calls as f64 * 1e3, reads),
    ));

    let os = runtime.os();
    out.push(("cache.hit_ratio", live.hit_ratio));
    out.push((
        "cache.ready_wait_share",
        share(os.stats().ready_wait_ns.get() as f64),
    ));
    out.push((
        "cache.os_lock_wait_share",
        share(live.os_lock_wait_ns as f64),
    ));
    out.push(("cache.evicted_pages", live.pages_evicted_by_os as f64));
    out.push((
        "cache.reclaim_scan_share",
        share(live.os_reclaim_scan.sum as f64),
    ));
    out.push(("cache.dirtied_pages", live.wb_dirtied_pages as f64));
    out.push((
        "cache.written_back_pages",
        live.wb_written_back_pages as f64,
    ));

    // Device counters include the settling drop's write-back of pages
    // still dirty at the end of the run.
    let device = os.device().stats();
    let app_read: u64 = log.clients.iter().map(|c| c.bytes_read).sum();
    let app_written: u64 = log.clients.iter().map(|c| c.bytes_written).sum();
    out.push(("device.read_requests", device.read_requests.get() as f64));
    out.push((
        "device.read_bytes_per_app_byte",
        ratio(live.device_read_bytes as f64, app_read as f64),
    ));
    out.push((
        "device.prefetch_requests",
        device.prefetch_requests.get() as f64,
    ));
    out.push(("device.write_requests", device.write_requests.get() as f64));
    out.push((
        "device.write_bytes_per_app_byte",
        ratio(settled.device_write_bytes as f64, app_written as f64),
    ));
    out
}

/// The reads of every client, in client then issue order, capped at
/// [`REPLAY_READS`].
fn replay_reads(inputs: &Inputs) -> Vec<(usize, u64, u64)> {
    inputs
        .clients
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            Op::Read { file, offset, len } => Some((file, offset, len)),
            _ => None,
        })
        .take(REPLAY_READS)
        .collect()
}

/// Host nanoseconds per call of each layer's entry point, from replaying
/// the run's reads into fresh instances of the layer.
pub fn host_layers(inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let reads = replay_reads(inputs);
    let n = reads.len() as f64;
    let config = runtime_config();
    let per_call = |start: Instant| start.elapsed().as_nanos() as f64 / n;
    let mut out = Vec::new();

    // Prediction engine: one engine per file, as the runtime keeps one
    // per descriptor.
    let engine_config = predict::EngineConfig {
        predictor_bits: config.predictor_bits,
        seq_batch_pages: config.seq_batch_pages,
        ..predict::EngineConfig::default()
    };
    let mut engines: Vec<Engine> = inputs
        .files
        .iter()
        .map(|_| Engine::for_kind(config.engine, &engine_config))
        .collect();
    let start = Instant::now();
    for &(file, offset, len) in &reads {
        black_box(engines[file].observe(&AccessObservation {
            page: offset / PAGE_SIZE,
            pages: len.div_ceil(PAGE_SIZE),
            aggressive_ok: true,
            max_prefetch_pages: config.max_prefetch_pages,
        }));
    }
    out.push(("predict.host_ns_per_step", per_call(start)));

    // Range index: marks alone, then query-before-mark as the read path
    // does it; the query cost is the difference.
    let costs = OsConfig::default().costs;
    let scope = crossprefetch::Policy::for_config(&config).scope;
    let span = |offset: u64, len: u64| (offset / PAGE_SIZE, (offset + len).div_ceil(PAGE_SIZE));
    let fresh = || -> Vec<BPlusRangeIndex> {
        inputs
            .files
            .iter()
            .map(|_| BPlusRangeIndex::new())
            .collect()
    };
    let mut clock = ThreadClock::new(Arc::new(GlobalClock::new()));
    let indexes = fresh();
    let start = Instant::now();
    for &(file, offset, len) in &reads {
        let (s, e) = span(offset, len);
        black_box(indexes[file].mark_cached(&mut clock, &costs, scope, s, e));
    }
    let mark_ns = per_call(start);
    let indexes = fresh();
    let start = Instant::now();
    for &(file, offset, len) in &reads {
        let (s, e) = span(offset, len);
        black_box(indexes[file].missing_in(&mut clock, &costs, scope, s, e));
        black_box(indexes[file].mark_cached(&mut clock, &costs, scope, s, e));
    }
    let both_ns = per_call(start);
    out.push(("range_index.host_ns_per_mark", mark_ns));
    out.push((
        "range_index.host_ns_per_query",
        (both_ns - mark_ns).max(0.0),
    ));

    // CROSS-OS: readahead_info prefetch requests over the reads' ranges.
    let (os, fds, mut clock) = bare_os(inputs);
    let start = Instant::now();
    for &(file, offset, len) in &reads {
        black_box(os.readahead_info(&mut clock, fds[file], RaInfoRequest::prefetch(offset, len)));
    }
    out.push(("crossos.host_ns_per_ra_info", per_call(start)));

    // Page cache: plain read(2) charges on an OS with no runtime above.
    let (os, fds, mut clock) = bare_os(inputs);
    let start = Instant::now();
    for &(file, offset, len) in &reads {
        black_box(os.read_charge(&mut clock, fds[file], offset, len));
    }
    out.push(("cache.host_ns_per_os_read", per_call(start)));

    // Device: one demand charge per read.
    let device = Device::new(DeviceConfig::local_nvme());
    let mut clock = ThreadClock::new(Arc::new(GlobalClock::new()));
    let start = Instant::now();
    for &(_, _, len) in &reads {
        device.charge_read(&mut clock, len.div_ceil(PAGE_SIZE), IoPriority::Blocking);
    }
    black_box(clock.now());
    out.push(("device.host_ns_per_charge", per_call(start)));
    out
}

/// An OS with the workload's files and page-cache budget and nothing
/// above it.
fn bare_os(inputs: &Inputs) -> (Arc<Os>, Vec<simos::Fd>, ThreadClock) {
    let os = Os::new(
        OsConfig::with_memory_mb(inputs.memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut clock = os.new_clock();
    let fds = inputs
        .files
        .iter()
        .map(|(path, bytes)| {
            os.create_sized(&mut clock, path, *bytes)
                .expect("fresh namespace")
        })
        .collect();
    (os, fds, clock)
}
