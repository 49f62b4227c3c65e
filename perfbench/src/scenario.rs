//! The three closed-loop workloads: their seeded inputs, set-up, client
//! loops and output checks.
//!
//! Every client is a closed loop: it issues its next operation when the
//! previous one returns, as an application thread does. The inputs are a
//! pure function of the seed and the plan; the program sees only them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use crossprefetch::{Mode, Runtime, RuntimeConfig, RuntimeReport, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::ThreadClock;
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use workloads::Zipfian;

/// Application I/O size of the streaming reader and the writer.
const IO_BYTES: u64 = 16 * 1024;
/// Zipfian skew of `kv_zipf` (the YCSB default).
const KV_THETA: f64 = 0.99;
/// One read in this many (seed-phased) also returns content, which is
/// compared against the fill pattern.
const CONTENT_SAMPLE_EVERY: u64 = 64;
/// Most virtual time one concurrent client may run ahead of another.
const SKEW_NS: u64 = 10_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client streams private files sequentially.
    SeqStream,
    /// One client probes zipfian index pages and their records.
    KvZipf,
    /// A sequential reader and a random writer share one file.
    SharedRw,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SeqStream, Workload::KvZipf, Workload::SharedRw];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqStream => "seq_stream",
            Workload::KvZipf => "kv_zipf",
            Workload::SharedRw => "shared_rw",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the model's virtual time is a function of the seed alone
    /// (one client on one host thread). `shared_rw`'s two threads meet
    /// in the model's locks in whatever order the host runs them.
    pub fn deterministic(self) -> bool {
        self != Workload::SharedRw
    }
}

/// Sizes of one workload run.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// `passes` scans over `files` private files of `file_bytes` each.
    Seq {
        memory_mb: u64,
        files: u64,
        file_bytes: u64,
        passes: u64,
    },
    /// `probes` zipfian probes over `keys` index pages plus records.
    Kv {
        memory_mb: u64,
        keys: u64,
        record_pages: u64,
        probes: u64,
    },
    /// A reader and a writer on one `file_bytes` file; the writer calls
    /// `fsync` after every `fsync_every` writes.
    Shared {
        memory_mb: u64,
        file_bytes: u64,
        reader_ops: u64,
        writer_ops: u64,
        fsync_every: u64,
    },
}

impl Plan {
    /// The measured plan of `workload`.
    pub fn full(workload: Workload) -> Self {
        match workload {
            // 64 MiB of files against a 16 MiB page cache.
            Workload::SeqStream => Plan::Seq {
                memory_mb: 16,
                files: 8,
                file_bytes: 8 << 20,
                passes: 24,
            },
            // 36 MiB (1024 keys x 9 pages) against an 8 MiB page cache.
            Workload::KvZipf => Plan::Kv {
                memory_mb: 8,
                keys: 1024,
                record_pages: 8,
                probes: 24_000,
            },
            // A 16 MiB file in a 64 MiB page cache.
            Workload::SharedRw => Plan::Shared {
                memory_mb: 64,
                file_bytes: 16 << 20,
                reader_ops: 192_000,
                writer_ops: 48_000,
                fsync_every: 64,
            },
        }
    }

    /// A small plan of the same shape, for tests.
    #[cfg(test)]
    pub fn tiny(workload: Workload) -> Self {
        match workload {
            Workload::SeqStream => Plan::Seq {
                memory_mb: 2,
                files: 4,
                file_bytes: 2 << 20,
                passes: 2,
            },
            Workload::KvZipf => Plan::Kv {
                memory_mb: 1,
                keys: 128,
                record_pages: 8,
                probes: 400,
            },
            Workload::SharedRw => Plan::Shared {
                memory_mb: 8,
                file_bytes: 2 << 20,
                reader_ops: 600,
                writer_ops: 200,
                fsync_every: 16,
            },
        }
    }

    fn memory_mb(&self) -> u64 {
        match *self {
            Plan::Seq { memory_mb, .. }
            | Plan::Kv { memory_mb, .. }
            | Plan::Shared { memory_mb, .. } => memory_mb,
        }
    }
}

/// One operation of a client's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read `len` bytes of file `file` at `offset`.
    Read { file: usize, offset: u64, len: u64 },
    /// Write `len` bytes of file `file` at `offset`.
    Write { file: usize, offset: u64, len: u64 },
    /// `fsync` file `file`.
    Fsync { file: usize },
}

/// Everything the seed decides: file sizes and each client's op list.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs are for.
    pub workload: Workload,
    /// The seed they were drawn from.
    pub seed: u64,
    /// Page-cache budget of the booted OS.
    pub memory_mb: u64,
    /// `(path, bytes)` of every file, created before the clients start.
    pub files: Vec<(String, u64)>,
    /// One op list per client thread.
    pub clients: Vec<Vec<Op>>,
}

impl Inputs {
    /// Draws the inputs of `workload` under `plan` from `seed`.
    pub fn generate(workload: Workload, plan: Plan, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (files, clients) = match plan {
            Plan::Seq {
                files,
                file_bytes,
                passes,
                ..
            } => {
                let paths = (0..files)
                    .map(|i| (format!("/seq/{i}"), file_bytes))
                    .collect();
                let mut order: Vec<usize> = (0..files as usize).collect();
                let mut ops = Vec::new();
                for _ in 0..passes {
                    // Each pass visits the files in a fresh seeded order,
                    // so how much of the previous pass the cache still
                    // holds depends on the seed.
                    shuffle(&mut order, &mut rng);
                    for &file in &order {
                        ops.extend((0..file_bytes / IO_BYTES).map(|k| Op::Read {
                            file,
                            offset: k * IO_BYTES,
                            len: IO_BYTES,
                        }));
                    }
                }
                (paths, vec![ops])
            }
            Plan::Kv {
                keys,
                record_pages,
                probes,
                ..
            } => {
                let bytes = keys * (1 + record_pages) * PAGE_SIZE;
                // Each key owns one record slot after the index region; a
                // seeded shuffle places them, so key order says nothing
                // about data order.
                let mut slot: Vec<u64> = (0..keys).collect();
                shuffle(&mut slot, &mut rng);
                let zipf = Zipfian::new(keys, KV_THETA);
                let mut ops = Vec::new();
                for _ in 0..probes {
                    let key = zipf.sample(&mut rng);
                    ops.push(Op::Read {
                        file: 0,
                        offset: key * PAGE_SIZE,
                        len: PAGE_SIZE,
                    });
                    let base = (keys + slot[key as usize] * record_pages) * PAGE_SIZE;
                    ops.extend((0..record_pages).map(|j| Op::Read {
                        file: 0,
                        offset: base + j * PAGE_SIZE,
                        len: PAGE_SIZE,
                    }));
                }
                (vec![("/kv".to_string(), bytes)], vec![ops])
            }
            Plan::Shared {
                file_bytes,
                reader_ops,
                writer_ops,
                fsync_every,
                ..
            } => {
                let slots = file_bytes / IO_BYTES;
                let first = rng.gen_range(0..slots);
                let reader = (0..reader_ops)
                    .map(|k| Op::Read {
                        file: 0,
                        offset: (first + k) % slots * IO_BYTES,
                        len: IO_BYTES,
                    })
                    .collect();
                let mut writer = Vec::new();
                for k in 1..=writer_ops {
                    writer.push(Op::Write {
                        file: 0,
                        offset: rng.gen_range(0..slots) * IO_BYTES,
                        len: IO_BYTES,
                    });
                    if k % fsync_every == 0 {
                        writer.push(Op::Fsync { file: 0 });
                    }
                }
                (
                    vec![("/shared".to_string(), file_bytes)],
                    vec![reader, writer],
                )
            }
        };
        Self {
            workload,
            seed,
            memory_mb: plan.memory_mb(),
            files,
            clients,
        }
    }

    /// Reads and writes the clients issue (`fsync` is not counted).
    pub fn io_ops(&self) -> u64 {
        self.clients
            .iter()
            .flatten()
            .filter(|op| !matches!(op, Op::Fsync { .. }))
            .count() as u64
    }
}

/// A booted system holding the workload's files, filled and cold.
pub struct World {
    /// The runtime under test.
    pub runtime: Runtime,
    /// Host seconds the set-up took.
    pub setup_s: f64,
}

/// The mechanism under test: the paper's full CrossP[+predict+opt] with
/// every opt-in knob at its default.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(Mode::PredictOpt)
}

/// Boots a fresh OS and runtime, creates the files, fills them with the
/// seed's pattern and drops the caches.
pub fn setup(inputs: &Inputs) -> World {
    let start = Instant::now();
    let os = Os::new(
        OsConfig::with_memory_mb(inputs.memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let runtime = Runtime::new(Arc::clone(&os), runtime_config());
    let mut page = vec![0u8; PAGE_SIZE as usize];
    for (path, bytes) in &inputs.files {
        let ino = os.fs().create_sized(path, *bytes).expect("fresh namespace");
        for p in 0..bytes / PAGE_SIZE {
            fill_page(&mut page, inputs.seed, p, 0);
            os.store_content(ino, p * PAGE_SIZE, &page);
        }
    }
    let mut clock = runtime.new_clock();
    os.drop_caches(&mut clock);
    runtime.drop_cache_view(&mut clock);
    World {
        runtime,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// What one client's closed loop observed.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Virtual latency of each read, in issue order.
    pub read_ns: Vec<u64>,
    /// Virtual latency of each write, in issue order.
    pub write_ns: Vec<u64>,
    /// Bytes the reads returned.
    pub bytes_read: u64,
    /// Bytes the writes accepted.
    pub bytes_written: u64,
    /// Virtual time from the client's first op to its last return.
    pub virtual_ns: u64,
    /// Ops that returned an error or failed their content check.
    pub failed: u64,
    /// Reads issued.
    pub issued_reads: u64,
    /// Writes issued.
    pub issued_writes: u64,
    /// `(offset, generation)` of each completed write, in issue order.
    pub writes: Vec<(u64, u64)>,
}

/// The outcome of one run: per-client logs and the host time they took.
#[derive(Debug)]
pub struct RunLog {
    /// One log per client, in client order.
    pub clients: Vec<ClientLog>,
    /// Host seconds from the clients' start to the last one's end.
    pub host_s: f64,
}

impl RunLog {
    /// The reading client: client 0 of every workload.
    pub fn reader(&self) -> &ClientLog {
        &self.clients[0]
    }

    /// Reads and writes issued across clients.
    pub fn attempted(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.issued_reads + c.issued_writes)
            .sum()
    }

    /// Failed ops across clients.
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }
}

/// Runs every client's closed loop to completion. One client runs on the
/// calling thread; several start together on threads of their own.
pub fn drive(world: &World, inputs: &Inputs) -> RunLog {
    let runtime = &world.runtime;
    let start_ns = runtime.os().global().now();
    let start = Instant::now();
    let clients = if inputs.clients.len() == 1 {
        vec![run_client(runtime, inputs, 0, start_ns, None)]
    } else {
        let pacer = Pacer::new(inputs.clients.len(), start_ns);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..inputs.clients.len())
                .map(|c| {
                    let pacer = &pacer;
                    scope.spawn(move || run_client(runtime, inputs, c, start_ns, Some(pacer)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    RunLog {
        clients,
        host_s: start.elapsed().as_secs_f64(),
    }
}

fn run_client(
    runtime: &Runtime,
    inputs: &Inputs,
    client: usize,
    start_ns: u64,
    pacer: Option<&Pacer>,
) -> ClientLog {
    let mut clock = ThreadClock::starting_at(Arc::clone(runtime.os().global()), start_ns);
    let files: Vec<_> = inputs
        .files
        .iter()
        .map(|(path, _)| runtime.open(&mut clock, path).expect("set-up created it"))
        .collect();
    if let Some(pacer) = pacer {
        pacer.start.wait();
    }
    let seed = inputs.seed;
    let phase = splitmix64(seed ^ client as u64) % CONTENT_SAMPLE_EVERY;
    let mut log = ClientLog::default();
    let mut generation = 0u64;
    let begin = clock.now();
    for (k, op) in inputs.clients[client].iter().enumerate() {
        if let Some(pacer) = pacer {
            pacer.pace(client, clock.now());
        }
        match *op {
            Op::Read { file, offset, len } => {
                log.issued_reads += 1;
                let before = clock.now();
                let sampled = k as u64 % CONTENT_SAMPLE_EVERY == phase;
                let result = if sampled {
                    files[file]
                        .try_read(&mut clock, offset, len)
                        .map(|buf| (buf.len() as u64, check_content(&buf, seed, offset)))
                } else {
                    files[file]
                        .try_read_charge(&mut clock, offset, len)
                        .map(|outcome| (outcome.bytes, true))
                };
                log.read_ns.push(clock.now() - before);
                match result {
                    Ok((bytes, content_ok)) => {
                        log.bytes_read += bytes;
                        if bytes != len || !content_ok {
                            log.failed += 1;
                        }
                    }
                    Err(_) => log.failed += 1,
                }
            }
            Op::Write { file, offset, len } => {
                log.issued_writes += 1;
                generation += 1;
                let mut data = vec![0u8; len as usize];
                for (i, chunk) in data.chunks_mut(PAGE_SIZE as usize).enumerate() {
                    fill_page(chunk, seed, offset / PAGE_SIZE + i as u64, generation);
                }
                let before = clock.now();
                let result = files[file].try_write(&mut clock, offset, &data);
                log.write_ns.push(clock.now() - before);
                match result {
                    Ok(written) if written == len => {
                        log.bytes_written += written;
                        log.writes.push((offset, generation));
                    }
                    _ => log.failed += 1,
                }
            }
            Op::Fsync { file } => files[file].fsync(&mut clock),
        }
    }
    if let Some(pacer) = pacer {
        pacer.finish(client);
    }
    runtime.flush_prefetch_batches(&mut clock);
    log.virtual_ns = (clock.now() - begin).max(1);
    log
}

/// Keeps concurrent clients within [`SKEW_NS`] of each other in virtual
/// time. The model's locks and device queues serve requests in the order
/// threads reach them on the host, so a thread that ran far ahead in
/// virtual time would meet the other's requests out of virtual order,
/// and what the clients contend on would follow host scheduling.
struct Pacer {
    /// Each client's virtual time at its latest op; `u64::MAX` once done.
    clocks: Vec<AtomicU64>,
    /// Releases the clients together once each has opened its files.
    start: Barrier,
}

impl Pacer {
    fn new(clients: usize, start_ns: u64) -> Self {
        Self {
            clocks: (0..clients).map(|_| AtomicU64::new(start_ns)).collect(),
            start: Barrier::new(clients),
        }
    }

    /// Publishes that `client` is at virtual time `now`, then waits until
    /// no unfinished client lags it by more than [`SKEW_NS`]. The client
    /// furthest behind never waits, so the clients cannot deadlock.
    fn pace(&self, client: usize, now: u64) {
        // The clocks publish no other data: Relaxed suffices.
        self.clocks[client].store(now, Ordering::Relaxed);
        while self
            .clocks
            .iter()
            .any(|other| other.load(Ordering::Relaxed).saturating_add(SKEW_NS) < now)
        {
            std::thread::yield_now();
        }
    }

    /// Marks `client` done, so it holds no one back.
    fn finish(&self, client: usize) {
        self.clocks[client].store(u64::MAX, Ordering::Relaxed);
    }
}

/// Writes page `page`'s content for `generation` into `out`: a header
/// of (generation, page index) and a body derived from both and the
/// seed, so any whole page read back identifies itself.
fn fill_page(out: &mut [u8], seed: u64, page: u64, generation: u64) {
    let base = page_base(seed, page, generation);
    for (j, word) in out.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&page_word(base, page, generation, j).to_le_bytes());
    }
}

fn page_base(seed: u64, page: u64, generation: u64) -> u64 {
    splitmix64(seed ^ page.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ generation.rotate_left(40))
}

fn page_word(base: u64, page: u64, generation: u64, j: usize) -> u64 {
    match j {
        0 => generation,
        1 => page,
        _ => base ^ (j as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
    }
}

/// Whether every page of `buf`, read at `offset`, is a whole page the
/// fill or some write produced for that very page.
fn check_content(buf: &[u8], seed: u64, offset: u64) -> bool {
    if !offset.is_multiple_of(PAGE_SIZE) || !(buf.len() as u64).is_multiple_of(PAGE_SIZE) {
        return false;
    }
    buf.chunks_exact(PAGE_SIZE as usize)
        .enumerate()
        .all(|(i, chunk)| {
            let page = offset / PAGE_SIZE + i as u64;
            let generation = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte header"));
            let base = page_base(seed, page, generation);
            chunk.chunks_exact(8).enumerate().all(|(j, w)| {
                u64::from_le_bytes(w.try_into().expect("8-byte word"))
                    == page_word(base, page, generation, j)
            })
        })
}

/// Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// SplitMix64 finalizer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Telemetry of a finished run: before and after the settling cache
/// drop that closes the prefetch-quality books.
pub struct Settled {
    /// Snapshot right after the clients finished.
    pub live: RuntimeReport,
    /// Snapshot after `drop_caches`.
    pub settled: RuntimeReport,
}

/// Drops the caches to settle the books and snapshots telemetry.
pub fn settle(world: &World) -> Settled {
    let runtime = &world.runtime;
    let live = RuntimeReport::collect(runtime);
    let mut clock = runtime.new_clock();
    runtime.os().drop_caches(&mut clock);
    Settled {
        live,
        settled: RuntimeReport::collect(runtime),
    }
}

/// Runs the output checks of one finished, settled run. Returns one
/// message per failed check.
pub fn check_run(world: &World, inputs: &Inputs, log: &RunLog, books: &Settled) -> Vec<String> {
    let mut failures = Vec::new();
    let runtime = &world.runtime;
    let stats = runtime.stats();
    let reads: u64 = log.clients.iter().map(|c| c.issued_reads).sum();
    let writes: u64 = log.clients.iter().map(|c| c.issued_writes).sum();
    if stats.reads.get() != reads || stats.writes.get() != writes {
        failures.push(format!(
            "LibStats counted {} reads / {} writes, clients issued {reads} / {writes}",
            stats.reads.get(),
            stats.writes.get()
        ));
    }
    let q = books.settled.prefetch_quality;
    if q.timely + q.late + q.wasted != books.settled.pages_initiated {
        failures.push(format!(
            "prefetch quality unbalanced: timely {} + late {} + wasted {} != initiated {}",
            q.timely, q.late, q.wasted, books.settled.pages_initiated
        ));
    }
    let os = runtime.os();
    let s = os.stats();
    let (dirtied, back, dropped, dirty) = (
        s.dirtied_pages.get(),
        s.written_back_pages.get(),
        s.dropped_dirty_pages.get(),
        os.mem().dirty(),
    );
    if dirtied != back + dropped + dirty {
        failures.push(format!(
            "dirty ledger unbalanced: dirtied {dirtied} != written back {back} + dropped {dropped} + dirty {dirty}"
        ));
    }
    if writes > 0 && dirtied == 0 {
        failures.push("writes dirtied no pages".to_string());
    }
    // Every written slot ends holding exactly its last write.
    let ino = os.fs().lookup(&inputs.files[0].0).expect("file exists");
    let mut last = std::collections::BTreeMap::new();
    for client in &log.clients {
        last.extend(client.writes.iter().copied());
    }
    let (mut got, mut want) = (vec![0u8; IO_BYTES as usize], vec![0u8; IO_BYTES as usize]);
    for (&offset, &generation) in &last {
        os.fetch_content(ino, offset, &mut got);
        for (i, page) in want.chunks_mut(PAGE_SIZE as usize).enumerate() {
            fill_page(page, inputs.seed, offset / PAGE_SIZE + i as u64, generation);
        }
        if got != want {
            failures.push(format!(
                "the slot at byte {offset} does not hold its last write (generation {generation})"
            ));
            break;
        }
    }
    if log.failed() > 0 {
        failures.push(format!("{} ops failed", log.failed()));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs_and_seeds_differ() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, Plan::tiny(w), 3);
            let b = Inputs::generate(w, Plan::tiny(w), 3);
            let c = Inputs::generate(w, Plan::tiny(w), 4);
            assert_eq!(a.clients, b.clients, "{}", w.name());
            assert_ne!(a.clients, c.clients, "{}", w.name());
        }
    }

    #[test]
    fn pages_identify_themselves() {
        let mut page = vec![0u8; PAGE_SIZE as usize];
        fill_page(&mut page, 9, 12, 3);
        assert!(check_content(&page, 9, 12 * PAGE_SIZE));
        assert!(!check_content(&page, 9, 13 * PAGE_SIZE));
        assert!(!check_content(&page, 8, 12 * PAGE_SIZE));
        page[100] ^= 1;
        assert!(!check_content(&page, 9, 12 * PAGE_SIZE));
    }
}
