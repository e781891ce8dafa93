//! The storage workloads: bulk-synchronous checkpoint rounds of every rank
//! through `NvmeCrRuntime::for_each_rank_par`, with periodic restart
//! cycles that crash (or kill the storage under) every rank, bring it back
//! and byte-verify what it restores.
//!
//! The loop is closed: a round starts only when the previous one has
//! returned. Every input — payload bytes, dirty-chunk choices — is
//! generated from the seed before the timed call that consumes it, so the
//! stack only ever receives generated inputs. Every call into the stack is
//! timed from outside and, while a trace is being captured, wrapped in a
//! span named after the layer it enters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cluster::{JobRequest, Scheduler, Topology};
use microfs::{FsError, MicroFs, OpenFlags};
use nvmecr::runtime::{NvmeCrRuntime, RuntimeError, StorageRack};
use nvmecr::{NvmfBlockDevice, RuntimeConfig};
use simkit::rng::derive_seed;
use ssd::SsdConfig;
use telemetry::{MetricsSnapshot, Telemetry};

use crate::host::{Interval, Stamp};

type Fs = MicroFs<NvmfBlockDevice>;

/// What one rank does in one checkpoint round.
#[derive(Clone, Copy, Debug)]
pub enum Body {
    /// Write `files` fresh files of `file_bytes` each in `write_bytes`
    /// calls (create, write…, fsync, close), optionally inside a fresh
    /// per-round directory, and unlink the files of two rounds earlier.
    Files {
        dir: bool,
        files: u32,
        file_bytes: usize,
        write_bytes: usize,
    },
    /// One `image`-byte file written in full in the warm-up round; every
    /// later round `pwrite`s `dirty` seeded `chunk`-byte chunks of it.
    Delta {
        image: usize,
        write_bytes: usize,
        chunk: usize,
        dirty: usize,
    },
}

/// How a restart cycle takes the ranks down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Restart {
    /// `crash_rank` every rank, then `recover_ranks` (snapshot + WAL
    /// replay, plus mirror rescan when replicated).
    Recover,
    /// `kill_primary_shard` under every rank, then `crash_rank` +
    /// `fail_over_rank` per rank (restore from the replica).
    Failover,
}

/// A storage workload's shape.
#[derive(Clone, Debug)]
pub struct Spec {
    pub ranks: u32,
    pub block_size: u64,
    pub replication: u32,
    pub delta_chain_max: u32,
    /// Bytes of namespace per rank. The SSD model keeps every written
    /// block in RAM until the circular hugeblock pool wraps, so this
    /// bounds the run's memory.
    pub segment: u64,
    pub body: Body,
    pub restart: Restart,
    /// Timed rounds between restart cycles.
    pub restart_every: u32,
    pub min_rounds: u32,
    pub min_restarts: u32,
}

/// Faults the self-test injects into the benchmark's own code to show
/// that its checks can fail.
#[derive(Clone, Copy, Debug, Default)]
pub struct Inject {
    /// Flip one byte of rank 0's expected payload before verification.
    pub corrupt_expected: bool,
    /// Sleep this long in the benchmark-owned wrapper of every
    /// filesystem call, outside any layer's span.
    pub wrapper_delay: Duration,
}

/// Attempted and failed public calls, verifies and crash points.
#[derive(Default)]
pub struct Tally {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
}

impl Tally {
    pub fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn get(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }
}

/// The `call` argument of a benchmark span around a runtime call: which
/// part of the run it belongs to. Attribution only looks at timed calls.
pub const PHASE_UNTIMED: u64 = 0;
pub const PHASE_ROUND: u64 = 1;
pub const PHASE_RESTART: u64 = 2;
pub const PHASE_EXPLORE: u64 = 3;

/// Setups per run; `setup_s` is their median. A setup takes a few
/// milliseconds and the first few in a process run slower, so many are
/// taken.
pub const SETUP_REPS: usize = 31;

/// Registry counters and histogram sums, plus per-SSD IO counters: what
/// a probe reads before and after a timed call.
struct Probe {
    snap: MetricsSnapshot,
    io: Vec<(u64, u64, u64, u64)>,
}

/// Accumulated differences between probes.
#[derive(Default, Clone, Debug)]
pub struct Delta {
    counters: std::collections::BTreeMap<String, u64>,
    hist_sum: std::collections::BTreeMap<String, u64>,
    pub ssd_writes: u64,
    pub ssd_bytes_written: u64,
    /// Modeled device time: per call, the busiest SSD's service time.
    pub modeled_secs: f64,
}

impl Delta {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist_sum_ns(&self, name: &str) -> u64 {
        self.hist_sum.get(name).copied().unwrap_or(0)
    }

    pub fn merge(&mut self, other: &Delta) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.hist_sum {
            *self.hist_sum.entry(k.clone()).or_default() += v;
        }
        self.ssd_writes += other.ssd_writes;
        self.ssd_bytes_written += other.ssd_bytes_written;
        self.modeled_secs += other.modeled_secs;
    }

    fn add(&mut self, cfg: &SsdConfig, a: &Probe, b: &Probe) {
        for (k, v) in &b.snap.counters {
            *self.counters.entry(k.clone()).or_default() += v - a.snap.counter(k);
        }
        for (k, h) in &b.snap.histograms {
            let before = a.snap.histogram(k).map_or(0, |h| h.sum);
            *self.hist_sum.entry(k.clone()).or_default() += h.sum - before;
        }
        let mut busiest = 0f64;
        for (x, y) in a.io.iter().zip(&b.io) {
            let d = (y.0 - x.0, y.1 - x.1, y.2 - x.2, y.3 - x.3);
            self.ssd_writes += d.0;
            self.ssd_bytes_written += d.2;
            busiest = busiest.max(service_secs(cfg, d));
        }
        self.modeled_secs += busiest;
    }
}

/// Modeled device service time of one SSD's IO, in seconds: per-command
/// controller overhead plus bytes over the channel array — the formula
/// `nvmecr-dataplane` uses, with the same calibrated [`SsdConfig`].
pub fn service_secs(cfg: &SsdConfig, (writes, reads, bw, br): (u64, u64, u64, u64)) -> f64 {
    (writes + reads) as f64 * cfg.cmd_overhead.as_secs()
        + bw as f64 / cfg.write_bw().as_bytes_per_sec()
        + br as f64 / cfg.read_bw().as_bytes_per_sec()
}

/// One timed round.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRec {
    pub time: Interval,
    pub app_bytes: u64,
}

/// Everything one pass of a storage workload measured.
#[derive(Default, Debug)]
pub struct PassOut {
    pub setup_s: Vec<f64>,
    pub init_ms: Vec<f64>,
    pub warmup: RoundRec,
    pub rounds: Vec<RoundRec>,
    pub rank_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub restarts: Vec<Interval>,
    pub recover_ms: Vec<f64>,
    pub failover_ms: Vec<f64>,
    pub restored_bytes: u64,
    pub verified_bytes: u64,
    pub round_delta: Delta,
    pub restart_delta: Delta,
    pub chain_len_peak: i64,
    pub workers: usize,
    /// Wall time of the timed rounds and restart cycles.
    pub measured_wall: f64,
}

impl PassOut {
    pub fn app_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.app_bytes).sum()
    }

    pub fn round_wall(&self) -> f64 {
        self.rounds.iter().map(|r| r.time.wall).sum()
    }

    pub fn round_times(&self) -> Vec<Interval> {
        self.rounds.iter().map(|r| r.time).collect()
    }
}

/// Threads a parallel rank drive fans out to (the runtime's pool is
/// sized to the available cores).
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A live stack: devices, scheduler allocation and the job runtime.
struct Stack {
    topo: Topology,
    rack: StorageRack,
    rt: NvmeCrRuntime,
    telemetry: Telemetry,
}

/// The calibrated device with a 64 MiB per-namespace write buffer: the
/// default 2 GiB would hold a whole run's payload in staging RAM, so no
/// write would ever drain to the store.
fn ssd_config() -> SsdConfig {
    SsdConfig {
        capacity: 8 << 30,
        device_ram: 64 << 20,
        ..SsdConfig::default()
    }
}

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Rack build + scheduler + `NvmeCrRuntime::init`; returns the stack,
/// the whole setup's wall time and `init`'s alone.
fn build(spec: &Spec) -> BenchResult<(Stack, f64, f64)> {
    let t = Instant::now();
    let topo = Topology::paper_testbed();
    let telemetry = Telemetry::new();
    let rack = StorageRack::build_with_telemetry(&topo, &ssd_config(), telemetry.clone());
    let mut sched = Scheduler::new(topo.clone(), 8);
    let alloc = sched.submit(&JobRequest {
        procs: spec.ranks,
        procs_per_node: 28,
        storage_devices: 1,
    })?;
    let config = RuntimeConfig {
        block_size: spec.block_size,
        namespace_bytes: spec.segment * u64::from(spec.ranks),
        replication_factor: spec.replication,
        delta_chain_max: spec.delta_chain_max,
        telemetry: telemetry.clone(),
        ..RuntimeConfig::default()
    };
    let ti = Instant::now();
    let rt = NvmeCrRuntime::init(&rack, &topo, &alloc, config)?;
    let init = ti.elapsed().as_secs_f64();
    let stack = Stack {
        topo,
        rack,
        rt,
        telemetry,
    };
    Ok((stack, t.elapsed().as_secs_f64(), init))
}

/// Fill `buf` from the seed through `simkit::rng::derive_seed`, one
/// 64-bit word per derivation.
pub fn fill(buf: &mut [u8], seed: u64) {
    for (i, w) in buf.chunks_mut(8).enumerate() {
        let x = derive_seed(seed, i as u64).to_le_bytes();
        w.copy_from_slice(&x[..w.len()]);
    }
}

fn lane(seed: u64, rank: u32, round: u32, idx: u64) -> u64 {
    derive_seed(
        derive_seed(derive_seed(seed, u64::from(rank)), u64::from(round)),
        idx,
    )
}

/// One rank's generated input for one round.
#[derive(Default)]
struct RankInput {
    bytes: Vec<u8>,
    /// Chunk indices written this round (`Body::Delta` only).
    chunks: Vec<usize>,
}

/// Shared state of the benchmark-owned wrappers around stack calls.
struct Ctx<'a> {
    tally: &'a Tally,
    inject: Inject,
}

impl Ctx<'_> {
    /// Run one `MicroFs` call inside a `microfs` span.
    fn fs<T>(
        &self,
        name: &'static str,
        bytes: usize,
        f: impl FnOnce() -> Result<T, FsError>,
    ) -> Result<T, RuntimeError> {
        if !self.inject.wrapper_delay.is_zero() {
            std::thread::sleep(self.inject.wrapper_delay);
        }
        self.tally.attempt();
        let _span = telemetry::span("microfs", name).arg("bytes", bytes as u64);
        f().map_err(|e| {
            self.tally.fail();
            RuntimeError::Fs(e)
        })
    }

    /// Run one runtime call from the driving thread inside a span of the
    /// layer that owns it, returning its result and wall seconds.
    fn call<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        phase: u64,
        f: impl FnOnce() -> Result<T, RuntimeError>,
    ) -> Result<(T, f64), RuntimeError> {
        self.tally.attempt();
        let t = Instant::now();
        let r = {
            let _span = telemetry::span(layer, name).arg("call", phase);
            f()
        };
        let secs = t.elapsed().as_secs_f64();
        match r {
            Ok(v) => Ok((v, secs)),
            Err(e) => {
                self.tally.fail();
                Err(e)
            }
        }
    }
}

fn file_path(dir: bool, round: u32, i: u32) -> String {
    if dir {
        format!("/r{round:06}/f{i:03}")
    } else {
        format!("/r{round:06}_f{i:03}")
    }
}

const IMAGE: &str = "/image";

/// One rank's round: the calls a checkpointing process makes.
fn rank_round(
    ctx: &Ctx,
    body: Body,
    fs: &mut Fs,
    round: u32,
    input: &RankInput,
) -> Result<(), RuntimeError> {
    match body {
        Body::Files {
            dir,
            files,
            file_bytes,
            write_bytes,
        } => {
            if dir {
                let path = format!("/r{round:06}");
                ctx.fs("mkdir", 0, || fs.mkdir(&path, 0o755))?;
            }
            for i in 0..files {
                let path = file_path(dir, round, i);
                let data = &input.bytes[i as usize * file_bytes..][..file_bytes];
                let fd = ctx.fs("create", 0, || fs.create(&path, 0o644))?;
                for part in data.chunks(write_bytes) {
                    ctx.fs("write", part.len(), || fs.write(fd, part))?;
                }
                ctx.fs("fsync", 0, || fs.fsync(fd))?;
                ctx.fs("close", 0, || fs.close(fd))?;
            }
            if round >= 2 {
                for i in 0..files {
                    let path = file_path(dir, round - 2, i);
                    ctx.fs("unlink", 0, || fs.unlink(&path))?;
                }
            }
        }
        Body::Delta {
            write_bytes, chunk, ..
        } => {
            if round == 0 {
                let fd = ctx.fs("create", 0, || fs.create(IMAGE, 0o644))?;
                for part in input.bytes.chunks(write_bytes) {
                    ctx.fs("write", part.len(), || fs.write(fd, part))?;
                }
                ctx.fs("fsync", 0, || fs.fsync(fd))?;
                ctx.fs("close", 0, || fs.close(fd))?;
            } else {
                let fd = ctx.fs("open", 0, || fs.open(IMAGE, OpenFlags::RDWR, 0))?;
                for (&c, data) in input.chunks.iter().zip(input.bytes.chunks(chunk)) {
                    let off = (c * chunk) as u64;
                    ctx.fs("pwrite", data.len(), || fs.pwrite(fd, off, data))?;
                }
                ctx.fs("fsync", 0, || fs.fsync(fd))?;
                ctx.fs("close", 0, || fs.close(fd))?;
            }
        }
    }
    Ok(())
}

/// Read `path` back in `part`-byte calls, comparing each with the
/// matching slice of `expect`; the file must end exactly where `expect`
/// does.
fn verify_file(
    ctx: &Ctx,
    fs: &mut Fs,
    path: &str,
    expect: &[u8],
    part: usize,
    buf: &mut Vec<u8>,
) -> Result<bool, RuntimeError> {
    buf.resize(part, 0);
    let fd = ctx.fs("open", 0, || fs.open(path, OpenFlags::RDONLY, 0))?;
    let (mut off, mut same) = (0, true);
    loop {
        let n = ctx.fs("read", part, || fs.read(fd, buf))?;
        if n == 0 {
            break;
        }
        let _span = telemetry::span("bench", "compare");
        same &= expect.get(off..off + n) == Some(&buf[..n]);
        off += n;
    }
    ctx.fs("close", 0, || fs.close(fd))?;
    Ok(same && off == expect.len())
}

/// Run one pass of a storage workload for at least `seconds` of timed
/// work (and at least the spec's minimum rounds and restart cycles).
pub fn run_pass(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    inject: Inject,
    tally: &Tally,
) -> BenchResult<PassOut> {
    let mut out = PassOut {
        workers: workers(),
        ..PassOut::default()
    };
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous stack first: only one is ever resident.
        drop(stack.take());
        let (s, setup, init) = build(spec)?;
        out.setup_s.push(setup);
        out.init_ms.push(init * 1e3);
        stack = Some(s);
    }
    let cfg = ssd_config();
    let ctx = Ctx { tally, inject };
    let ranks = spec.ranks as usize;
    let mut inputs: Vec<RankInput> = (0..ranks).map(|_| RankInput::default()).collect();
    // Body::Delta: the round that last wrote each chunk of each rank.
    let (image, chunk) = match spec.body {
        Body::Delta { image, chunk, .. } => (image, chunk),
        Body::Files { .. } => (0, 1),
    };
    let read_bufs: Vec<Mutex<Vec<u8>>> = (0..ranks).map(|_| Mutex::new(Vec::new())).collect();
    let rank_ns: Vec<AtomicU64> = (0..ranks).map(|_| AtomicU64::new(0)).collect();

    let start = Instant::now();
    let mut next = stack;
    // A failover moves every rank off the namespace the ranks shared, so
    // the rounds after it would run on a different layout: each failover
    // cycle ends its stack, and the run goes on with a fresh one (set up
    // and warmed up again, untimed).
    let mut stack_no = 0u64;
    loop {
        let Stack {
            topo,
            rack,
            mut rt,
            telemetry,
        } = match next.take() {
            Some(s) => s,
            None => build(spec)?.0,
        };
        let seed = derive_seed(seed, stack_no);
        stack_no += 1;
        let targets: Vec<_> = topo
            .storage_nodes()
            .into_iter()
            .flat_map(|n| rack.targets_on(n))
            .map(|(_, t)| t)
            .collect();
        let probe = || Probe {
            snap: telemetry.snapshot(),
            io: targets.iter().map(|t| t.device().io_counters()).collect(),
        };
        let mut last_writer = vec![vec![0u32; image / chunk]; ranks];
        let mut round = 0u32;
        loop {
            // Generate this round's inputs before the timed call.
            for (rank, input) in inputs.iter_mut().enumerate() {
                let rank32 = rank as u32;
                match spec.body {
                    Body::Files {
                        files, file_bytes, ..
                    } => {
                        input.bytes.resize(files as usize * file_bytes, 0);
                        fill(&mut input.bytes, lane(seed, rank32, round, 0));
                    }
                    Body::Delta { dirty, .. } if round > 0 => {
                        // A seeded subset: the `dirty` chunks with the
                        // smallest derived keys.
                        let pick = lane(seed, rank32, round, u64::MAX);
                        let mut all: Vec<usize> = (0..image / chunk).collect();
                        all.sort_by_key(|&c| derive_seed(pick, c as u64));
                        all.truncate(dirty);
                        all.sort_unstable();
                        input.chunks = all;
                        input.bytes.resize(dirty * chunk, 0);
                        for (i, &c) in input.chunks.iter().enumerate() {
                            fill(
                                &mut input.bytes[i * chunk..][..chunk],
                                lane(seed, rank32, round, c as u64),
                            );
                            last_writer[rank][c] = round;
                        }
                    }
                    Body::Delta { .. } => {
                        input.chunks = (0..image / chunk).collect();
                        input.bytes.resize(image, 0);
                        for c in 0..image / chunk {
                            fill(
                                &mut input.bytes[c * chunk..][..chunk],
                                lane(seed, rank32, 0, c as u64),
                            );
                        }
                    }
                }
            }
            let app_bytes: u64 = inputs.iter().map(|i| i.bytes.len() as u64).sum();
            let phase = if round == 0 {
                PHASE_UNTIMED
            } else {
                PHASE_ROUND
            };
            let p0 = probe();
            let t0 = Stamp::now();
            let inputs_ref = &inputs;
            let rank_ns_ref = &rank_ns;
            let ctx_ref = &ctx;
            let body = spec.body;
            ctx.call("runtime", "for_each_rank_par", phase, || {
                rt.for_each_rank_par(|rank, fs| {
                    let t = Instant::now();
                    let r = {
                        let _span = telemetry::span("bench", "rank");
                        rank_round(ctx_ref, body, fs, round, &inputs_ref[rank as usize])
                    };
                    rank_ns_ref[rank as usize]
                        .store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    r
                })
            })?;
            if spec.replication > 1 {
                let (_, secs) =
                    ctx.call("replication", "commit_epochs", phase, || rt.commit_epochs())?;
                if round > 0 {
                    out.commit_ms.push(secs * 1e3);
                }
            }
            let rec = RoundRec {
                time: t0.elapsed(),
                app_bytes,
            };
            let p1 = probe();
            if round == 0 {
                out.warmup = rec;
            } else {
                out.rounds.push(rec);
                out.round_delta.add(&cfg, &p0, &p1);
                out.measured_wall += rec.time.wall;
                out.rank_ms.extend(
                    rank_ns
                        .iter()
                        .map(|n| n.load(Ordering::Relaxed) as f64 * 1e-6),
                );
            }
            let restart_due = round > 0 && round.is_multiple_of(spec.restart_every);
            let failed_over = restart_due && spec.restart == Restart::Failover;
            if restart_due {
                // Expected bytes are prepared before the clock starts. For
                // fresh files they are the round's inputs, still in memory.
                let mut images: Vec<Vec<u8>> = match spec.body {
                    Body::Files { .. } => Vec::new(),
                    Body::Delta { .. } => (0..ranks)
                        .map(|rank| {
                            let mut img = vec![0u8; image];
                            for (c, &w) in last_writer[rank].iter().enumerate() {
                                fill(
                                    &mut img[c * chunk..][..chunk],
                                    lane(seed, rank as u32, w, c as u64),
                                );
                            }
                            img
                        })
                        .collect(),
                };
                let mut expected: Vec<&mut [u8]> = match spec.body {
                    Body::Files { .. } => inputs.iter_mut().map(|i| &mut i.bytes[..]).collect(),
                    Body::Delta { .. } => images.iter_mut().map(|i| &mut i[..]).collect(),
                };
                if inject.corrupt_expected {
                    expected[0][0] ^= 0x5A;
                }
                let p0 = probe();
                let t0 = Stamp::now();
                let all: Vec<u32> = (0..spec.ranks).collect();
                match spec.restart {
                    Restart::Recover => {
                        for &r in &all {
                            ctx.call("runtime", "crash_rank", PHASE_RESTART, || rt.crash_rank(r))?;
                        }
                        let (_, secs) =
                            ctx.call("runtime", "recover_ranks", PHASE_RESTART, || {
                                rt.recover_ranks(&all)
                            })?;
                        out.recover_ms.push(secs * 1e3);
                    }
                    Restart::Failover => {
                        for &r in &all {
                            ctx.call("replication", "kill_primary_shard", PHASE_RESTART, || {
                                rt.kill_primary_shard(r)
                            })?;
                        }
                        for &r in &all {
                            ctx.call("runtime", "crash_rank", PHASE_RESTART, || rt.crash_rank(r))?;
                            let (_, secs) =
                                ctx.call("replication", "fail_over_rank", PHASE_RESTART, || {
                                    rt.fail_over_rank(r, &rack, &topo)
                                })?;
                            out.failover_ms.push(secs * 1e3);
                            out.restored_bytes += image as u64;
                        }
                    }
                }
                let expected_ref = &expected;
                let bufs = &read_bufs;
                let verified = ctx.call("runtime", "map_ranks_par", PHASE_RESTART, || {
                    rt.map_ranks_par(|rank, fs| {
                        let _span = telemetry::span("bench", "rank");
                        let expect: &[u8] = expected_ref[rank as usize];
                        let mut buf = bufs[rank as usize].lock().expect("read buffer lock");
                        let mut bad = 0u64;
                        match body {
                            Body::Files {
                                dir,
                                files,
                                file_bytes,
                                write_bytes,
                            } => {
                                for i in 0..files {
                                    let path = file_path(dir, round, i);
                                    let want = &expect[i as usize * file_bytes..][..file_bytes];
                                    let ok = verify_file(
                                        ctx_ref,
                                        fs,
                                        &path,
                                        want,
                                        write_bytes,
                                        &mut buf,
                                    )?;
                                    bad += u64::from(!ok);
                                }
                            }
                            Body::Delta { write_bytes, .. } => {
                                let ok =
                                    verify_file(ctx_ref, fs, IMAGE, expect, write_bytes, &mut buf)?;
                                bad += u64::from(!ok);
                            }
                        }
                        Ok((bad, expect.len() as u64))
                    })
                })?;
                let time = t0.elapsed();
                let p1 = probe();
                out.restart_delta.add(&cfg, &p0, &p1);
                out.restarts.push(time);
                out.measured_wall += time.wall;
                for (bad, bytes) in verified.0 {
                    // One verify per rank: a mismatch anywhere fails it.
                    tally.attempt();
                    if bad > 0 {
                        tally.fail();
                    } else {
                        out.verified_bytes += bytes;
                    }
                }
            }
            round += 1;
            out.chain_len_peak = out
                .chain_len_peak
                .max(telemetry.gauge("cow.chain_len").peak());
            if out.rounds.len() >= spec.min_rounds as usize
                && out.restarts.len() >= spec.min_restarts as usize
                && start.elapsed().as_secs_f64() >= seconds
            {
                return Ok(out);
            }
            if failed_over {
                break;
            }
        }
    }
}
