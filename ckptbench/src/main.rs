//! `ckptbench` — the repository's end-to-end benchmark of the NVMe-CR
//! checkpoint/restart stack.
//!
//! ```text
//! ckptbench --workload <nn_bulk|meta_small|rep2_delta|crash_explore>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ckptbench --describe
//! ```
//!
//! Each run builds the stack from scratch in this process and drives it
//! only through its public calls, timing each from outside. `--trace 0`
//! prints every end-to-end metric; `--trace 1` runs the workload twice —
//! untraced, then under `telemetry::capture` — and prints every per-layer
//! metric and the per-layer self-time table. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A failed call, a restored byte that differs from what was
//! written, fabric retries or CRC errors, or a crash-point invariant
//! violation make the run fail: `correct` is false and the exit code is 1.

mod attrib;
mod catalog;
mod explore;
mod host;
mod stats;
mod storage;

use std::collections::BTreeMap;
use std::time::Instant;

use attrib::{attribute, spans_in, Attribution, Carve};
use host::Interval;
use storage::{
    BenchResult, Body, Inject, PassOut, Restart, Spec, Tally, PHASE_EXPLORE, PHASE_RESTART,
    PHASE_ROUND,
};
use telemetry::{Trace, TraceEvent};

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;
const GIB: f64 = (1u64 << 30) as f64;

/// Share of `--seconds` the crash-exploration workload's reference
/// checkpoint campaign may run for, on top of the crash points' budget.
const CRASH_CAMPAIGN_SHARE: f64 = 0.3;

/// Every timed part of a run: rounds, restart cycles, crash points.
const ALL_PHASES: [u64; 3] = [PHASE_ROUND, PHASE_RESTART, PHASE_EXPLORE];

/// Largest share of the traced run's worker time the benchmark's own
/// code may take. Beyond it the per-layer numbers no longer describe the
/// stack, so the run fails.
const UNATTRIBUTED_MAX: f64 = 0.2;

fn spec(workload: &str) -> Option<Spec> {
    // One full compute node of the paper's testbed on one SSD. Eight
    // rounds of 28 ranks put at least ten per-rank samples beyond p95.
    let node = Spec {
        ranks: 28,
        block_size: 32 << 10,
        replication: 1,
        delta_chain_max: 0,
        segment: 16 << 20,
        body: Body::Files {
            dir: false,
            files: 1,
            file_bytes: 4 * MIB,
            write_bytes: MIB,
        },
        restart: Restart::Recover,
        restart_every: 3,
        min_rounds: 8,
        min_restarts: 2,
    };
    Some(match workload {
        "nn_bulk" => node,
        "meta_small" => Spec {
            block_size: 4 << 10,
            body: Body::Files {
                dir: true,
                files: 64,
                file_bytes: 16 * KIB,
                write_bytes: 16 * KIB,
            },
            ..node
        },
        // A failover cycle costs as much as dozens of rounds: space them
        // so rounds still fill a good part of the run.
        "rep2_delta" => Spec {
            replication: 2,
            delta_chain_max: 4,
            body: Body::Delta {
                image: 4 * MIB,
                write_bytes: MIB,
                chunk: 64 * KIB,
                dirty: 6,
            },
            restart: Restart::Failover,
            restart_every: 12,
            min_rounds: 24,
            ..node
        },
        // The crash universe's stack and epoch (two replicated ranks
        // sharing a grant, delta chains, 3 × 256 KiB fresh files per
        // epoch) run without crashes: the reference campaign of
        // `crash_explore`.
        "crash_explore" => Spec {
            ranks: 2,
            replication: 2,
            delta_chain_max: 4,
            body: Body::Files {
                dir: false,
                files: 3,
                file_bytes: 256 * KIB,
                write_bytes: 256 * KIB,
            },
            restart_every: 10,
            min_rounds: 40,
            min_restarts: 4,
            ..node
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--describe") {
        return Ok(None);
    }
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.trim_start_matches("--").to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if spec(&args.workload).is_none() {
        return Err(format!("unknown workload {}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(args))
}

/// Metric values by name, in catalog units.
type Metrics = BTreeMap<&'static str, f64>;

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One workload run's measurements, whatever the workload.
struct Run {
    storage: PassOut,
    explore: Option<explore::ExploreOut>,
    trace: Option<Trace>,
}

/// What one run executes: a storage workload, optionally followed by
/// crash exploration.
struct Plan {
    spec: Spec,
    explore: bool,
    seed: u64,
    seconds: f64,
}

impl Plan {
    fn of(args: &Args) -> Plan {
        Plan {
            spec: spec(&args.workload).expect("workload checked at parse"),
            explore: args.workload == "crash_explore",
            seed: args.seed,
            seconds: args.seconds,
        }
    }
}

fn run_once(plan: &Plan, inject: Inject, tally: &Tally, traced: bool) -> BenchResult<Run> {
    let go = || -> BenchResult<Run> {
        if !plan.explore {
            return Ok(Run {
                storage: storage::run_pass(&plan.spec, plan.seed, plan.seconds, inject, tally)?,
                explore: None,
                trace: None,
            });
        }
        // The reference campaign gets a fixed share of the time budget
        // (it stops at its minimum rounds at the earliest); crash points
        // get the whole budget.
        let campaign = CRASH_CAMPAIGN_SHARE * plan.seconds;
        let storage = storage::run_pass(&plan.spec, plan.seed, campaign, inject, tally)?;
        let explore = explore::run(plan.seed, plan.seconds, storage::workers(), tally)?;
        Ok(Run {
            storage,
            explore: Some(explore),
            trace: None,
        })
    };
    if traced {
        let (run, trace) = telemetry::capture(go);
        let mut run = run?;
        run.trace = Some(trace);
        Ok(run)
    } else {
        go()
    }
}

/// End-to-end metrics. Wall metrics are net of the hypervisor's steal
/// (see `host`), with the kept share taken over all the intervals a
/// metric summarises; `setup_s` is raw, its intervals being shorter than
/// the steal counter's tick.
fn end_to_end(run: &Run) -> Metrics {
    let s = &run.storage;
    let app = s.app_bytes() as f64;
    let rounds_kept = Interval::kept_share(&s.round_times());
    let round_ms: Vec<f64> = s.rounds.iter().map(|r| r.time.wall * 1e3).collect();
    let cpu: f64 = s.rounds.iter().map(|r| r.time.cpu).sum();
    let mut m = Metrics::new();
    // The median round's rate: steadier under host noise than the total
    // over all rounds, which one stalled round can move.
    let rates: Vec<f64> = s
        .rounds
        .iter()
        .map(|r| r.app_bytes as f64 / r.time.wall / 1e9)
        .collect();
    m.insert("ckpt_gbps", stats::median(&rates) / rounds_kept);
    m.insert("ckpt_round_ms_p50", stats::median(&round_ms) * rounds_kept);
    let restart_wall: Vec<f64> = s.restarts.iter().map(|r| r.wall).collect();
    let restarts_kept = Interval::kept_share(&s.restarts);
    m.insert("restart_s", stats::median(&restart_wall) * restarts_kept);
    m.insert("cpu_s_per_gib", cpu / (app / GIB));
    m.insert(
        "device_bytes_per_app_byte",
        s.round_delta.ssd_bytes_written as f64 / app,
    );
    m.insert("modeled_ckpt_gibps", app / GIB / s.round_delta.modeled_secs);
    match &run.explore {
        Some(x) => {
            let count_wall: Vec<f64> = x.counts.iter().map(|c| c.wall).collect();
            m.insert(
                "setup_s",
                stats::median(&count_wall) * Interval::kept_share(&x.counts),
            );
            m.insert(
                "crash_points_per_s",
                x.points.len() as f64 / (x.time.wall * Interval::kept_share(&[x.time])),
            );
        }
        None => {
            m.insert("setup_s", stats::median(&s.setup_s));
            // A storage workload's crash points are its restart cycles:
            // every rank crashed, recovered and verified.
            m.insert(
                "crash_points_per_s",
                s.restarts.len() as f64 / (restart_wall.iter().sum::<f64>() * restarts_kept),
            );
        }
    }
    m.insert("peak_rss_mib", host::peak_rss_mib());
    m
}

fn attribution(run: &Run, phases: &[u64]) -> Attribution {
    let s = &run.storage;
    let events = run.trace.as_ref().expect("traced run").events();
    let mut d = s.round_delta.clone();
    let mut wall = s.round_wall();
    if phases.contains(&PHASE_RESTART) {
        wall = s.measured_wall;
        d.merge(&s.restart_delta);
    }
    if let Some(x) = run
        .explore
        .as_ref()
        .filter(|_| phases.contains(&PHASE_EXPLORE))
    {
        wall += x.time.wall;
    }
    let mirrored_fabric: u64 = spans_in(events, phases)
        .iter()
        .filter(|(e, _)| e.cat == "fabric" && e.name == "submit_mirrored")
        .map(|(e, _)| e.dur_ns)
        .sum();
    let carves = [
        Carve {
            layer: "ssd",
            from: "fabric",
            secs: (d.hist_sum_ns("ssd.write_ns") + d.hist_sum_ns("ssd.read_ns")) as f64 * 1e-9,
        },
        Carve {
            layer: "replication",
            from: "microfs",
            secs: d
                .hist_sum_ns("replication.mirror_ns")
                .saturating_sub(mirrored_fabric) as f64
                * 1e-9,
        },
    ];
    attribute(events, phases, s.workers, wall, &carves)
}

fn per_layer(untraced: &Run, run: &Run) -> (Metrics, Attribution) {
    let s = &run.storage;
    let events = run.trace.as_ref().expect("traced run").events();
    let app = s.app_bytes() as f64;
    let gib = app / GIB;
    let rounds = s.rounds.len() as f64;
    let d = &s.round_delta;
    let mut m = Metrics::new();
    m.insert("runtime.init_ms", stats::median(&s.init_ms));
    m.insert(
        "ckpt_rank_ms_p95",
        stats::percentile(&untraced.storage.rank_ms, 95.0),
    );
    let round_spans = spans_in(events, &[PHASE_ROUND]);
    let restart_spans = spans_in(events, &[PHASE_RESTART]);
    // Pool idle in the rounds' parallel drives.
    let (mut busy, mut cap, mut seen) = (0u64, 0u64, std::collections::BTreeSet::new());
    for (e, c) in &round_spans {
        if c.name == "for_each_rank_par" {
            if e.cat == "bench" && e.name == "rank" {
                busy += e.dur_ns;
            }
            if seen.insert(c.id) {
                cap += c.dur_ns * s.workers as u64;
            }
        }
    }
    m.insert(
        "runtime.round_idle_frac",
        1.0 - ratio(busy as f64, cap as f64),
    );
    m.insert("runtime.recover_ranks_ms", stats::median(&s.recover_ms));
    for (name, op) in [
        ("microfs.mkdir_us_p50", "mkdir"),
        ("microfs.create_us_p50", "create"),
        ("microfs.fsync_us_p50", "fsync"),
        ("microfs.close_us_p50", "close"),
        ("microfs.unlink_us_p50", "unlink"),
    ] {
        let us: Vec<f64> = round_spans
            .iter()
            .filter(|(e, _)| e.cat == "microfs" && e.name == op)
            .map(|(e, _)| e.dur_ns as f64 * 1e-3)
            .collect();
        m.insert(name, stats::median(&us));
    }
    let gbps = |spans: &[(&TraceEvent, &TraceEvent)], ops: &[&str]| {
        let (bytes, ns) = spans
            .iter()
            .filter(|(e, _)| e.cat == "microfs" && ops.contains(&e.name))
            .fold((0u64, 0u64), |(b, t), (e, _)| {
                (b + attrib::arg(e, "bytes").unwrap_or(0), t + e.dur_ns)
            });
        ratio(bytes as f64, ns as f64)
    };
    m.insert(
        "microfs.write_gbps",
        gbps(&round_spans, &["write", "pwrite"]),
    );
    m.insert("microfs.read_gbps", gbps(&restart_spans, &["read"]));
    let (app_recs, coalesced) = (
        d.counter("microfs.wal_appended") as f64,
        d.counter("microfs.wal_coalesced") as f64,
    );
    m.insert(
        "microfs.coalesce_ratio",
        ratio(coalesced, app_recs + coalesced),
    );
    let r = &s.restart_delta;
    m.insert(
        "microfs.replay_us_per_record",
        ratio(
            r.hist_sum_ns("microfs.replay_ns") as f64 * 1e-3,
            r.counter("microfs.replay_records") as f64,
        ),
    );
    m.insert(
        "fabric.cmds_per_mib",
        ratio(d.counter("fabric.io_ops") as f64, app / MIB as f64),
    );
    m.insert(
        "fabric.copy_bytes_per_app_byte",
        ratio(d.counter("fabric.bytes_copied") as f64, app),
    );
    for c in ["retries", "crc_errors", "timeouts"] {
        let name = format!("fabric.{c}");
        let v = d.counter(&name) + r.counter(&name);
        m.insert(catalog::find(&name).name, v as f64);
    }
    m.insert("ssd.write_cmds", ratio(d.ssd_writes as f64, rounds));
    m.insert(
        "ssd.avg_write_kib",
        ratio(d.ssd_bytes_written as f64 / KIB as f64, d.ssd_writes as f64),
    );
    m.insert(
        "ssd.lock_wait_ms",
        ratio(d.counter("ssd.lock_wait_ns") as f64 * 1e-6, rounds),
    );
    let rounds_attr = attribution(run, &[PHASE_ROUND]);
    for (name, l) in [
        ("fabric.self_ms_per_gib", "fabric"),
        ("ssd.self_ms_per_gib", "ssd"),
    ] {
        let secs = rounds_attr.self_s.get(l).copied().unwrap_or(0.0);
        m.insert(name, ratio(secs * 1e3, gib));
    }
    m.insert("replication.commit_ms_p50", stats::median(&s.commit_ms));
    m.insert(
        "replication.mirror_bytes_per_app_byte",
        ratio(d.counter("replication.bytes") as f64, app),
    );
    m.insert(
        "replication.copy_up_bytes_per_app_byte",
        ratio(d.counter("cow.copy_up_bytes") as f64, app),
    );
    m.insert("replication.failover_ms_p50", stats::median(&s.failover_ms));
    m.insert(
        "replication.restore_mbps",
        ratio(
            s.restored_bytes as f64 / 1e6,
            s.failover_ms.iter().sum::<f64>() * 1e-3,
        ),
    );
    m.insert("replication.chain_len_peak", s.chain_len_peak as f64);
    let (count_ms, point_ms, late_early) = match &run.explore {
        Some(x) => {
            let ms: Vec<f64> = x.points.iter().map(|p| p.ms).collect();
            let fifth = |lo: u64, hi: u64| -> Vec<f64> {
                x.points
                    .iter()
                    .filter(|p| p.index * 5 >= lo * x.total_ops && p.index * 5 < hi * x.total_ops)
                    .map(|p| p.ms)
                    .collect()
            };
            (
                stats::median(&x.counts.iter().map(|c| c.wall * 1e3).collect::<Vec<_>>())
                    * Interval::kept_share(&x.counts),
                stats::median(&ms),
                ratio(stats::median(&fifth(4, 5)), stats::median(&fifth(0, 1))),
            )
        }
        None => (0.0, 0.0, 0.0),
    };
    m.insert("crashverse.count_ms", count_ms);
    m.insert("crashverse.point_ms_p50", point_ms);
    m.insert("crashverse.late_early_ratio", late_early);
    m.insert(
        "telemetry.trace_overhead_frac",
        trace_overhead(untraced, run),
    );
    let all = attribution(run, &ALL_PHASES);
    m.insert("unattributed_frac", all.unattributed_frac());
    (m, all)
}

/// Extra wall time the traced run took for the same work: rounds (and
/// crash points) both runs completed, traced over untraced, minus one.
fn trace_overhead(untraced: &Run, traced: &Run) -> f64 {
    let common = |a: &[f64], b: &[f64]| {
        let n = a.len().min(b.len());
        (a[..n].iter().sum::<f64>(), b[..n].iter().sum::<f64>())
    };
    let walls = |r: &Run| {
        r.storage
            .rounds
            .iter()
            .map(|x| x.time.wall)
            .collect::<Vec<_>>()
    };
    let (mut u, mut t) = common(&walls(untraced), &walls(traced));
    if let (Some(xu), Some(xt)) = (&untraced.explore, &traced.explore) {
        // Both runs claim points in the same order; compare the mean
        // point time over the same number of points.
        let n = xu.points.len().min(xt.points.len()) as f64;
        let mean = |x: &explore::ExploreOut| {
            x.points.iter().map(|p| p.ms).sum::<f64>() / x.points.len() as f64
        };
        u += mean(xu) * n * 1e-3;
        t += mean(xt) * n * 1e-3;
    }
    ratio(t, u) - 1.0
}

fn print_metrics(workload: &str, m: &Metrics) {
    for (name, v) in m {
        let c = catalog::find(name);
        println!(
            "{workload:<14} {name:<40} {v:>14.6} {:<12} [{}]",
            c.unit,
            c.clock.label()
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let metrics: Vec<String> = m
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                catalog::find(name).unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Run the workload and compute the metrics `--trace` asks for. Returns
/// the metrics, plus the number of failures the checks found beyond
/// those the tally counted.
fn measure(args: &Args, inject: Inject, tally: &Tally) -> BenchResult<(Metrics, u64)> {
    let plan = Plan::of(args);
    let untraced = run_once(&plan, inject, tally, false)?;
    let s = &untraced.storage;
    println!(
        "{:<14} warm-up round (not timed): {:.1} ms, {:.1} MiB",
        args.workload,
        s.warmup.time.wall * 1e3,
        s.warmup.app_bytes as f64 / MIB as f64
    );
    println!(
        "{:<14} {} timed rounds, {} restart cycles, {} ranks on {} workers, {:.1} MiB restored and verified",
        args.workload,
        s.rounds.len(),
        s.restarts.len(),
        s.rank_ms.len() / s.rounds.len().max(1),
        s.workers,
        s.verified_bytes as f64 / MIB as f64
    );
    println!(
        "{:<14} the hypervisor stole {:.2}% of each CPU's time in the timed rounds and {:.2}% in the restarts; wall metrics are net of it",
        args.workload,
        100.0 * (1.0 - Interval::kept_share(&s.round_times())),
        100.0 * (1.0 - Interval::kept_share(&s.restarts))
    );
    println!(
        "{:<14} per-rank call p50 {:.3} ms, p95 {:.3} ms over {} samples, {} beyond p95",
        args.workload,
        stats::percentile(&s.rank_ms, 50.0),
        stats::percentile(&s.rank_ms, 95.0),
        s.rank_ms.len(),
        stats::beyond(&s.rank_ms, 95.0)
    );
    if let Some(x) = &untraced.explore {
        println!(
            "{:<14} universe of {} ops; {} crash points on {} threads, {} violations",
            args.workload,
            x.total_ops,
            x.points.len(),
            x.threads,
            x.violations.len()
        );
        for v in &x.violations {
            println!("{:<14} violation: {v}", args.workload);
        }
    }
    let mut extra = fabric_faults(&untraced);
    if !args.trace {
        return Ok((end_to_end(&untraced), extra));
    }
    let traced = run_once(&plan, inject, tally, true)?;
    extra += fabric_faults(&traced);
    let (m, all) = per_layer(&untraced, &traced);
    print!("{}", all.table(&args.workload));
    if !attribution_ok(&all) {
        println!(
            "{:<14} FAIL: {:.1}% of worker time is unattributed (limit {:.0}%)",
            args.workload,
            100.0 * all.unattributed_frac(),
            100.0 * UNATTRIBUTED_MAX
        );
        extra += 1;
    }
    Ok((m, extra))
}

/// Does the stack, not the benchmark's own code, account for the traced
/// worker time?
fn attribution_ok(a: &Attribution) -> bool {
    a.unattributed_frac() <= UNATTRIBUTED_MAX
}

/// Fabric retries, CRC errors and timeouts: none may occur on a clean
/// workload.
fn fabric_faults(run: &Run) -> u64 {
    let s = &run.storage;
    ["fabric.retries", "fabric.crc_errors", "fabric.timeouts"]
        .iter()
        .map(|c| s.round_delta.counter(c) + s.restart_delta.counter(c))
        .sum()
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", catalog::describe());
            return;
        }
        Err(e) => {
            eprintln!("ckptbench: {e}");
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    let tally = Tally::default();
    let result = measure(&args, Inject::default(), &tally);
    let (attempted, mut failed) = tally.get();
    let metrics = match result {
        Ok((m, extra)) => {
            failed += extra;
            m
        }
        Err(e) => {
            println!("{:<14} FAIL: {e}", args.workload);
            failed = failed.max(1);
            Metrics::new()
        }
    };
    let finite = metrics.values().all(|v| v.is_finite());
    let correct = failed == 0 && finite && !metrics.is_empty();
    print_metrics(&args.workload, &metrics);
    println!(
        "{:<14} op_fail_ratio = {} ({failed} failed of {attempted} attempted) [count]; run took {:.1} s",
        args.workload,
        ratio(failed as f64, attempted as f64),
        t.elapsed().as_secs_f64()
    );
    if !finite {
        println!(
            "{:<14} FAIL: a metric is not a finite number",
            args.workload
        );
    }
    if correct {
        println!("{}", json_line(true, attempted.max(1), failed, &metrics));
    } else {
        let finite_only: Metrics = metrics.into_iter().filter(|(_, v)| v.is_finite()).collect();
        println!(
            "{}",
            json_line(false, attempted.max(1), failed, &finite_only)
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Traced and untraced runs share the process-wide trace switch, so
    /// the tests run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn tiny() -> Plan {
        Plan {
            spec: Spec {
                ranks: 4,
                block_size: 32 << 10,
                replication: 1,
                delta_chain_max: 0,
                segment: 16 << 20,
                body: Body::Files {
                    dir: false,
                    files: 2,
                    file_bytes: 64 * KIB,
                    write_bytes: 16 * KIB,
                },
                restart: Restart::Recover,
                restart_every: 1,
                min_rounds: 3,
                min_restarts: 1,
            },
            explore: false,
            seed: 7,
            seconds: 0.0,
        }
    }

    #[test]
    fn wrong_expected_payload_fails_verification() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let clean = Tally::default();
        let run = run_once(&tiny(), Inject::default(), &clean, false).unwrap();
        assert_eq!(clean.get().1, 0);
        assert!(run.storage.verified_bytes > 0);
        let wrong = Tally::default();
        let inject = Inject {
            corrupt_expected: true,
            ..Inject::default()
        };
        run_once(&tiny(), inject, &wrong, false).unwrap();
        // Rank 0 fails its verify in every restart cycle.
        assert_eq!(wrong.get().1, 3);
    }

    #[test]
    fn wrapper_delay_trips_the_attribution_check() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let plan = tiny();
        let clean = run_once(&plan, Inject::default(), &Tally::default(), true).unwrap();
        let a = attribution(&clean, &ALL_PHASES);
        assert!(attribution_ok(&a), "{}", a.table("clean"));
        let delay = Duration::from_millis(2);
        let inject = Inject {
            wrapper_delay: delay,
            ..Inject::default()
        };
        let slow = run_once(&plan, inject, &Tally::default(), true).unwrap();
        let a = attribution(&slow, &ALL_PHASES);
        assert!(!attribution_ok(&a), "{}", a.table("delayed"));
        // The timers see the delay too: every rank makes at least 14
        // calls a round, shared among the workers.
        let floor = 14.0 * 4.0 * delay.as_secs_f64() * 1e3 / clean.storage.workers as f64;
        let walls: Vec<f64> = slow
            .storage
            .rounds
            .iter()
            .map(|r| r.time.wall * 1e3)
            .collect();
        let round = stats::median(&walls);
        assert!(round >= floor, "round {round} ms < {floor} ms");
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want = |ms: &[catalog::Metric]| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(&catalog::END_TO_END));
        assert_eq!(names("per_layer"), want(&catalog::PER_LAYER));
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = catalog::WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, want);
        for w in &catalog::WORKLOADS {
            assert!(spec(w.name).is_some(), "{} has no spec", w.name);
        }
    }
}
