//! What the benchmark reports: each workload with the reason it exists,
//! and each metric with its clock, unit, better direction and layer. For
//! a per-layer metric, `moves` names the end-to-end metrics it should
//! move and `on` the workloads where it should move them.
//! `BENCHMARK.json` carries the subset of this table its schema allows;
//! a test keeps the two in step.

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time of the real code.
    Wall,
    /// Process user + system CPU time.
    Cpu,
    /// Peak resident memory.
    Memory,
    /// Device service time from the calibrated SSD model over measured
    /// IO counts.
    Modeled,
    /// A count or a ratio of counts.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Memory => "memory",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "nn_bulk",
        why: "28 ranks write a fresh 4 MiB file each round: payload bytes dominate (capsule CRC, target decode, SSD copies), WAL records are few",
    },
    Workload {
        name: "meta_small",
        why: "28 ranks create 64 files of 16 KiB in a fresh directory each round on 4 KiB blocks: per-operation metadata and WAL replay dominate",
    },
    Workload {
        name: "rep2_delta",
        why: "28 replicated ranks pwrite 10% of a 4 MiB image per delta epoch; restart restores every rank from its replica after the shared primary dies",
    },
    Workload {
        name: "crash_explore",
        why: "crash points of the default crash universe, each re-executing its prefix and recovering: the only workload that reaches crashverse",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: &'static str,
    pub layer: &'static str,
    pub moves: &'static [&'static str],
    pub on: &'static [&'static str],
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        layer: "end_to_end",
        moves: &[],
        on: &[],
    }
}

const ALL: &[&str] = &["nn_bulk", "meta_small", "rep2_delta", "crash_explore"];
const STORAGE: &[&str] = &["nn_bulk", "meta_small", "rep2_delta"];

#[allow(clippy::too_many_arguments)]
const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
    layer: &'static str,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        layer,
        moves,
        on,
    }
}

use Clock::{Count, Cpu, Memory, Modeled, Wall};

pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Wall, "lower"),
    e2e("ckpt_gbps", "GB/s", Wall, "higher"),
    e2e("ckpt_round_ms_p50", "ms", Wall, "lower"),
    e2e("restart_s", "s", Wall, "lower"),
    e2e("cpu_s_per_gib", "s/GiB", Cpu, "lower"),
    e2e("peak_rss_mib", "MiB", Memory, "lower"),
    e2e("device_bytes_per_app_byte", "B/B", Count, "lower"),
    e2e("modeled_ckpt_gibps", "GiB/s", Modeled, "higher"),
    e2e("crash_points_per_s", "1/s", Wall, "higher"),
];

const ROUND: &[&str] = &["ckpt_round_ms_p50"];
const FAIL: &[&str] = &["op_fail_ratio"];

/// `ckpt_rank_ms_p95` is what a rank sees, not one layer's, but its tail
/// moves by a third between runs with the hypervisor's steal time on a
/// shared host, too much for a regression bound; it is reported here,
/// without one.
pub const PER_LAYER: [Metric; 34] = [
    layer(
        "ckpt_rank_ms_p95",
        "ms",
        Wall,
        "lower",
        "end_to_end",
        &[],
        ALL,
    ),
    layer(
        "runtime.init_ms",
        "ms",
        Wall,
        "lower",
        "runtime",
        &["setup_s"],
        ALL,
    ),
    layer(
        "runtime.round_idle_frac",
        "frac",
        Wall,
        "lower",
        "runtime",
        ROUND,
        &["meta_small"],
    ),
    layer(
        "runtime.recover_ranks_ms",
        "ms",
        Wall,
        "lower",
        "runtime",
        &["restart_s"],
        &["nn_bulk", "meta_small"],
    ),
    layer(
        "microfs.mkdir_us_p50",
        "us",
        Wall,
        "lower",
        "microfs",
        ROUND,
        &["meta_small"],
    ),
    layer(
        "microfs.create_us_p50",
        "us",
        Wall,
        "lower",
        "microfs",
        ROUND,
        &["meta_small"],
    ),
    layer(
        "microfs.fsync_us_p50",
        "us",
        Wall,
        "lower",
        "microfs",
        ROUND,
        &["meta_small"],
    ),
    layer(
        "microfs.close_us_p50",
        "us",
        Wall,
        "lower",
        "microfs",
        ROUND,
        &["meta_small"],
    ),
    layer(
        "microfs.unlink_us_p50",
        "us",
        Wall,
        "lower",
        "microfs",
        ROUND,
        &["meta_small"],
    ),
    layer(
        "microfs.write_gbps",
        "GB/s",
        Wall,
        "higher",
        "microfs",
        &["ckpt_gbps"],
        &["nn_bulk", "rep2_delta"],
    ),
    layer(
        "microfs.read_gbps",
        "GB/s",
        Wall,
        "higher",
        "microfs",
        &["restart_s"],
        &["nn_bulk"],
    ),
    layer(
        "microfs.coalesce_ratio",
        "frac",
        Count,
        "higher",
        "microfs",
        ROUND,
        &["meta_small"],
    ),
    layer(
        "microfs.replay_us_per_record",
        "us",
        Wall,
        "lower",
        "microfs",
        &["restart_s"],
        &["meta_small"],
    ),
    layer(
        "fabric.cmds_per_mib",
        "1/MiB",
        Count,
        "lower",
        "fabric",
        &["ckpt_gbps", "modeled_ckpt_gibps"],
        &["meta_small"],
    ),
    layer(
        "fabric.copy_bytes_per_app_byte",
        "B/B",
        Count,
        "lower",
        "fabric",
        &["cpu_s_per_gib"],
        &["nn_bulk"],
    ),
    layer(
        "fabric.self_ms_per_gib",
        "ms/GiB",
        Wall,
        "lower",
        "fabric",
        &["cpu_s_per_gib"],
        &["nn_bulk"],
    ),
    layer(
        "fabric.retries",
        "count",
        Count,
        "lower",
        "fabric",
        FAIL,
        ALL,
    ),
    layer(
        "fabric.crc_errors",
        "count",
        Count,
        "lower",
        "fabric",
        FAIL,
        ALL,
    ),
    layer(
        "fabric.timeouts",
        "count",
        Count,
        "lower",
        "fabric",
        FAIL,
        ALL,
    ),
    layer(
        "ssd.write_cmds",
        "count/round",
        Count,
        "lower",
        "ssd",
        &["modeled_ckpt_gibps", "device_bytes_per_app_byte"],
        STORAGE,
    ),
    layer(
        "ssd.avg_write_kib",
        "KiB",
        Count,
        "higher",
        "ssd",
        &["modeled_ckpt_gibps", "device_bytes_per_app_byte"],
        STORAGE,
    ),
    layer(
        "ssd.lock_wait_ms",
        "ms/round",
        Wall,
        "lower",
        "ssd",
        ROUND,
        STORAGE,
    ),
    layer(
        "ssd.self_ms_per_gib",
        "ms/GiB",
        Wall,
        "lower",
        "ssd",
        &["cpu_s_per_gib"],
        &["nn_bulk"],
    ),
    layer(
        "replication.commit_ms_p50",
        "ms",
        Wall,
        "lower",
        "replication",
        ROUND,
        &["rep2_delta"],
    ),
    layer(
        "replication.mirror_bytes_per_app_byte",
        "B/B",
        Count,
        "lower",
        "replication",
        &["device_bytes_per_app_byte", "ckpt_gbps"],
        &["rep2_delta"],
    ),
    layer(
        "replication.copy_up_bytes_per_app_byte",
        "B/B",
        Count,
        "lower",
        "replication",
        &["device_bytes_per_app_byte", "ckpt_gbps"],
        &["rep2_delta"],
    ),
    layer(
        "replication.failover_ms_p50",
        "ms",
        Wall,
        "lower",
        "replication",
        &["restart_s"],
        &["rep2_delta"],
    ),
    layer(
        "replication.restore_mbps",
        "MB/s",
        Wall,
        "higher",
        "replication",
        &["restart_s"],
        &["rep2_delta"],
    ),
    layer(
        "replication.chain_len_peak",
        "count",
        Count,
        "lower",
        "replication",
        &[],
        &["rep2_delta"],
    ),
    layer(
        "crashverse.count_ms",
        "ms",
        Wall,
        "lower",
        "crashverse",
        &["setup_s"],
        &["crash_explore"],
    ),
    layer(
        "crashverse.point_ms_p50",
        "ms",
        Wall,
        "lower",
        "crashverse",
        &["crash_points_per_s"],
        &["crash_explore"],
    ),
    layer(
        "crashverse.late_early_ratio",
        "ratio",
        Wall,
        "lower",
        "crashverse",
        &["crash_points_per_s"],
        &["crash_explore"],
    ),
    layer(
        "telemetry.trace_overhead_frac",
        "frac",
        Wall,
        "lower",
        "telemetry",
        &[],
        ALL,
    ),
    layer("unattributed_frac", "frac", Wall, "lower", "none", &[], ALL),
];

/// A metric's catalog entry, by name.
pub fn find(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// The catalog as text: every workload with its reason, every metric
/// with clock, unit, direction, layer and what it should move where.
pub fn describe() -> String {
    let mut s = String::from("workloads:\n");
    for w in &WORKLOADS {
        s += &format!("  {:<14} {}\n", w.name, w.why);
    }
    s += "end-to-end metrics (name, clock, unit, better):\n";
    for m in &END_TO_END {
        s += &format!(
            "  {:<28} {:<8} {:<8} {}\n",
            m.name,
            m.clock.label(),
            m.unit,
            m.better
        );
    }
    s +=
        "per-layer metrics (name, layer, clock, unit, better -> end-to-end metric on workloads):\n";
    for m in &PER_LAYER {
        s += &format!(
            "  {:<40} {:<12} {:<8} {:<12} {:<6} -> {} on {}\n",
            m.name,
            m.layer,
            m.clock.label(),
            m.unit,
            m.better,
            if m.moves.is_empty() {
                "-".to_string()
            } else {
                m.moves.join(", ")
            },
            m.on.join(", ")
        );
    }
    s
}
