//! Per-layer self time from a captured trace.
//!
//! The unit is worker-thread time. While the driving thread is inside a
//! timed runtime call of wall time `d`, the process has `workers × d` of
//! thread time to spend (more, if the call's spans claim more). Every
//! span that starts inside the call, on any thread, claims its self time
//! (its duration minus that of its direct children) for its layer. What
//! the call's spans leave unclaimed — the driving thread's own work and
//! wait, and worker threads that are idle or running code no span
//! covers — belongs to the layer that owns the call. Time in the
//! benchmark's own spans (`bench`), and time between calls, is claimed
//! by no layer: that is the `unattributed` line.
//!
//! Two layers run under another layer's spans without spans of their
//! own: the SSD model runs inside fabric submissions, and the mirror's
//! CRC and bookkeeping inside filesystem calls. Their histogram-timed
//! time is moved out of the enclosing layer ([`Carve`]).

use std::collections::BTreeMap;

use telemetry::trace::EventKind;
use telemetry::TraceEvent;

/// The repository's modules that the benchmark attributes time to.
pub const LAYERS: [&str; 6] = [
    "runtime",
    "microfs",
    "fabric",
    "ssd",
    "replication",
    "crashverse",
];

/// The layer a span belongs to; `None` for the benchmark's own spans.
fn layer_of(e: &TraceEvent) -> Option<&'static str> {
    match (e.cat, e.name) {
        ("driver", "fail_over_rank") => Some("replication"),
        ("driver", _) => Some("runtime"),
        (cat, _) => LAYERS.iter().find(|l| **l == cat).copied(),
    }
}

/// The value of a span's argument `key`.
pub fn arg(e: &TraceEvent, key: &str) -> Option<u64> {
    e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// The benchmark's spans around timed calls of the given phases, in
/// start order.
fn calls<'a>(events: &'a [TraceEvent], phases: &[u64]) -> Vec<&'a TraceEvent> {
    let mut calls: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::Span && arg(e, "call").is_some_and(|p| phases.contains(&p))
        })
        .collect();
    calls.sort_by_key(|e| e.ts_ns);
    calls
}

/// Every other span that starts inside one of those calls, on any
/// thread, with the call. Calls are sequential on the driving thread, so
/// a span's call is the last one starting at or before it.
pub fn spans_in<'a>(
    events: &'a [TraceEvent],
    phases: &[u64],
) -> Vec<(&'a TraceEvent, &'a TraceEvent)> {
    let calls = calls(events, phases);
    events
        .iter()
        .filter(|e| e.kind == EventKind::Span && arg(e, "call").is_none())
        .filter_map(|e| {
            let i = calls.partition_point(|c| c.ts_ns <= e.ts_ns);
            let c = *calls.get(i.checked_sub(1)?)?;
            (e.ts_ns < c.ts_ns + c.dur_ns).then_some((e, c))
        })
        .collect()
}

/// Time measured by a layer's histogram inside another layer's spans.
pub struct Carve {
    pub layer: &'static str,
    pub from: &'static str,
    pub secs: f64,
}

/// Self time per layer over the timed calls of one traced pass.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Worker-thread seconds available: workers × measured wall.
    pub capacity_s: f64,
    pub self_s: BTreeMap<&'static str, f64>,
    pub unattributed_s: f64,
}

impl Attribution {
    pub fn frac(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0) / self.capacity_s
    }

    pub fn unattributed_frac(&self) -> f64 {
        self.unattributed_s / self.capacity_s
    }

    /// The per-layer self-time table, one line per layer.
    pub fn table(&self, title: &str) -> String {
        let mut s = format!(
            "self time per layer, {title} (worker-thread ms; {:.1} ms available)\n",
            self.capacity_s * 1e3
        );
        for l in LAYERS {
            s += &format!(
                "  {l:<13} {:>10.1} ms {:>6.1}%\n",
                self.self_s.get(l).copied().unwrap_or(0.0) * 1e3,
                100.0 * self.frac(l)
            );
        }
        s += &format!(
            "  {:<13} {:>10.1} ms {:>6.1}%\n",
            "unattributed",
            self.unattributed_s * 1e3,
            100.0 * self.unattributed_frac()
        );
        s
    }
}

/// Attribute the spans of the calls whose phase is in `phases`.
/// `region_wall` is the wall time of the measured region those calls lie
/// in (calls plus the benchmark's work between them).
pub fn attribute(
    events: &[TraceEvent],
    phases: &[u64],
    workers: usize,
    region_wall: f64,
    carves: &[Carve],
) -> Attribution {
    let w = workers as f64;
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        if let Some(p) = e.parent {
            *child_ns.entry(p).or_default() += e.dur_ns;
        }
    }
    let mut out = Attribution {
        capacity_s: w * region_wall,
        ..Attribution::default()
    };
    // Self time each call's spans claim, by call span id.
    let mut claimed: BTreeMap<u64, f64> = BTreeMap::new();
    let mut bench_s = 0.0;
    for (e, c) in spans_in(events, phases) {
        let self_s = e
            .dur_ns
            .saturating_sub(child_ns.get(&e.id).copied().unwrap_or(0)) as f64
            * 1e-9;
        *claimed.entry(c.id).or_default() += self_s;
        match layer_of(e) {
            Some(l) => *out.self_s.entry(l).or_default() += self_s,
            None => bench_s += self_s,
        }
    }
    let mut calls_wall = 0.0;
    for c in calls(events, phases) {
        let wall = c.dur_ns as f64 * 1e-9;
        calls_wall += wall;
        let claimed = claimed.get(&c.id).copied().unwrap_or(0.0);
        // A call that runs more threads than cores (crash points recover
        // on a pool of their own) has the thread time its spans claim.
        let cap = (w * wall).max(claimed);
        out.capacity_s += cap - w * wall;
        let owner = layer_of(c).unwrap_or("runtime");
        *out.self_s.entry(owner).or_default() += cap - claimed;
    }
    for carve in carves {
        let from = out.self_s.entry(carve.from).or_default();
        let moved = carve.secs.min(*from).max(0.0);
        *from -= moved;
        *out.self_s.entry(carve.layer).or_default() += moved;
    }
    out.unattributed_s = w * (region_wall - calls_wall).max(0.0) + bench_s;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn ev(
        cat: &'static str,
        name: &'static str,
        tid: usize,
        ts: u64,
        dur: u64,
        id: u64,
        parent: Option<u64>,
        call: Option<u64>,
    ) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            kind: EventKind::Span,
            tid,
            ts_ns: ts,
            dur_ns: dur,
            id,
            parent,
            args: call.map(|p| vec![("call", p)]).unwrap_or_default(),
        }
    }

    #[test]
    fn self_time_sums_to_capacity() {
        // One 100 ns parallel call on 2 workers; worker 2 runs a 60 ns
        // microfs call with a 40 ns fabric submit inside, 10 ns of which
        // the SSD histogram measured; worker 3 runs 30 ns of benchmark
        // code. 20 ns of the region lies outside the call.
        let events = vec![
            ev("runtime", "for_each_rank_par", 1, 20, 100, 1, None, Some(1)),
            ev("microfs", "write", 2, 25, 60, 2, None, None),
            ev("fabric", "submit", 2, 30, 40, 3, Some(2), None),
            ev("bench", "rank", 3, 25, 30, 4, None, None),
            // An untimed call and its spans are ignored.
            ev("runtime", "for_each_rank_par", 1, 200, 50, 5, None, Some(0)),
            ev("microfs", "write", 2, 210, 10, 6, None, None),
        ];
        let carve = [Carve {
            layer: "ssd",
            from: "fabric",
            secs: 10e-9,
        }];
        let a = attribute(&events, &[1], 2, 120e-9, &carve);
        let ns = |l: &str| (a.self_s.get(l).copied().unwrap_or(0.0) * 1e9).round();
        assert_eq!(ns("microfs"), 20.0);
        assert_eq!(ns("fabric"), 30.0);
        assert_eq!(ns("ssd"), 10.0);
        // 200 ns of capacity minus 60 + 30 claimed by spans.
        assert_eq!(ns("runtime"), 110.0);
        // 30 ns of benchmark code plus 2 × 20 ns outside the call.
        assert_eq!((a.unattributed_s * 1e9).round(), 70.0);
        let total: f64 = a.self_s.values().sum::<f64>() + a.unattributed_s;
        assert!((total - a.capacity_s).abs() < 1e-12);
    }
}
