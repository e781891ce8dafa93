//! The crash-exploration workload: crashverse's default universe, sized
//! with `count_universe`, then crash points run with `run_point` from at
//! most one thread per core until the time budget is spent.
//!
//! Points are taken in a low-discrepancy order over the op-index range —
//! index `⌊frac(u₀ + i·φ⁻¹)·N⌋` for the i-th point, with the offset `u₀`
//! drawn from the seed — so every prefix of the run samples early and
//! late indices alike, whichever point the budget stops at.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crashverse::{count_universe, run_point, UniverseConfig};
use simkit::rng::derive_seed;

use crate::host::{Interval, Stamp};
use crate::storage::{BenchResult, Tally, PHASE_EXPLORE};

/// Universe countings per run; `setup_s` is their median.
const COUNT_REPS: usize = 11;

/// At least this many points run, whatever the budget.
const MIN_POINTS: u64 = 8;

/// One executed crash point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub index: u64,
    pub ms: f64,
}

#[derive(Debug, Default)]
pub struct ExploreOut {
    pub counts: Vec<Interval>,
    pub total_ops: u64,
    pub points: Vec<Point>,
    pub violations: Vec<String>,
    pub time: Interval,
    pub threads: usize,
}

/// The `i`-th sampled op index of a universe of `total` ops.
fn sample_index(u0: f64, i: u64, total: u64) -> u64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let u = (u0 + i as f64 * INV_PHI).fract();
    ((u * total as f64) as u64).min(total - 1)
}

/// Size the universe (`COUNT_REPS` times, for a steady set-up time),
/// then run points until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, threads: usize, tally: &Tally) -> BenchResult<ExploreOut> {
    let cfg = UniverseConfig::default();
    let mut out = ExploreOut {
        threads,
        ..ExploreOut::default()
    };
    for _ in 0..COUNT_REPS {
        tally.attempt();
        let t = Stamp::now();
        let report = count_universe(&cfg).inspect_err(|_| tally.fail())?;
        out.counts.push(t.elapsed());
        out.total_ops = report.total;
    }
    let total = out.total_ops;
    if total == 0 {
        return Err("empty crash universe".into());
    }
    let u0 = (derive_seed(seed, 0xC2A5) >> 11) as f64 / (1u64 << 53) as f64;
    let next = AtomicU64::new(0);
    let done = Mutex::new((Vec::new(), Vec::new()));
    let start = Stamp::now();
    let begun = Instant::now();
    {
        let _span = telemetry::span("crashverse", "explore").arg("call", PHASE_EXPLORE);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= MIN_POINTS && begun.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    let k = sample_index(u0, i, total);
                    tally.attempt();
                    let t = Instant::now();
                    let verdict = {
                        let _span = telemetry::span("crashverse", "run_point").arg("op", k);
                        run_point(&cfg, k)
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let mut done = done.lock().expect("point log lock");
                    done.0.push(Point { index: k, ms });
                    if !verdict.passed {
                        tally.fail();
                        done.1.push(format!(
                            "op {k}: {}",
                            verdict.violation.unwrap_or_else(|| "violation".into())
                        ));
                    }
                });
            }
        });
    }
    out.time = start.elapsed();
    let (points, violations) = done.into_inner().expect("point log lock");
    out.points = points;
    out.violations = violations;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_spread_over_the_universe() {
        let total = 846;
        let idx: Vec<u64> = (0..20).map(|i| sample_index(0.3, i, total)).collect();
        assert!(idx.iter().all(|&k| k < total));
        // Any 20-point prefix lands in every fifth of the range.
        for fifth in 0..5 {
            let (lo, hi) = (fifth * total / 5, (fifth + 1) * total / 5);
            assert!(idx.iter().any(|&k| (lo..hi).contains(&k)), "fifth {fifth}");
        }
    }
}
