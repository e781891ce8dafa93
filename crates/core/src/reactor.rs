//! Shard-per-core reactor runtime: run-to-completion event loops that
//! multiplex many rank state machines onto a fixed set of cores. This is
//! the workspace's one fan-out: runtime init, recovery, restart,
//! whole-rank closures (`map_ranks_par`), multi-step rank machines
//! (`drive_reactor`) and the crash explorer's point scans all run here.
//!
//! N reactors — one per core — each own a **disjoint** set of tasks, dealt
//! round-robin (task i lives on reactor i mod N for the whole drive). A
//! rank's NVMf connection, QD>1 submission window and SSD shard queue
//! travel with its `MicroFs`, and each rank is a [`RankMachine`] advanced
//! by bounded steps instead of a blocked thread. A reactor's run queue and
//! its retired results are plain collections it owns outright, so no two
//! reactors share a lock or a channel.
//!
//! How a drive executes depends only on its width:
//!
//! * **One reactor** (or one reactor with work) runs inline on the
//!   calling thread. Same tasks + same config ⇒ identical step order,
//!   identical flight-recorder event sequence, identical QoS decisions:
//!   this is the deterministic, replayable drive.
//! * **N reactors** run on N scoped OS threads (`std::thread::scope`),
//!   each driving its shard to completion independently. Ownership is
//!   disjoint by construction, and storage outcomes match the inline
//!   drive — the parity tests hold the two equal.
//!
//! A drive started from inside another drive's task (recovery inside a
//! parallel closure, a crash point initialising its own runtime) runs
//! inline on the thread already executing that task, so nesting never
//! fans out past one pool's width.
//!
//! Admission control runs at reactor ingress: each reactor holds a
//! per-tenant token-bucket shard ([`QosConfig`]) sized to `quota / N`,
//! so admitting a step is one branch on core-local state — a noisy
//! tenant exhausts its own bucket and is deferred, never a lock that a
//! well-behaved tenant contends on.
//!
//! Telemetry: `reactor.{loops,events,idle_ns}` and
//! `qos.{throttled,admitted}` (see METRICS.md).

use std::cell::Cell;
use std::collections::VecDeque;
use std::time::Instant;

use telemetry::Telemetry;

use crate::runtime::RuntimeError;

thread_local! {
    /// Set while this thread executes a drive's tasks. A drive started
    /// under it runs inline instead of spawning another set of reactor
    /// threads: one pool's worth of threads, regardless of nesting depth.
    static IN_DRIVE: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a drive worker until dropped, restoring
/// the previous flag even if a machine panics.
struct DriveGuard(bool);

impl DriveGuard {
    fn enter() -> Self {
        DriveGuard(IN_DRIVE.with(|c| c.replace(true)))
    }
}

impl Drop for DriveGuard {
    fn drop(&mut self) {
        IN_DRIVE.with(|c| c.set(self.0));
    }
}

// ---------------------------------------------------------------------------
// Rank state machines
// ---------------------------------------------------------------------------

/// Outcome of one [`RankMachine::step`].
pub enum MachineStep<R> {
    /// More work remains; the reactor reschedules the rank after the rest
    /// of its shard gets a turn.
    Yield,
    /// The rank retired with its result.
    Done(R),
}

/// One rank's work, expressed as a resumable state machine over its
/// resource `F` (in the runtime, the rank's `MicroFs` — which owns the
/// rank's NVMf connection and submission window, so the whole per-rank
/// stack migrates with the task). A step is a *bounded* unit of work
/// (e.g. one checkpoint chunk): the reactor interleaves steps from many
/// ranks on one thread, so a machine must never block or spin.
pub trait RankMachine<F>: Send {
    /// The machine's result type.
    type Out: Send;

    /// Advance the rank by one bounded unit of work.
    fn step(&mut self, rank: u32, fs: &mut F) -> Result<MachineStep<Self::Out>, RuntimeError>;

    /// Service units (bytes) the next step will consume — the QoS
    /// admission cost. Defaults to 1 unit for non-IO steps.
    fn next_cost(&self) -> u64 {
        1
    }
}

/// One-shot adapter: runs a closure to completion in a single step. Every
/// whole-rank closure (`map_ranks_par`, [`ReactorPool::map`]) rides the
/// pool this way; multiplexed drives implement [`RankMachine`] with real
/// per-chunk steps instead.
pub struct FnMachine<G>(Option<G>);

impl<G> FnMachine<G> {
    /// Wrap `g` as a single-step machine.
    pub fn new(g: G) -> Self {
        FnMachine(Some(g))
    }
}

impl<F, G, R> RankMachine<F> for FnMachine<G>
where
    G: FnOnce(u32, &mut F) -> Result<R, RuntimeError> + Send,
    R: Send,
{
    type Out = R;

    fn step(&mut self, rank: u32, fs: &mut F) -> Result<MachineStep<R>, RuntimeError> {
        let g = self.0.take().expect("one-shot machine stepped twice");
        g(rank, fs).map(MachineStep::Done)
    }
}

/// A rank queued for a reactor drive: the rank id, its QoS tenant, the
/// owned resource (connection + window + filesystem travel as one unit),
/// and the machine that advances it. The machine may borrow from the
/// caller for `'a`: the drive returns before the borrow ends.
pub struct RankTask<'a, F, R> {
    /// Global rank.
    pub rank: u32,
    /// QoS tenant the rank bills against.
    pub tenant: u32,
    /// The rank's owned resource.
    pub fs: F,
    /// The state machine driving the rank.
    pub machine: Box<dyn RankMachine<F, Out = R> + 'a>,
}

// ---------------------------------------------------------------------------
// QoS token buckets
// ---------------------------------------------------------------------------

/// Per-tenant admission quotas, enforced as token buckets sharded per
/// reactor (each reactor holds `quota / N` so admission is one branch on
/// core-local state).
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Service units (bytes) granted to each tenant per scheduling round.
    pub quota_per_round: u64,
    /// Bucket capacity — the burst a tenant may accumulate while idle.
    pub burst: u64,
    /// Per-tenant quota overrides `(tenant, quota_per_round)`.
    pub overrides: Vec<(u32, u64)>,
}

impl QosConfig {
    fn quota_of(&self, tenant: u32) -> u64 {
        self.overrides
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(self.quota_per_round, |(_, q)| *q)
    }
}

/// One reactor's bucket shard for one tenant.
#[derive(Debug)]
struct TokenBucket {
    tokens: u64,
    refill: u64,
    burst: u64,
}

impl TokenBucket {
    fn sharded(quota: u64, burst: u64, reactors: usize) -> Self {
        let refill = (quota / reactors as u64).max(1);
        let burst = (burst / reactors as u64).max(refill);
        TokenBucket {
            tokens: burst,
            refill,
            burst,
        }
    }

    fn refill(&mut self) {
        self.tokens = (self.tokens + self.refill).min(self.burst);
    }

    /// Admit a step costing `cost` units. A full bucket always admits, so
    /// one oversized step (cost > burst) defers but can never starve.
    fn admit(&mut self, cost: u64) -> bool {
        if self.tokens >= cost || self.tokens >= self.burst {
            self.tokens = self.tokens.saturating_sub(cost);
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor pool
// ---------------------------------------------------------------------------

/// Reactor pool configuration.
#[derive(Debug, Clone, Default)]
pub struct ReactorConfig {
    /// Number of reactors. `0` sizes the pool to the available cores.
    pub reactors: usize,
    /// Optional per-tenant admission control.
    pub qos: Option<QosConfig>,
}

/// Counters from one drive, also published to the pool's telemetry as
/// `reactor.*` / `qos.*`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveStats {
    /// Scheduling rounds executed, summed over reactors.
    pub loops: u64,
    /// Machine steps executed (completion events processed).
    pub events: u64,
    /// Wall time reactors spent with work pending but nothing admissible.
    pub idle_ns: u64,
    /// Steps deferred by a tenant's exhausted bucket.
    pub throttled: u64,
    /// Steps admitted through the QoS gate.
    pub admitted: u64,
}

/// One retired task.
pub struct TaskResult<F, R> {
    /// Global rank.
    pub rank: u32,
    /// The rank's resource, returned to the caller.
    pub fs: F,
    /// The machine's result; `None` when its step failed (the first
    /// failure is in [`DriveOutcome::error`]).
    pub result: Option<R>,
    /// Scheduling round of its reactor in which the task retired — a
    /// deterministic completion time, since a reactor's rounds depend
    /// only on the tasks dealt to it.
    pub done_round: u64,
}

/// Everything a drive hands back: every task's resource (success or not),
/// the first error, and the counters.
pub struct DriveOutcome<F, R> {
    /// Retired tasks, sorted by rank.
    pub results: Vec<TaskResult<F, R>>,
    /// The first machine error, if any step failed.
    pub error: Option<RuntimeError>,
    /// Drive counters.
    pub stats: DriveStats,
}

/// A fixed-size pool of run-to-completion reactors.
pub struct ReactorPool {
    n: usize,
    qos: Option<QosConfig>,
    telemetry: Telemetry,
}

/// One reactor's core-local state, owned outright: the run queue it was
/// dealt, the results it retired, and its tenant bucket shards.
struct Shard<'a, F, R> {
    inbox: VecDeque<RankTask<'a, F, R>>,
    outbox: Vec<TaskResult<F, R>>,
    /// Tenant bucket shards, created on first sight of a tenant.
    buckets: Vec<(u32, TokenBucket)>,
    stats: DriveStats,
    error: Option<RuntimeError>,
}

impl<F: Send, R: Send> Shard<'_, F, R> {
    fn admit(&mut self, tenant: u32, cost: u64, qos: &QosConfig, reactors: usize) -> bool {
        let bucket = match self.buckets.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, b)) => b,
            None => {
                self.buckets.push((
                    tenant,
                    TokenBucket::sharded(qos.quota_of(tenant), qos.burst, reactors),
                ));
                &mut self.buckets.last_mut().expect("just pushed").1
            }
        };
        bucket.admit(cost)
    }

    /// Move the task at `i` off the run queue into the outbox.
    fn retire(&mut self, i: usize, result: Option<R>, round: u64) {
        let t = self.inbox.remove(i).expect("index in bounds");
        self.outbox.push(TaskResult {
            rank: t.rank,
            fs: t.fs,
            result,
            done_round: round,
        });
    }

    /// One scheduling round: refill this shard's bucket shards, then give
    /// every resident rank one admission check and (if admitted) one step.
    /// Returns whether any step ran.
    fn run_round(&mut self, qos: Option<&QosConfig>, reactors: usize, round: u64) -> bool {
        self.stats.loops += 1;
        for (_, b) in &mut self.buckets {
            b.refill();
        }
        let mut progressed = false;
        let mut i = 0;
        while i < self.inbox.len() {
            let (tenant, cost) = {
                let t = &self.inbox[i];
                (t.tenant, t.machine.next_cost())
            };
            if let Some(q) = qos {
                if !self.admit(tenant, cost, q, reactors) {
                    self.stats.throttled += 1;
                    i += 1;
                    continue;
                }
            }
            self.stats.admitted += 1;
            self.stats.events += 1;
            progressed = true;
            let t = &mut self.inbox[i];
            // Rank trace context: flight-recorder events below this frame
            // are stamped with the rank being stepped.
            let step = {
                let _rank = telemetry::context::with_rank(u64::from(t.rank));
                t.machine.step(t.rank, &mut t.fs)
            };
            match step {
                Ok(MachineStep::Yield) => i += 1,
                Ok(MachineStep::Done(r)) => self.retire(i, Some(r), round),
                Err(e) => {
                    if self.error.is_none() {
                        self.error = Some(e);
                    }
                    self.retire(i, None, round);
                }
            }
        }
        progressed
    }

    /// Run rounds until every resident rank retires.
    fn run(&mut self, qos: Option<&QosConfig>, reactors: usize) {
        let _worker = DriveGuard::enter();
        let mut round: u64 = 0;
        while !self.inbox.is_empty() {
            round += 1;
            if !self.run_round(qos, reactors, round) {
                // Everything resident is throttled: the shard is idle
                // until the next refill.
                let t = Instant::now();
                std::thread::yield_now();
                self.stats.idle_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }
}

impl ReactorPool {
    /// A pool configured by `config`, publishing counters to `telemetry`.
    pub fn new(config: &ReactorConfig, telemetry: &Telemetry) -> Self {
        let n = if config.reactors == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.reactors
        };
        ReactorPool {
            n,
            qos: config.qos.clone(),
            telemetry: telemetry.clone(),
        }
    }

    /// Deterministic memory accounting for a drive of `ranks` tasks over
    /// `reactors` shards: fixed per-reactor state (queue headers, bucket
    /// table, stats) plus a run-queue slot and an outbox slot per task.
    /// The contrast is the thread-per-rank model, which pins a multi-MiB
    /// stack per concurrently driven rank — here rank state is ~200 B,
    /// so rank count scales to 10k+ with sub-linear total growth while
    /// the fixed share still amortizes.
    pub fn footprint_bytes(reactors: usize, ranks: u64) -> u64 {
        /// Queue headers, bucket table, stats — per reactor.
        const REACTOR_FIXED: u64 = 4096;
        /// Run-queue slot + outbox slot.
        const PER_TASK: u64 = 2 * 96;
        reactors as u64 * REACTOR_FIXED + ranks * PER_TASK
    }

    /// Drive `tasks` to completion and hand every resource back.
    pub fn drive<'a, F: Send, R: Send>(
        &self,
        tasks: Vec<RankTask<'a, F, R>>,
    ) -> DriveOutcome<F, R> {
        let n_tasks = tasks.len();
        let mut shards: Vec<Shard<'a, F, R>> = (0..self.n)
            .map(|_| Shard {
                inbox: VecDeque::new(),
                outbox: Vec::new(),
                buckets: Vec::new(),
                stats: DriveStats::default(),
                error: None,
            })
            .collect();
        for (i, task) in tasks.into_iter().enumerate() {
            shards[i % self.n].inbox.push_back(task);
        }
        let qos = self.qos.as_ref();
        let n = self.n;
        let busy = shards.iter().filter(|s| !s.inbox.is_empty()).count();
        if busy <= 1 || IN_DRIVE.with(Cell::get) {
            for shard in &mut shards {
                shard.run(qos, n);
            }
        } else {
            std::thread::scope(|scope| {
                for shard in shards.iter_mut().filter(|s| !s.inbox.is_empty()) {
                    scope.spawn(move || shard.run(qos, n));
                }
            });
        }
        let mut results = Vec::with_capacity(n_tasks);
        let mut stats = DriveStats::default();
        let mut error = None;
        for s in shards {
            results.extend(s.outbox);
            stats.loops += s.stats.loops;
            stats.events += s.stats.events;
            stats.idle_ns += s.stats.idle_ns;
            stats.throttled += s.stats.throttled;
            stats.admitted += s.stats.admitted;
            error = error.or(s.error);
        }
        results.sort_by_key(|r| r.rank);
        let t = &self.telemetry;
        t.counter("reactor.loops").add(stats.loops);
        t.counter("reactor.events").add(stats.events);
        t.counter("reactor.idle_ns").add(stats.idle_ns);
        t.counter("qos.throttled").add(stats.throttled);
        t.counter("qos.admitted").add(stats.admitted);
        DriveOutcome {
            results,
            error,
            stats,
        }
    }

    /// Run `f` once per item as one-shot tasks, returning the results in
    /// item order. Items may borrow from the caller (`&mut` slots
    /// included): every task retires before `map` returns.
    pub fn map<T, R, G>(&self, items: Vec<T>, f: G) -> Vec<R>
    where
        T: Send,
        R: Send,
        G: Fn(T) -> R + Sync,
    {
        let f = &f;
        let tasks: Vec<RankTask<'_, (), R>> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| RankTask {
                rank: i as u32,
                tenant: 0,
                fs: (),
                machine: Box::new(FnMachine::new(move |_, _: &mut ()| Ok(f(item)))),
            })
            .collect();
        self.drive(tasks)
            .results
            .into_iter()
            .map(|r| r.result.expect("one-shot tasks cannot fail"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A machine that increments its resource `steps` times, `cost` QoS
    /// units per step.
    struct Counter {
        left: u32,
        cost: u64,
    }

    impl RankMachine<u64> for Counter {
        type Out = u64;

        fn step(&mut self, _rank: u32, acc: &mut u64) -> Result<MachineStep<u64>, RuntimeError> {
            *acc += 1;
            self.left -= 1;
            if self.left == 0 {
                Ok(MachineStep::Done(*acc))
            } else {
                Ok(MachineStep::Yield)
            }
        }

        fn next_cost(&self) -> u64 {
            self.cost
        }
    }

    fn counter_tasks(spec: &[(u32, u32, u64)]) -> Vec<RankTask<'static, u64, u64>> {
        spec.iter()
            .map(|&(rank, steps, cost)| RankTask {
                rank,
                tenant: rank % 2,
                fs: 0u64,
                machine: Box::new(Counter { left: steps, cost }),
            })
            .collect()
    }

    fn pool(reactors: usize, t: &Telemetry) -> ReactorPool {
        ReactorPool::new(
            &ReactorConfig {
                reactors,
                qos: None,
            },
            t,
        )
    }

    #[test]
    fn deterministic_drive_completes_and_repeats_exactly() {
        let spec: Vec<(u32, u32, u64)> = (0..17).map(|r| (r, 1 + r % 5, 1)).collect();
        let total_steps: u64 = spec.iter().map(|&(_, s, _)| u64::from(s)).sum();
        // One reactor is the inline drive; three run on threads. A
        // reactor's rounds depend only on the tasks dealt to it, so both
        // widths retire every task in the same round run after run.
        for reactors in [1, 3] {
            let t = Telemetry::new();
            let pool = pool(reactors, &t);
            let run = || {
                let out = pool.drive(counter_tasks(&spec));
                assert!(out.error.is_none());
                out.results
                    .iter()
                    .map(|r| (r.rank, r.result.unwrap(), r.done_round))
                    .collect::<Vec<_>>()
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "same tasks must retire in identical rounds");
            assert_eq!(a.len(), 17);
            for (rank, steps, _) in &a {
                assert_eq!(*steps, u64::from(1 + rank % 5));
            }
            let snap = t.snapshot();
            assert_eq!(snap.counter("reactor.events"), 2 * total_steps);
            assert!(snap.counter("reactor.loops") > 0);
        }
    }

    #[test]
    fn threaded_drive_completes_all_tasks() {
        let t = Telemetry::new();
        let spec: Vec<(u32, u32, u64)> = (0..64).map(|r| (r, 3, 1)).collect();
        let out = pool(4, &t).drive(counter_tasks(&spec));
        assert!(out.error.is_none());
        assert_eq!(out.results.len(), 64);
        assert!(out.results.iter().all(|r| r.result == Some(3)));
        assert_eq!(t.snapshot().counter("reactor.events"), 64 * 3);
    }

    #[test]
    fn threaded_pool_runs_on_multiple_threads() {
        let caller = std::thread::current().id();
        let ids =
            pool(2, &Telemetry::new()).map((0..8).collect(), |_: u32| std::thread::current().id());
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 2, "two reactors must use two threads");
        assert!(ids.iter().all(|&id| id != caller));
        // One reactor runs inline on the caller.
        let inline = pool(1, &Telemetry::new()).map(vec![0u32; 4], |_| std::thread::current().id());
        assert!(inline.iter().all(|&id| id == caller));
    }

    #[test]
    fn map_preserves_item_order() {
        for reactors in [1, 3] {
            let out = pool(reactors, &Telemetry::new()).map((0..100u64).collect(), |x| x * x);
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_mutates_borrowed_items_in_place() {
        let mut v: Vec<u64> = (0..50).collect();
        let offset = 7;
        pool(2, &Telemetry::new()).map(v.iter_mut().collect(), |x| *x += offset);
        assert_eq!(v, (7..57).collect::<Vec<_>>());
    }

    #[test]
    fn machine_error_surfaces_but_returns_every_resource() {
        struct Fail;
        impl RankMachine<u64> for Fail {
            type Out = u64;
            fn step(&mut self, r: u32, _: &mut u64) -> Result<MachineStep<u64>, RuntimeError> {
                Err(RuntimeError::BadRank(r))
            }
        }
        let mut tasks = counter_tasks(&[(0, 2, 1), (2, 2, 1)]);
        tasks.push(RankTask {
            rank: 1,
            tenant: 0,
            fs: 0,
            machine: Box::new(Fail),
        });
        let out = pool(2, &Telemetry::new()).drive(tasks);
        assert!(matches!(out.error, Some(RuntimeError::BadRank(1))));
        assert_eq!(out.results.len(), 3, "every fs comes back, even failed");
        let failed = out.results.iter().find(|r| r.rank == 1).unwrap();
        assert!(failed.result.is_none());
        assert!(out.results.iter().filter(|r| r.result.is_some()).count() == 2);
    }

    #[test]
    fn qos_throttles_over_quota_tenant_without_starving() {
        let t = Telemetry::new();
        let pool = ReactorPool::new(
            &ReactorConfig {
                reactors: 1,
                qos: Some(QosConfig {
                    quota_per_round: 4,
                    burst: 8,
                    overrides: vec![],
                }),
            },
            &t,
        );
        // Tenant 0 (rank 0): cheap steps, within quota. Tenant 1 (rank 1):
        // each step costs 4x its per-round refill — mostly throttled, but
        // the full-bucket rule keeps admitting one step per refill cycle.
        let out = pool.drive(counter_tasks(&[(0, 20, 1), (1, 20, 16)]));
        assert!(out.error.is_none());
        assert_eq!(out.results.len(), 2, "throttling must never starve");
        assert!(out.stats.throttled > 0, "over-quota tenant throttles");
        let snap = t.snapshot();
        assert_eq!(snap.counter("qos.admitted"), 40);
        assert_eq!(snap.counter("qos.throttled"), out.stats.throttled);
        // The well-behaved tenant retires long before the noisy one.
        let cheap = out.results.iter().find(|r| r.rank == 0).unwrap();
        let noisy = out.results.iter().find(|r| r.rank == 1).unwrap();
        assert!(cheap.done_round < noisy.done_round);
    }

    #[test]
    fn footprint_grows_sublinearly_in_ranks() {
        let per_rank = |ranks: u64| ReactorPool::footprint_bytes(16, ranks) / ranks;
        assert!(per_rank(10_000) <= per_rank(1_000));
        assert!(per_rank(1_000) <= per_rank(28));
        let fp1k = ReactorPool::footprint_bytes(16, 1_000);
        let fp10k = ReactorPool::footprint_bytes(16, 10_000);
        assert!(
            (fp10k as f64) < 10.0 * fp1k as f64,
            "10x ranks must cost < 10x bytes"
        );
    }
}
