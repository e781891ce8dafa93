//! Deterministic data-path fault injection.
//!
//! The chaos subsystem lets tests and benchmarks inject faults at the *real*
//! byte path — NVMf capsules on the wire, SSD shard I/O, capacitor-backed
//! drains, WAL appends — instead of simulating failures out-of-band. The
//! design mirrors the telemetry layer:
//!
//! - A [`ChaosHandle`] is threaded through configs (fabric, ssd, microfs,
//!   core). Cloning is cheap (one `Arc`).
//! - When no plan is armed, [`ChaosHandle::decide`] is a single relaxed
//!   atomic load returning `None` — the production path pays essentially
//!   nothing.
//! - When a [`FaultPlan`] is armed, every decision is a pure function of
//!   `(plan seed, fault site, per-site operation index)`, so a run with the
//!   same seed and same operation order injects exactly the same faults.
//!   There is no global RNG state to race on.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use telemetry::{Counter, FlightKind, FlightRecorder, Telemetry};

/// A location in the data path where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// Command capsule leaving the initiator (before `post_send`).
    CapsuleTx,
    /// Response capsule arriving at the initiator (after `poll_cq`).
    CapsuleRx,
    /// Connection-level failure observed by the initiator for one command.
    ConnReset,
    /// SSD shard servicing a read/write.
    ShardIo,
    /// Capacitor-backed flush during a simulated power failure.
    CapacitorFlush,
    /// microfs WAL appending a freshly encoded record.
    WalAppend,
    /// Latent media corruption surfacing on an SSD shard read (bit rot on a
    /// checkpoint copy; exercises the scrub/read-repair path).
    ReplicaBitRot,
}

impl FaultSite {
    /// Stable per-site stream id mixed into the decision hash so two sites
    /// with the same op index never share a decision.
    fn stream(self) -> u64 {
        match self {
            FaultSite::CapsuleTx => 0x01,
            FaultSite::CapsuleRx => 0x02,
            FaultSite::ConnReset => 0x03,
            FaultSite::ShardIo => 0x04,
            FaultSite::CapacitorFlush => 0x05,
            FaultSite::WalAppend => 0x06,
            FaultSite::ReplicaBitRot => 0x07,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CapsuleTx => "capsule_tx",
            FaultSite::CapsuleRx => "capsule_rx",
            FaultSite::ConnReset => "conn_reset",
            FaultSite::ShardIo => "shard_io",
            FaultSite::CapacitorFlush => "capacitor_flush",
            FaultSite::WalAppend => "wal_append",
            FaultSite::ReplicaBitRot => "replica_bit_rot",
        }
    }

    /// Stable wire code carried in flight-recorder events, so a dump can
    /// name the injected site without re-running the plan.
    pub fn code(self) -> u64 {
        self.stream()
    }

    /// Decode a wire code back into a site.
    pub fn from_code(code: u64) -> Option<FaultSite> {
        Some(match code {
            0x01 => FaultSite::CapsuleTx,
            0x02 => FaultSite::CapsuleRx,
            0x03 => FaultSite::ConnReset,
            0x04 => FaultSite::ShardIo,
            0x05 => FaultSite::CapacitorFlush,
            0x06 => FaultSite::WalAppend,
            0x07 => FaultSite::ReplicaBitRot,
            _ => return None,
        })
    }
}

/// What to do when a fault fires at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Drop the capsule: it never reaches the peer (command or response lost).
    DropCapsule,
    /// Deliver the capsule twice (exercises idempotent replay on the target).
    DuplicateCapsule,
    /// Flip bits in the encoded payload (exercises wire CRC).
    CorruptPayload,
    /// Tear the connection down mid-command (exercises reconnect).
    ResetConnection,
    /// Shard returns a transient busy error (exercises retry/backoff).
    ShardBusy,
    /// Shard dies permanently (exercises failover to the partner domain).
    KillShard,
    /// Power cut mid-drain: the capacitor flushes only `drain_writes` staged
    /// writes before the lights go out; the rest are lost.
    PowerCut { drain_writes: u32 },
    /// Torn WAL append: only the first `keep_bytes` of the record hit the
    /// device before the failure (exercises CRC-framed scan truncation).
    TornWrite { keep_bytes: u32 },
}

/// A durability-relevant operation counted by the crash-universe mode.
///
/// Unlike [`FaultSite`] (which keys *independent per-site* decision
/// streams), crash ops share **one global, cross-site counter** so that
/// "crash at op *k*" names a unique point in the execution, whatever mix
/// of WAL appends, block writes and manifest commits precedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CrashOp {
    /// microfs WAL appending a freshly encoded record.
    WalAppend,
    /// One block-device write element reaching the NVMf data plane.
    BlockWrite,
    /// One mirrored write element (primary + replica copies).
    MirrorWrite,
    /// Epoch manifest body landing in the manifest region.
    ManifestBody,
    /// Epoch commit record landing in the manifest region (the point of
    /// no return for an epoch).
    CommitRecord,
    /// Discard/trim of freed blocks on the mirror.
    Discard,
}

/// Number of distinct [`CrashOp`] kinds (array index space).
pub const CRASH_OP_KINDS: usize = 6;

impl CrashOp {
    /// All kinds, in stable code order.
    pub const ALL: [CrashOp; CRASH_OP_KINDS] = [
        CrashOp::WalAppend,
        CrashOp::BlockWrite,
        CrashOp::MirrorWrite,
        CrashOp::ManifestBody,
        CrashOp::CommitRecord,
        CrashOp::Discard,
    ];

    /// Stable wire code carried in flight-recorder events (1-based).
    pub fn code(self) -> u64 {
        match self {
            CrashOp::WalAppend => 1,
            CrashOp::BlockWrite => 2,
            CrashOp::MirrorWrite => 3,
            CrashOp::ManifestBody => 4,
            CrashOp::CommitRecord => 5,
            CrashOp::Discard => 6,
        }
    }

    /// Decode a wire code back into an op kind.
    pub fn from_code(code: u64) -> Option<CrashOp> {
        Some(match code {
            1 => CrashOp::WalAppend,
            2 => CrashOp::BlockWrite,
            3 => CrashOp::MirrorWrite,
            4 => CrashOp::ManifestBody,
            5 => CrashOp::CommitRecord,
            6 => CrashOp::Discard,
            _ => return None,
        })
    }

    /// Snake-case name used in dumps and reports.
    pub fn name(self) -> &'static str {
        match self {
            CrashOp::WalAppend => "wal_append",
            CrashOp::BlockWrite => "block_write",
            CrashOp::MirrorWrite => "mirror_write",
            CrashOp::ManifestBody => "manifest_body",
            CrashOp::CommitRecord => "commit_record",
            CrashOp::Discard => "discard",
        }
    }

    fn index(self) -> usize {
        (self.code() - 1) as usize
    }
}

/// A recovery-path operation counted by the **nested** crash plane.
///
/// Where [`CrashOp`] enumerates the durability ops of the *running*
/// workload, `RecoveryOp` enumerates the replay/rescan ops of *recovery
/// itself*: after an outer `crash_at_op(k)` kills the stack and recovery
/// begins, `crash_in_recovery(j)` kills the j-th of these — proving the
/// recovery paths are themselves restartable. Like crash ops, recovery
/// ops share one global cross-site counter so "crash recovery at op j"
/// names a unique point whatever mix of scans and replays precedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecoveryOp {
    /// microfs mount: superblock decode + latest-snapshot load.
    SnapshotLoad,
    /// microfs mount: WAL region scan (CRC-framed record walk).
    LogScan,
    /// microfs replay: one WAL record applied to the in-memory tree.
    ReplayApply,
    /// nvmecr recovery: manifest-slot scan of the replica tail region.
    ManifestScan,
    /// `Mirror::rescan`: one chunk of the primary re-read for CRC audit.
    RescanChunk,
    /// `materialize_chain`: one delta-epoch chain step resolved.
    ChainMaterialize,
    /// Replica restore: one CRC-verified extent copied back.
    RestoreExtent,
}

/// Number of distinct [`RecoveryOp`] kinds (array index space).
pub const RECOVERY_OP_KINDS: usize = 7;

impl RecoveryOp {
    /// All kinds, in stable code order.
    pub const ALL: [RecoveryOp; RECOVERY_OP_KINDS] = [
        RecoveryOp::SnapshotLoad,
        RecoveryOp::LogScan,
        RecoveryOp::ReplayApply,
        RecoveryOp::ManifestScan,
        RecoveryOp::RescanChunk,
        RecoveryOp::ChainMaterialize,
        RecoveryOp::RestoreExtent,
    ];

    /// Stable wire code carried in flight-recorder events (1-based).
    pub fn code(self) -> u64 {
        match self {
            RecoveryOp::SnapshotLoad => 1,
            RecoveryOp::LogScan => 2,
            RecoveryOp::ReplayApply => 3,
            RecoveryOp::ManifestScan => 4,
            RecoveryOp::RescanChunk => 5,
            RecoveryOp::ChainMaterialize => 6,
            RecoveryOp::RestoreExtent => 7,
        }
    }

    /// Decode a wire code back into an op kind.
    pub fn from_code(code: u64) -> Option<RecoveryOp> {
        Some(match code {
            1 => RecoveryOp::SnapshotLoad,
            2 => RecoveryOp::LogScan,
            3 => RecoveryOp::ReplayApply,
            4 => RecoveryOp::ManifestScan,
            5 => RecoveryOp::RescanChunk,
            6 => RecoveryOp::ChainMaterialize,
            7 => RecoveryOp::RestoreExtent,
            _ => return None,
        })
    }

    /// Snake-case name used in dumps and reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryOp::SnapshotLoad => "snapshot_load",
            RecoveryOp::LogScan => "log_scan",
            RecoveryOp::ReplayApply => "replay_apply",
            RecoveryOp::ManifestScan => "manifest_scan",
            RecoveryOp::RescanChunk => "rescan_chunk",
            RecoveryOp::ChainMaterialize => "chain_materialize",
            RecoveryOp::RestoreExtent => "restore_extent",
        }
    }

    fn index(self) -> usize {
        (self.code() - 1) as usize
    }
}

/// One injection rule: a site, an action, and when it fires.
///
/// `rate` fires probabilistically (deterministically hashed per op index);
/// `at_ops` fires at exact per-site operation indices. Both may be set.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub site: FaultSite,
    pub action: FaultAction,
    pub rate: f64,
    pub at_ops: Vec<u64>,
}

/// A seeded, declarative schedule of faults.
///
/// Two plans with the same seed and specs make identical decisions for the
/// same sequence of per-site operations.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Fire `action` at `site` with probability `rate` per operation.
    pub fn with_rate(mut self, site: FaultSite, action: FaultAction, rate: f64) -> Self {
        self.specs.push(FaultSpec {
            site,
            action,
            rate,
            at_ops: Vec::new(),
        });
        self
    }

    /// Fire `action` exactly at per-site operation index `op`.
    pub fn at_op(mut self, site: FaultSite, action: FaultAction, op: u64) -> Self {
        self.specs.push(FaultSpec {
            site,
            action,
            rate: 0.0,
            at_ops: vec![op],
        });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// SplitMix64: tiny, high-quality 64-bit mixer. Used as a stateless hash so
/// decisions are pure functions of (seed, site, op) — no shared RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a decision hash to [0, 1).
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

struct ArmedState {
    plan: Option<FaultPlan>,
    /// Per-site operation counters; reset on every `arm`.
    counters: HashMap<FaultSite, u64>,
    injected: Option<Arc<Counter>>,
    /// Flight recorder of the armed telemetry registry: every injected
    /// fault records a `fault_injected` event and trips the recorder.
    recorder: Option<Arc<FlightRecorder>>,
}

/// How the crash-universe counter treats each durability op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashMode {
    /// Enumerate: count every op, never fire.
    Count,
    /// Fire at exactly global op index `k`; every op at index >= `k`
    /// fails too ("dead universe" — after the crash nothing persists).
    CrashAt(u64),
}

struct CrashState {
    mode: CrashMode,
    /// Next global op index to hand out (also the running total).
    next_op: u64,
    /// Ops seen per [`CrashOp`] kind, indexed by `code() - 1`.
    per_kind: [u64; CRASH_OP_KINDS],
    /// Global op index at which the crash fired (`CrashAt` only).
    fired: Option<u64>,
    /// Flight recorder of the armed telemetry registry: the crash point
    /// records a `crash_point` event and trips the recorder.
    recorder: Option<Arc<FlightRecorder>>,
}

/// Snapshot of the crash-universe counters, taken by [`ChaosHandle::crash_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// Total durability ops counted (the size of the crash universe).
    pub total: u64,
    /// Ops per [`CrashOp`] kind, indexed by `code() - 1`.
    pub per_kind: [u64; CRASH_OP_KINDS],
    /// Global op index at which the crash fired, if it did.
    pub fired: Option<u64>,
}

impl CrashReport {
    /// Ops counted for one kind.
    pub fn kind(&self, op: CrashOp) -> u64 {
        self.per_kind[op.index()]
    }
}

/// How the nested recovery plane treats each recovery op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryMode {
    /// Enumerate: count every op, never fire.
    Count,
    /// Fire at exactly nested op index `j` — but only during the *first*
    /// recovery attempt. Ops at index >= `j` in attempt 1 fail too (the
    /// recovery process is dead); attempts 2+ run clean, modelling the
    /// supervisor restarting recovery after its crash.
    CrashAt(u64),
}

struct RecoveryState {
    mode: RecoveryMode,
    /// Next nested op index to hand out (also the running total).
    next_op: u64,
    /// Ops seen per [`RecoveryOp`] kind, indexed by `code() - 1`.
    per_kind: [u64; RECOVERY_OP_KINDS],
    /// Nested op index at which the crash fired (`CrashAt` only).
    fired: Option<u64>,
    /// Recovery attempt in progress (1-based; bumped by
    /// [`ChaosHandle::begin_recovery_attempt`]).
    attempt: u64,
    /// Flight recorder of the armed telemetry registry: the nested crash
    /// records a `recovery_crash_point` event and trips the recorder.
    recorder: Option<Arc<FlightRecorder>>,
}

/// Snapshot of the nested recovery-plane counters, taken by
/// [`ChaosHandle::recovery_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Total recovery ops counted (the size of the nested universe).
    pub total: u64,
    /// Ops per [`RecoveryOp`] kind, indexed by `code() - 1`.
    pub per_kind: [u64; RECOVERY_OP_KINDS],
    /// Nested op index at which the crash fired, if it did.
    pub fired: Option<u64>,
    /// Recovery attempts begun since arming.
    pub attempts: u64,
}

impl RecoveryReport {
    /// Ops counted for one kind.
    pub fn kind(&self, op: RecoveryOp) -> u64 {
        self.per_kind[op.index()]
    }
}

struct Inner {
    armed: AtomicBool,
    state: Mutex<ArmedState>,
    crash_armed: AtomicBool,
    crash: Mutex<CrashState>,
    recovery_armed: AtomicBool,
    recovery: Mutex<RecoveryState>,
}

/// Cheap, cloneable hook handle threaded through layer configs.
///
/// Disabled (the default): `decide` is one relaxed atomic load. Armed: each
/// call takes a short lock to bump the per-site op counter and evaluates the
/// plan deterministically.
#[derive(Clone)]
pub struct ChaosHandle {
    inner: Arc<Inner>,
}

impl Default for ChaosHandle {
    fn default() -> Self {
        ChaosHandle {
            inner: Arc::new(Inner {
                armed: AtomicBool::new(false),
                state: Mutex::new(ArmedState {
                    plan: None,
                    counters: HashMap::new(),
                    injected: None,
                    recorder: None,
                }),
                crash_armed: AtomicBool::new(false),
                crash: Mutex::new(CrashState {
                    mode: CrashMode::Count,
                    next_op: 0,
                    per_kind: [0; CRASH_OP_KINDS],
                    fired: None,
                    recorder: None,
                }),
                recovery_armed: AtomicBool::new(false),
                recovery: Mutex::new(RecoveryState {
                    mode: RecoveryMode::Count,
                    next_op: 0,
                    per_kind: [0; RECOVERY_OP_KINDS],
                    fired: None,
                    attempt: 1,
                    recorder: None,
                }),
            }),
        }
    }
}

impl fmt::Debug for ChaosHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosHandle")
            .field("armed", &self.inner.armed.load(Ordering::Relaxed))
            .finish()
    }
}

impl ChaosHandle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `plan`. Per-site op counters restart from zero, so arming the same
    /// plan twice replays the same fault sequence. Injected faults are counted
    /// on `telemetry`'s `chaos.injected` counter.
    pub fn arm(&self, plan: FaultPlan, telemetry: &Telemetry) {
        let mut st = self.inner.state.lock();
        st.counters.clear();
        st.injected = Some(telemetry.counter("chaos.injected"));
        st.recorder = Some(telemetry.recorder());
        st.plan = Some(plan);
        self.inner.armed.store(true, Ordering::Release);
    }

    /// Disarm: subsequent `decide` calls return `None` after one atomic load.
    pub fn disarm(&self) {
        self.inner.armed.store(false, Ordering::Release);
        let mut st = self.inner.state.lock();
        st.plan = None;
        st.counters.clear();
        st.injected = None;
        st.recorder = None;
    }

    pub fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Relaxed)
    }

    /// Ask whether a fault fires for the next operation at `site`.
    ///
    /// Every call while armed consumes one per-site op index, whether or not
    /// a fault fires, which is what makes runs reproducible: the decision for
    /// op `n` does not depend on how many faults fired before it.
    pub fn decide(&self, site: FaultSite) -> Option<FaultAction> {
        if !self.inner.armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut st = self.inner.state.lock();
        let n = {
            let ctr = st.counters.entry(site).or_insert(0);
            let n = *ctr;
            *ctr += 1;
            n
        };
        let plan = st.plan.as_ref()?;
        let mut hit = None;
        for (idx, spec) in plan.specs.iter().enumerate() {
            if spec.site != site {
                continue;
            }
            if spec.at_ops.contains(&n) {
                hit = Some(spec.action);
                break;
            }
            if spec.rate > 0.0 {
                // Mix the spec index in so two rate specs on one site draw
                // independent coins for the same op.
                let h = splitmix64(
                    plan.seed
                        ^ site.stream().wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
                        ^ n.wrapping_mul(0xCA5A_8268_85B6_B2D1),
                );
                if unit(h) < spec.rate {
                    hit = Some(spec.action);
                    break;
                }
            }
        }
        if hit.is_some() {
            if let Some(c) = &st.injected {
                c.inc();
            }
            if let Some(r) = &st.recorder {
                let r = Arc::clone(r);
                // Record and trip outside the plan lock: the dump path
                // reads metrics and touches the filesystem.
                drop(st);
                r.record(FlightKind::FaultInjected, 0, 0, site.code(), n);
                r.trip(FlightKind::FaultInjected, site.code());
            }
        }
        hit
    }

    /// Arm the crash-universe counter in *count* mode: every durability op
    /// consumes one global index, nothing ever fires. Used to enumerate
    /// the universe before exploring it.
    pub fn arm_crash_count(&self) {
        let mut st = self.inner.crash.lock();
        st.mode = CrashMode::Count;
        st.next_op = 0;
        st.per_kind = [0; CRASH_OP_KINDS];
        st.fired = None;
        st.recorder = None;
        self.inner.crash_armed.store(true, Ordering::Release);
    }

    /// Arm the crash-universe counter to kill the stack at exactly global
    /// durability-op index `k`: the op at index `k` records a
    /// [`FlightKind::CrashPoint`] event, trips `telemetry`'s flight
    /// recorder, and fails; every op at index >= `k` fails too (after a
    /// crash, nothing persists — the universe is dead).
    pub fn crash_at_op(&self, k: u64, telemetry: &Telemetry) {
        let mut st = self.inner.crash.lock();
        st.mode = CrashMode::CrashAt(k);
        st.next_op = 0;
        st.per_kind = [0; CRASH_OP_KINDS];
        st.fired = None;
        st.recorder = Some(telemetry.recorder());
        self.inner.crash_armed.store(true, Ordering::Release);
    }

    /// Disarm the crash-universe counter, leaving the counters readable
    /// via [`ChaosHandle::crash_report`] until the next arm.
    pub fn disarm_crash(&self) {
        self.inner.crash_armed.store(false, Ordering::Release);
        let mut st = self.inner.crash.lock();
        st.recorder = None;
    }

    /// Whether a crash-universe mode is armed.
    pub fn is_crash_armed(&self) -> bool {
        self.inner.crash_armed.load(Ordering::Relaxed)
    }

    /// Consume one global durability-op index for `op` and report whether
    /// the stack dies here.
    ///
    /// Disarmed (the default) this is a single relaxed atomic load
    /// returning `false`. Armed, every call consumes exactly one index in
    /// execution order, which is what makes a crash point reproducible
    /// from `(workload, k)` alone.
    pub fn crash_fire(&self, op: CrashOp) -> bool {
        if !self.inner.crash_armed.load(Ordering::Relaxed) {
            return false;
        }
        let mut st = self.inner.crash.lock();
        let n = st.next_op;
        st.next_op += 1;
        st.per_kind[op.index()] += 1;
        match st.mode {
            CrashMode::Count => false,
            CrashMode::CrashAt(k) => {
                if n < k {
                    false
                } else {
                    if n == k {
                        st.fired = Some(n);
                        if let Some(r) = st.recorder.take() {
                            // Record and trip outside the lock: the dump
                            // path reads metrics and touches the
                            // filesystem.
                            drop(st);
                            r.record(FlightKind::CrashPoint, 0, 0, op.code(), n);
                            r.trip(FlightKind::CrashPoint, op.code());
                        }
                    }
                    true
                }
            }
        }
    }

    /// Snapshot the crash-universe counters.
    pub fn crash_report(&self) -> CrashReport {
        let st = self.inner.crash.lock();
        CrashReport {
            total: st.next_op,
            per_kind: st.per_kind,
            fired: st.fired,
        }
    }

    /// Arm the nested recovery plane in *count* mode: every recovery op
    /// consumes one nested index, nothing ever fires. Used to enumerate
    /// the nested universe of one recovery before exploring it.
    pub fn arm_recovery_count(&self) {
        let mut st = self.inner.recovery.lock();
        st.mode = RecoveryMode::Count;
        st.next_op = 0;
        st.per_kind = [0; RECOVERY_OP_KINDS];
        st.fired = None;
        st.attempt = 1;
        st.recorder = None;
        self.inner.recovery_armed.store(true, Ordering::Release);
    }

    /// Arm the nested recovery plane to kill the **first** recovery
    /// attempt at exactly nested op index `j`: that op records a
    /// [`FlightKind::RecoveryCrashPoint`] event, trips `telemetry`'s
    /// flight recorder, and fails; every recovery op after it in the same
    /// attempt fails too (the recovering process is dead). Attempts begun
    /// after [`ChaosHandle::begin_recovery_attempt`] run clean, modelling
    /// a supervisor restarting recovery after its crash.
    pub fn crash_in_recovery(&self, j: u64, telemetry: &Telemetry) {
        let mut st = self.inner.recovery.lock();
        st.mode = RecoveryMode::CrashAt(j);
        st.next_op = 0;
        st.per_kind = [0; RECOVERY_OP_KINDS];
        st.fired = None;
        st.attempt = 1;
        st.recorder = Some(telemetry.recorder());
        self.inner.recovery_armed.store(true, Ordering::Release);
    }

    /// Mark the start of a fresh recovery attempt. The first attempt is
    /// implicit at arm time; each call bumps the attempt number, so after
    /// a nested crash the *next* attempt's ops run clean.
    pub fn begin_recovery_attempt(&self) {
        if !self.inner.recovery_armed.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.inner.recovery.lock();
        st.attempt += 1;
    }

    /// Disarm the nested recovery plane, leaving the counters readable
    /// via [`ChaosHandle::recovery_report`] until the next arm.
    pub fn disarm_recovery(&self) {
        self.inner.recovery_armed.store(false, Ordering::Release);
        let mut st = self.inner.recovery.lock();
        st.recorder = None;
    }

    /// Whether a nested recovery mode is armed.
    pub fn is_recovery_armed(&self) -> bool {
        self.inner.recovery_armed.load(Ordering::Relaxed)
    }

    /// Consume one nested recovery-op index for `op` and report whether
    /// the recovering process dies here.
    ///
    /// Disarmed (the default) this is a single relaxed atomic load
    /// returning `false`. Armed, every call consumes exactly one index in
    /// execution order; in `CrashAt(j)` mode the op at index `j` of the
    /// first attempt fires (and the rest of that attempt stays dead),
    /// while later attempts never fire.
    pub fn recovery_fire(&self, op: RecoveryOp) -> bool {
        if !self.inner.recovery_armed.load(Ordering::Relaxed) {
            return false;
        }
        let mut st = self.inner.recovery.lock();
        let n = st.next_op;
        st.next_op += 1;
        st.per_kind[op.index()] += 1;
        match st.mode {
            RecoveryMode::Count => false,
            RecoveryMode::CrashAt(j) => {
                if st.attempt > 1 || n < j {
                    false
                } else {
                    if n == j {
                        st.fired = Some(n);
                        if let Some(r) = st.recorder.take() {
                            // Record and trip outside the lock: the dump
                            // path reads metrics and touches the
                            // filesystem.
                            drop(st);
                            r.record(FlightKind::RecoveryCrashPoint, 0, 0, op.code(), n);
                            r.trip(FlightKind::RecoveryCrashPoint, op.code());
                        }
                    }
                    true
                }
            }
        }
    }

    /// Snapshot the nested recovery-plane counters.
    pub fn recovery_report(&self) -> RecoveryReport {
        let st = self.inner.recovery.lock();
        RecoveryReport {
            total: st.next_op,
            per_kind: st.per_kind,
            fired: st.fired,
            attempts: st.attempt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(h: &ChaosHandle, site: FaultSite, n: usize) -> Vec<Option<FaultAction>> {
        (0..n).map(|_| h.decide(site)).collect()
    }

    #[test]
    fn disarmed_handle_is_silent() {
        let h = ChaosHandle::new();
        assert!(!h.is_armed());
        for _ in 0..100 {
            assert_eq!(h.decide(FaultSite::CapsuleTx), None);
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let t = Telemetry::new();
        let plan = FaultPlan::new(42)
            .with_rate(FaultSite::CapsuleTx, FaultAction::CorruptPayload, 0.05)
            .with_rate(FaultSite::ShardIo, FaultAction::ShardBusy, 0.02);

        let h1 = ChaosHandle::new();
        h1.arm(plan.clone(), &t);
        let a = collect(&h1, FaultSite::CapsuleTx, 2000);
        let b = collect(&h1, FaultSite::ShardIo, 2000);

        let h2 = ChaosHandle::new();
        h2.arm(plan, &t);
        let a2 = collect(&h2, FaultSite::CapsuleTx, 2000);
        let b2 = collect(&h2, FaultSite::ShardIo, 2000);

        assert_eq!(a, a2);
        assert_eq!(b, b2);
        // And the rate actually fires somewhere in 2000 ops at 5%.
        assert!(a.iter().any(|d| d.is_some()));
    }

    #[test]
    fn different_seeds_diverge() {
        let t = Telemetry::new();
        let h1 = ChaosHandle::new();
        h1.arm(
            FaultPlan::new(1).with_rate(FaultSite::CapsuleRx, FaultAction::DropCapsule, 0.1),
            &t,
        );
        let h2 = ChaosHandle::new();
        h2.arm(
            FaultPlan::new(2).with_rate(FaultSite::CapsuleRx, FaultAction::DropCapsule, 0.1),
            &t,
        );
        let a = collect(&h1, FaultSite::CapsuleRx, 1000);
        let b = collect(&h2, FaultSite::CapsuleRx, 1000);
        assert_ne!(a, b);
    }

    #[test]
    fn at_op_fires_exactly_once() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.arm(
            FaultPlan::new(7).at_op(
                FaultSite::WalAppend,
                FaultAction::TornWrite { keep_bytes: 3 },
                5,
            ),
            &t,
        );
        let hits: Vec<usize> = collect(&h, FaultSite::WalAppend, 20)
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|_| i))
            .collect();
        assert_eq!(hits, vec![5]);
        assert_eq!(
            h.decide(FaultSite::WalAppend),
            None,
            "op counter moved past the scheduled index"
        );
    }

    #[test]
    fn rearm_resets_op_counters() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        let plan = FaultPlan::new(9).at_op(FaultSite::ConnReset, FaultAction::ResetConnection, 0);
        h.arm(plan.clone(), &t);
        assert!(h.decide(FaultSite::ConnReset).is_some());
        assert!(h.decide(FaultSite::ConnReset).is_none());
        h.arm(plan, &t);
        assert!(
            h.decide(FaultSite::ConnReset).is_some(),
            "counters restart on arm"
        );
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.arm(
            FaultPlan::new(3).with_rate(FaultSite::ShardIo, FaultAction::KillShard, 0.0),
            &t,
        );
        assert!(collect(&h, FaultSite::ShardIo, 500)
            .iter()
            .all(|d| d.is_none()));

        h.arm(
            FaultPlan::new(3).with_rate(FaultSite::ShardIo, FaultAction::KillShard, 1.0),
            &t,
        );
        assert!(collect(&h, FaultSite::ShardIo, 500)
            .iter()
            .all(|d| d.is_some()));
    }

    #[test]
    fn injected_counter_tracks_hits() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.arm(
            FaultPlan::new(11).with_rate(FaultSite::CapsuleTx, FaultAction::DropCapsule, 1.0),
            &t,
        );
        for _ in 0..17 {
            h.decide(FaultSite::CapsuleTx);
        }
        assert_eq!(t.counter("chaos.injected").get(), 17);
    }

    #[test]
    fn site_codes_roundtrip() {
        for site in [
            FaultSite::CapsuleTx,
            FaultSite::CapsuleRx,
            FaultSite::ConnReset,
            FaultSite::ShardIo,
            FaultSite::CapacitorFlush,
            FaultSite::WalAppend,
            FaultSite::ReplicaBitRot,
        ] {
            assert_eq!(FaultSite::from_code(site.code()), Some(site));
        }
        assert_eq!(FaultSite::from_code(0), None);
        assert_eq!(FaultSite::from_code(0xFF), None);
    }

    #[test]
    fn injection_records_and_trips_the_flight_recorder() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.arm(
            FaultPlan::new(13).at_op(FaultSite::ShardIo, FaultAction::KillShard, 2),
            &t,
        );
        for _ in 0..5 {
            h.decide(FaultSite::ShardIo);
        }
        let r = t.recorder();
        assert_eq!(r.trip_count(), 1);
        let events = r.events();
        let inj = events
            .iter()
            .find(|e| e.kind == FlightKind::FaultInjected)
            .expect("fault_injected event");
        assert_eq!(inj.a, FaultSite::ShardIo.code());
        assert_eq!(inj.b, 2, "fired at per-site op index 2");
        assert!(events.iter().any(|e| e.kind == FlightKind::Trip));
    }

    #[test]
    fn sites_have_independent_streams() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.arm(
            FaultPlan::new(5)
                .with_rate(FaultSite::CapsuleTx, FaultAction::DropCapsule, 0.3)
                .with_rate(FaultSite::CapsuleRx, FaultAction::DropCapsule, 0.3),
            &t,
        );
        let a = collect(&h, FaultSite::CapsuleTx, 200);
        let b = collect(&h, FaultSite::CapsuleRx, 200);
        assert_ne!(a, b, "distinct sites must not share a decision stream");
    }

    #[test]
    fn crash_disarmed_is_silent_and_free() {
        let h = ChaosHandle::new();
        assert!(!h.is_crash_armed());
        for op in CrashOp::ALL {
            assert!(!h.crash_fire(op));
        }
        assert_eq!(h.crash_report().total, 0, "disarmed ops are not counted");
    }

    #[test]
    fn crash_count_mode_counts_and_never_fires() {
        let h = ChaosHandle::new();
        h.arm_crash_count();
        for _ in 0..3 {
            for op in CrashOp::ALL {
                assert!(!h.crash_fire(op));
            }
        }
        h.disarm_crash();
        let report = h.crash_report();
        assert_eq!(report.total, 18);
        for op in CrashOp::ALL {
            assert_eq!(report.kind(op), 3);
        }
        assert_eq!(report.fired, None);
    }

    #[test]
    fn crash_at_op_fires_once_then_universe_stays_dead() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.crash_at_op(4, &t);
        let verdicts: Vec<bool> = (0..8).map(|_| h.crash_fire(CrashOp::BlockWrite)).collect();
        assert_eq!(
            verdicts,
            vec![false, false, false, false, true, true, true, true],
            "ops before k survive, op k and everything after die"
        );
        assert_eq!(h.crash_report().fired, Some(4));

        let r = t.recorder();
        assert_eq!(r.trip_count(), 1, "only op k trips, not the dead tail");
        let events = r.events();
        let cp = events
            .iter()
            .find(|e| e.kind == FlightKind::CrashPoint)
            .expect("crash_point event");
        assert_eq!(cp.a, CrashOp::BlockWrite.code());
        assert_eq!(cp.b, 4, "fired at global op index 4");
    }

    #[test]
    fn crash_counter_is_global_across_kinds() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.crash_at_op(2, &t);
        assert!(!h.crash_fire(CrashOp::WalAppend));
        assert!(!h.crash_fire(CrashOp::BlockWrite));
        assert!(
            h.crash_fire(CrashOp::CommitRecord),
            "third op overall dies regardless of kind"
        );
        let report = h.crash_report();
        assert_eq!(report.kind(CrashOp::WalAppend), 1);
        assert_eq!(report.kind(CrashOp::BlockWrite), 1);
        assert_eq!(report.kind(CrashOp::CommitRecord), 1);
    }

    #[test]
    fn crash_rearm_resets_the_universe() {
        let h = ChaosHandle::new();
        h.arm_crash_count();
        for _ in 0..7 {
            h.crash_fire(CrashOp::WalAppend);
        }
        h.arm_crash_count();
        assert_eq!(h.crash_report().total, 0, "counters restart on arm");
    }

    #[test]
    fn crash_op_codes_roundtrip() {
        for op in CrashOp::ALL {
            assert_eq!(CrashOp::from_code(op.code()), Some(op));
            assert!(!op.name().is_empty());
        }
        assert_eq!(CrashOp::from_code(0), None);
        assert_eq!(CrashOp::from_code(7), None);
    }

    #[test]
    fn crash_mode_is_independent_of_fault_plans() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.arm_crash_count();
        h.arm(
            FaultPlan::new(21).at_op(FaultSite::ShardIo, FaultAction::ShardBusy, 0),
            &t,
        );
        assert!(h.decide(FaultSite::ShardIo).is_some());
        assert!(!h.crash_fire(CrashOp::BlockWrite));
        h.disarm();
        assert!(h.is_crash_armed(), "fault disarm leaves crash mode armed");
        assert_eq!(h.crash_report().total, 1);
    }

    #[test]
    fn recovery_disarmed_is_silent_and_free() {
        let h = ChaosHandle::new();
        assert!(!h.is_recovery_armed());
        for op in RecoveryOp::ALL {
            assert!(!h.recovery_fire(op));
        }
        assert_eq!(h.recovery_report().total, 0, "disarmed ops not counted");
    }

    #[test]
    fn recovery_count_mode_counts_and_never_fires() {
        let h = ChaosHandle::new();
        h.arm_recovery_count();
        for _ in 0..2 {
            for op in RecoveryOp::ALL {
                assert!(!h.recovery_fire(op));
            }
        }
        h.disarm_recovery();
        let report = h.recovery_report();
        assert_eq!(report.total, 14);
        for op in RecoveryOp::ALL {
            assert_eq!(report.kind(op), 2);
        }
        assert_eq!(report.fired, None);
    }

    #[test]
    fn crash_in_recovery_kills_first_attempt_only() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.crash_in_recovery(3, &t);
        let first: Vec<bool> = (0..6)
            .map(|_| h.recovery_fire(RecoveryOp::ReplayApply))
            .collect();
        assert_eq!(
            first,
            vec![false, false, false, true, true, true],
            "ops before j survive, op j and the rest of attempt 1 die"
        );
        assert_eq!(h.recovery_report().fired, Some(3));

        h.begin_recovery_attempt();
        let second: Vec<bool> = (0..6)
            .map(|_| h.recovery_fire(RecoveryOp::ReplayApply))
            .collect();
        assert!(second.iter().all(|&f| !f), "attempt 2 runs clean");
        assert_eq!(h.recovery_report().attempts, 2);

        let r = t.recorder();
        assert_eq!(r.trip_count(), 1, "only nested op j trips");
        let events = r.events();
        let cp = events
            .iter()
            .find(|e| e.kind == FlightKind::RecoveryCrashPoint)
            .expect("recovery_crash_point event");
        assert_eq!(cp.a, RecoveryOp::ReplayApply.code());
        assert_eq!(cp.b, 3, "fired at nested op index 3");
    }

    #[test]
    fn recovery_counter_is_global_across_kinds() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.crash_in_recovery(2, &t);
        assert!(!h.recovery_fire(RecoveryOp::SnapshotLoad));
        assert!(!h.recovery_fire(RecoveryOp::LogScan));
        assert!(
            h.recovery_fire(RecoveryOp::RescanChunk),
            "third recovery op overall dies regardless of kind"
        );
        let report = h.recovery_report();
        assert_eq!(report.kind(RecoveryOp::SnapshotLoad), 1);
        assert_eq!(report.kind(RecoveryOp::LogScan), 1);
        assert_eq!(report.kind(RecoveryOp::RescanChunk), 1);
    }

    #[test]
    fn recovery_plane_is_independent_of_outer_crash_plane() {
        let t = Telemetry::new();
        let h = ChaosHandle::new();
        h.crash_at_op(0, &t);
        h.arm_recovery_count();
        assert!(h.crash_fire(CrashOp::WalAppend), "outer plane fires");
        assert!(
            !h.recovery_fire(RecoveryOp::ReplayApply),
            "nested count mode never fires"
        );
        h.disarm_crash();
        assert!(h.is_recovery_armed(), "outer disarm leaves nested armed");
        assert_eq!(h.recovery_report().total, 1);
    }

    #[test]
    fn recovery_op_codes_roundtrip() {
        for op in RecoveryOp::ALL {
            assert_eq!(RecoveryOp::from_code(op.code()), Some(op));
            assert!(!op.name().is_empty());
        }
        assert_eq!(RecoveryOp::from_code(0), None);
        assert_eq!(RecoveryOp::from_code(8), None);
    }

    #[test]
    fn begin_recovery_attempt_requires_armed_plane() {
        let h = ChaosHandle::new();
        h.begin_recovery_attempt();
        h.arm_recovery_count();
        assert_eq!(h.recovery_report().attempts, 1, "disarmed bump ignored");
    }

    #[test]
    fn plan_builder_equality() {
        let p1 = FaultPlan::new(1)
            .with_rate(FaultSite::CapsuleTx, FaultAction::CorruptPayload, 0.01)
            .at_op(
                FaultSite::WalAppend,
                FaultAction::TornWrite { keep_bytes: 8 },
                2,
            );
        let p2 = FaultPlan::new(1)
            .with_rate(FaultSite::CapsuleTx, FaultAction::CorruptPayload, 0.01)
            .at_op(
                FaultSite::WalAppend,
                FaultAction::TornWrite { keep_bytes: 8 },
                2,
            );
        assert_eq!(p1, p2);
        assert!(!p1.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }
}
