//! Synchronous checkpoint replication onto a partner failure domain.
//!
//! When [`crate::RuntimeConfig::replication_factor`] is 2, every rank's
//! block device carries a [`Mirror`]: a second NVMf connection to a
//! namespace on a storage node in the rank's partner failure domain. The
//! write path pushes each extent through *both* submission windows
//! concurrently (`fabric::write_mirrored_bytes` alternates window passes,
//! so the two copies overlap rather than serialize), records the extent's
//! CRC32 in an in-memory [`ExtentMap`], and the runtime seals an
//! [`EpochManifest`] per checkpoint round into a ping-pong slot pair at
//! the tail of both copies. Recovery (`fail_over_rank`) then re-homes the
//! rank and replays the surviving replica extent-by-extent, verifying
//! every committed extent against its CRC before the rank is declared
//! healthy; a scrub pass walks both copies and read-repairs latent bit
//! rot from whichever copy still matches the manifest.
//!
//! Degraded mode: a replica-side IO error never fails the application
//! write — the mirror flips to degraded, queues the stale spans, and the
//! next epoch commit attempts a resync from the primary. While degraded,
//! epoch commits land on the primary only, so a replica-based restore
//! falls back to the replica's last *complete* epoch (counted in
//! `replication.lag_epochs`).

use bytes::Bytes;
use chaos::{ChaosHandle, CrashOp};
use fabric::{write_mirrored_bytes, InitiatorError, MirroredWrite, NvmfConnection};
use microfs::cow::IntervalSet;
use microfs::crc::{crc32, crc32_concat, crc32_update};
use microfs::manifest::{
    EpochManifest, ExtentMap, ManifestError, ManifestExtent, ManifestLayout, COMMIT_RECORD_BYTES,
    MAX_DELTA_CHAIN, REGION_BYTES, SLOT_BYTES,
};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use telemetry::{Counter, FlightKind, FlightRecorder, Gauge, Histogram, Telemetry};

/// Chunk size for scrub/restore/resync streaming reads — bounds peak
/// memory regardless of how large merged extents grow.
const COPY_CHUNK: usize = 4 << 20;

/// Merge cap applied to the extent map while a delta chain is enabled:
/// extents stay near write granularity so the tuple diff between epochs
/// captures roughly what changed instead of one giant merged extent.
const CHAIN_MERGE_LIMIT: u64 = 64 << 10;

/// Replication-layer metric handles, resolved once per mirror.
#[derive(Clone)]
pub struct ReplicationMetrics {
    /// Bytes successfully written to the replica copy.
    pub bytes: Arc<Counter>,
    /// Epochs sealed with a commit record (on at least the primary).
    pub epochs_committed: Arc<Counter>,
    /// Epochs of history lost across replica-based restores.
    pub lag_epochs: Arc<Counter>,
    /// Restores that could not use the live extent map verbatim and fell
    /// back to the last complete manifest (or started degraded).
    pub degraded_restores: Arc<Counter>,
    /// Extents rewritten from the surviving copy (scrub read-repair).
    pub repairs: Arc<Counter>,
    /// Wall time of mirrored data-path window submissions.
    pub mirror_ns: Arc<Histogram>,
    /// Wall time of full scrub passes.
    pub scrub_ns: Arc<Histogram>,
    /// Extents carried by delta epoch manifests (full manifests excluded).
    pub delta_extents: Arc<Counter>,
    /// Current lineage length (full manifest plus deltas since it).
    pub chain_len: Arc<Gauge>,
    /// Wall time of full-compaction commits (sealing a full manifest while
    /// the delta chain is enabled).
    pub compaction_ns: Arc<Histogram>,
    /// Flight recorder: mirror writes, degradations, epoch commits, and
    /// rollback restores, causally ordered against the fabric commands
    /// that carried them.
    pub flight: Arc<FlightRecorder>,
}

impl ReplicationMetrics {
    pub fn new(t: &Telemetry) -> Self {
        ReplicationMetrics {
            bytes: t.counter("replication.bytes"),
            epochs_committed: t.counter("replication.epochs_committed"),
            lag_epochs: t.counter("replication.lag_epochs"),
            degraded_restores: t.counter("replication.degraded_restores"),
            repairs: t.counter("replication.repairs"),
            mirror_ns: t.histogram("replication.mirror_ns"),
            scrub_ns: t.histogram("replication.scrub_ns"),
            delta_extents: t.counter("cow.delta_extents"),
            chain_len: t.gauge("cow.chain_len"),
            compaction_ns: t.histogram("cow.compaction_ns"),
            flight: t.recorder(),
        }
    }
}

/// Errors from the replication layer.
#[derive(Debug)]
pub enum ReplicationError {
    /// The underlying fabric IO failed (on the copy the caller needed).
    Fabric(InitiatorError),
    /// Manifest encode/decode failed.
    Manifest(ManifestError),
    /// Both copies of an extent disagree with the committed CRC.
    Unrecoverable { offset: u64, len: u64 },
    /// No complete epoch exists on the surviving copy.
    NoCompleteEpoch,
    /// A delta chain's manifests partially shadow an ancestor extent — the
    /// lineage is internally inconsistent (should be impossible: re-tiling
    /// always replaces whole extent tuples).
    ChainInconsistent { epoch: u64, offset: u64 },
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::Fabric(e) => write!(f, "replication fabric IO: {e}"),
            ReplicationError::Manifest(e) => write!(f, "replication manifest: {e}"),
            ReplicationError::Unrecoverable { offset, len } => {
                write!(f, "extent [{offset}, +{len}) corrupt on both copies")
            }
            ReplicationError::NoCompleteEpoch => {
                write!(f, "no complete checkpoint epoch on surviving copy")
            }
            ReplicationError::ChainInconsistent { epoch, offset } => {
                write!(
                    f,
                    "delta chain at epoch {epoch} partially shadows extent at {offset}"
                )
            }
        }
    }
}

impl std::error::Error for ReplicationError {}

impl From<InitiatorError> for ReplicationError {
    fn from(e: InitiatorError) -> Self {
        ReplicationError::Fabric(e)
    }
}

impl From<ManifestError> for ReplicationError {
    fn from(e: ManifestError) -> Self {
        ReplicationError::Manifest(e)
    }
}

/// Result of one scrub pass over a rank's two copies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Committed extents whose CRCs were verified on both copies.
    pub extents_checked: u64,
    /// Extents rewritten from the surviving good copy.
    pub repaired: u64,
    /// Extents corrupt on *both* copies — data loss, surfaced loudly.
    pub unrecoverable: u64,
    /// Extents skipped because they were written after the last commit
    /// (no CRC on record yet).
    pub skipped_dirty: u64,
}

/// Live mirror state for one rank: the replica connection, the extent
/// map shared by both copies, and the epoch counter.
pub struct Mirror {
    conn: NvmfConnection,
    map: ExtentMap,
    epoch: u64,
    degraded: bool,
    /// Spans whose replica copy is stale after a degraded write; resynced
    /// from the primary at the next epoch commit.
    pending_resync: Vec<(u64, u64)>,
    metrics: ReplicationMetrics,
    /// Manifest region geometry: standard ping-pong pair, or the delta
    /// chain ring once [`Mirror::enable_delta_chain`] is called.
    layout: ManifestLayout,
    /// Deltas allowed since the last full manifest before a compaction.
    delta_chain_max: u32,
    /// Deltas sealed since the last full manifest.
    deltas_since_full: u32,
    /// Extent tuples as of the previous commit — the diff base for the
    /// next delta. `None` forces the next commit to be full (fresh mirror,
    /// post-rescan, post-failover: tiling never spans a restart).
    last_entries: Option<HashSet<(u64, u64, u32)>>,
    /// Whiteouts (device discards) accumulated since the last commit.
    pending_whiteouts: Vec<(u64, u64)>,
    /// Crash-universe hook: disarmed (the default) every gate is one
    /// relaxed atomic load.
    chaos: ChaosHandle,
}

impl Mirror {
    /// A fresh mirror over an empty replica namespace.
    pub fn new(conn: NvmfConnection, t: &Telemetry) -> Self {
        Self::with_state(conn, ExtentMap::new(), 0, t)
    }

    /// Rebuild a mirror from recovered state (manifest decode or a
    /// surviving in-memory map).
    pub fn with_state(conn: NvmfConnection, map: ExtentMap, epoch: u64, t: &Telemetry) -> Self {
        Mirror {
            conn,
            map,
            epoch,
            degraded: false,
            pending_resync: Vec::new(),
            metrics: ReplicationMetrics::new(t),
            layout: ManifestLayout::standard(),
            delta_chain_max: 0,
            deltas_since_full: 0,
            last_entries: None,
            pending_whiteouts: Vec::new(),
            chaos: ChaosHandle::new(),
        }
    }

    /// Thread the runtime's chaos handle through, so the crash-universe
    /// mode can count and kill mirrored writes and epoch commits.
    pub fn set_chaos(&mut self, chaos: ChaosHandle) {
        self.chaos = chaos;
    }

    /// Switch this mirror to the delta-chain manifest ring: commits seal
    /// sparse delta manifests (changed extents + whiteouts) linked by
    /// `parent_epoch`, with a full compaction every `max` deltas. The next
    /// commit is always full — it anchors the new chain. Also caps extent
    /// merging so the tuple diff stays near write granularity.
    pub fn enable_delta_chain(&mut self, max: u32) {
        self.layout = ManifestLayout::chained();
        self.delta_chain_max = max.clamp(1, MAX_DELTA_CHAIN);
        self.deltas_since_full = 0;
        self.last_entries = None;
        self.map.set_merge_limit(CHAIN_MERGE_LIMIT);
    }

    /// The manifest region geometry in effect.
    pub fn layout(&self) -> ManifestLayout {
        self.layout
    }

    /// Deltas sealed since the last full manifest.
    pub fn chain_len(&self) -> u32 {
        self.deltas_since_full
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    pub fn map(&self) -> &ExtentMap {
        &self.map
    }

    /// Tear down into `(replica connection, extent map, epoch, degraded)`
    /// — used by `fail_over_rank` to reuse the surviving copy.
    pub fn into_parts(self) -> (NvmfConnection, ExtentMap, u64, bool) {
        (self.conn, self.map, self.epoch, self.degraded)
    }

    /// Mirror a batch of partition-relative writes: primary lands at
    /// `primary_base + offset`, replica at `offset`. Each payload's CRC
    /// is computed exactly once here and shared by both capsule encodes
    /// (pre-CRC path) and the extent map. Replica errors degrade the
    /// mirror instead of failing the write; primary errors propagate.
    pub fn write_through(
        &mut self,
        primary: &mut NvmfConnection,
        primary_base: u64,
        mut writes: Vec<(u64, Bytes)>,
    ) -> Result<(), InitiatorError> {
        if writes.is_empty() {
            return Ok(());
        }
        // Crash-universe gate, one index per element. When the crash
        // lands at element `i`, elements before it still reach both
        // copies, element `i` reaches the primary only (its replica DMA
        // never completed), and the rest of the batch is lost — the most
        // asymmetric state a mid-batch power cut can leave.
        let mut tail = None;
        if self.chaos.is_crash_armed() {
            for i in 0..writes.len() {
                if self.chaos.crash_fire(CrashOp::MirrorWrite) {
                    tail = Some(writes.split_off(i));
                    break;
                }
            }
        }
        if !writes.is_empty() {
            // Epoch trace context: the write belongs to the epoch being
            // built (one past the last sealed one); every fabric/ssd
            // event under this frame carries it.
            let _epoch = telemetry::context::with_epoch(self.epoch + 1);
            let timer = self.metrics.mirror_ns.time();
            let mut mirrored = Vec::with_capacity(writes.len());
            let mut total = 0u64;
            for (offset, data) in writes {
                let crc = crc32(&data);
                self.map.record(offset, data.len() as u64, crc);
                total += data.len() as u64;
                mirrored.push(MirroredWrite {
                    primary_offset: primary_base + offset,
                    replica_offset: offset,
                    data,
                    crc,
                });
            }
            let spans: Vec<(u64, u64)> = mirrored
                .iter()
                .map(|w| (w.replica_offset, w.data.len() as u64))
                .collect();
            if self.degraded {
                // Replica already stale — write the primary alone and
                // queue the spans for the next resync attempt.
                let plain = mirrored
                    .into_iter()
                    .map(|w| (w.primary_offset, w.data, w.crc))
                    .collect();
                primary.write_vectored_bytes_precrc(plain)?;
                self.pending_resync.extend(spans);
                drop(timer);
            } else {
                let outcome = write_mirrored_bytes(primary, &mut self.conn, mirrored)?;
                drop(timer);
                if outcome.replica_error.is_some() {
                    // The window may have partially landed on the
                    // replica; treat the whole batch as stale.
                    self.degraded = true;
                    self.metrics.flight.record(
                        FlightKind::MirrorDegraded,
                        0,
                        0,
                        spans.len() as u64,
                        0,
                    );
                    self.pending_resync.extend(spans);
                } else {
                    self.metrics.bytes.add(total);
                    self.metrics.flight.record(
                        FlightKind::MirrorWrite,
                        0,
                        0,
                        total,
                        spans.len() as u64,
                    );
                }
            }
        }
        if let Some(mut tail) = tail {
            // The crashed element's primary copy landed; nothing after it
            // did. The in-memory map dies with the crash, so it is not
            // updated.
            let (offset, data) = tail.remove(0);
            let crc = crc32(&data);
            primary.write_vectored_bytes_precrc(vec![(primary_base + offset, data, crc)])?;
            let _ = primary.flush();
            return Err(InitiatorError::Transport(
                "crash point: mirror write".into(),
            ));
        }
        Ok(())
    }

    /// Drop `[offset, offset+len)` from the mirrored image: the span's
    /// file was deleted or truncated away. The extent map forgets it and,
    /// while the delta chain is enabled, the next delta manifest records
    /// it as a whiteout so chain materialization stops resurrecting
    /// ancestor bytes beneath it.
    pub fn discard(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.map.remove(offset, len);
        if self.layout.is_chained() {
            self.pending_whiteouts.push((offset, len));
        }
    }

    /// Flush the replica copy. A replica flush failure degrades the
    /// mirror conservatively: every mapped extent is queued for resync,
    /// since volatile replica state of unknown extent may have been lost.
    pub fn flush(&mut self) {
        if self.degraded {
            return;
        }
        if self.conn.flush().is_err() {
            self.degraded = true;
            let spans: Vec<(u64, u64)> = self
                .map
                .entries()
                .into_iter()
                .map(|(o, l, _)| (o, l))
                .collect();
            self.metrics
                .flight
                .record(FlightKind::MirrorDegraded, 0, 0, spans.len() as u64, 1);
            self.pending_resync.extend(spans);
        }
    }

    /// Try to bring a degraded replica back in sync by copying the stale
    /// spans from the primary. Clears the degraded flag on full success.
    fn try_resync(&mut self, primary: &mut NvmfConnection, primary_base: u64) {
        if !self.degraded {
            return;
        }
        let spans = std::mem::take(&mut self.pending_resync);
        for (i, &(offset, len)) in spans.iter().enumerate() {
            if copy_extent(primary, primary_base + offset, &mut self.conn, offset, len).is_err() {
                // Still unhealthy; keep the remaining spans queued.
                self.pending_resync.extend_from_slice(&spans[i..]);
                return;
            }
            self.metrics.bytes.add(len);
        }
        self.degraded = false;
    }

    /// Rebuild the extent map from the full primary image. Used after a
    /// crash or restart where the in-memory map is gone but the on-device
    /// copies survive: chunked reads re-CRC the whole partition. `fs_size`
    /// is the partition size (the manifest region is excluded).
    ///
    /// The image is recorded in tiles of `rescan_tile` bytes, so a later
    /// write or discard splits at most one tile per boundary and the next
    /// commit re-reads at most that much from the primary. Under the
    /// standard layout (unlimited merging) the tiles merge back into one
    /// extent.
    pub fn rescan(
        &mut self,
        primary: &mut NvmfConnection,
        primary_base: u64,
        fs_size: u64,
    ) -> Result<(), InitiatorError> {
        let tile = rescan_tile(self.map.merge_limit(), self.layout, fs_size);
        let mut tile_start = 0u64;
        let mut state = 0xFFFF_FFFFu32;
        let mut off = 0u64;
        while off < fs_size {
            if self.chaos.recovery_fire(chaos::RecoveryOp::RescanChunk) {
                return Err(InitiatorError::Transport(
                    "crash point: recovery rescan".into(),
                ));
            }
            let len = COPY_CHUNK.min((fs_size - off) as usize);
            let data = primary.read_bytes(primary_base + off, len)?;
            let mut pos = off;
            while pos < off + len as u64 {
                let tile_end = (tile_start + tile).min(fs_size);
                let end = tile_end.min(off + len as u64);
                state = crc32_update(state, &data[(pos - off) as usize..(end - off) as usize]);
                pos = end;
                if pos == tile_end {
                    self.map
                        .record(tile_start, tile_end - tile_start, state ^ 0xFFFF_FFFF);
                    tile_start = tile_end;
                    state = 0xFFFF_FFFF;
                }
            }
            off += len as u64;
        }
        Ok(())
    }

    /// Seal the current extent map as epoch `self.epoch + 1` on both
    /// copies: body first, fully retired, then the commit record — so a
    /// torn commit is detectable and restore falls back to the previous
    /// slot. With the delta chain enabled the sealed manifest is a sparse
    /// delta (changed extent tuples + whiteouts, `parent_epoch` linked)
    /// unless the compaction policy — or a chain anchor being absent —
    /// requires a full one. Returns the committed epoch.
    pub fn commit_epoch(
        &mut self,
        primary: &mut NvmfConnection,
        primary_base: u64,
        fs_size: u64,
    ) -> Result<u64, ReplicationError> {
        let _epoch_ctx = telemetry::context::with_epoch(self.epoch + 1);
        // Extents fragmented by overlapping writes lost their CRCs;
        // re-read them from the primary before sealing.
        for (offset, len) in self.map.dirty_fragments() {
            let crc = extent_crc(primary, primary_base + offset, len)?;
            self.map.set_crc(offset, len, crc);
        }
        self.try_resync(primary, primary_base);

        let epoch = self.epoch + 1;
        let chained = self.layout.is_chained();
        let mut full = !chained
            || self.last_entries.is_none()
            || self.deltas_since_full >= self.delta_chain_max;
        let mut sealed: Option<(EpochManifest, Vec<u8>)> = None;
        if !full {
            if let Some(last) = self.last_entries.as_ref() {
                let mut extents = Vec::new();
                for (offset, len, crc) in self.map.entries() {
                    let crc = crc.ok_or(ManifestError::Dirty { offset })?;
                    if !last.contains(&(offset, len, crc)) {
                        extents.push(ManifestExtent { offset, len, crc });
                    }
                }
                let m = EpochManifest {
                    epoch,
                    parent_epoch: self.epoch,
                    extents,
                    whiteouts: self.pending_whiteouts.clone(),
                };
                match m.encode_body() {
                    // An oversized delta (pathological churn) compacts instead.
                    Ok(b) if b.len() <= self.layout.body_capacity() => sealed = Some((m, b)),
                    _ => full = true,
                }
            } else {
                // No diff base (should be unreachable given the `full`
                // computation above): anchor a fresh chain instead.
                full = true;
            }
        }
        let compaction_timer = (chained && full).then(|| self.metrics.compaction_ns.time());
        let (manifest, body) = match sealed {
            Some(pair) => pair,
            None => {
                let m = self.map.to_manifest(epoch)?;
                let b = m.encode_body()?;
                if b.len() > self.layout.body_capacity() {
                    return Err(ReplicationError::Manifest(ManifestError::TooLarge {
                        extents: m.extents.len(),
                    }));
                }
                (m, b)
            }
        };
        let body = Bytes::from(body);
        let record = Bytes::copy_from_slice(&manifest.encode_commit(&body));
        let slot = fs_size + self.layout.slot_offset(epoch);
        let body_off = slot + COMMIT_RECORD_BYTES;
        let record_off = slot;
        let body_crc = crc32(&body);
        let record_crc = crc32(&record);

        // Crash-universe gate for the body phase: the body reaches the
        // primary but the crash lands before the replica copy or either
        // commit record — a torn slot restore must treat as invisible.
        if self.chaos.crash_fire(CrashOp::ManifestBody) {
            primary.write_vectored_bytes_precrc(vec![(primary_base + body_off, body, body_crc)])?;
            let _ = primary.flush();
            return Err(ReplicationError::Fabric(InitiatorError::Transport(
                "crash point: manifest body".into(),
            )));
        }
        if self.degraded {
            // Primary-only commit: the replica stays at its last complete
            // epoch and a replica-based restore will lag.
            primary.write_vectored_bytes_precrc(vec![(primary_base + body_off, body, body_crc)])?;
        } else {
            let out = write_mirrored_bytes(
                primary,
                &mut self.conn,
                vec![MirroredWrite {
                    primary_offset: primary_base + body_off,
                    replica_offset: body_off,
                    data: body,
                    crc: body_crc,
                }],
            )?;
            if out.replica_error.is_some() {
                self.degraded = true;
            }
        }
        // Crash-universe gate for the record phase: the body is durable
        // on both copies but only the primary's commit record lands —
        // the replica must fall back to an older complete head while the
        // primary legitimately serves the new epoch.
        if self.chaos.crash_fire(CrashOp::CommitRecord) {
            primary.write_vectored_bytes_precrc(vec![(
                primary_base + record_off,
                record,
                record_crc,
            )])?;
            let _ = primary.flush();
            return Err(ReplicationError::Fabric(InitiatorError::Transport(
                "crash point: commit record".into(),
            )));
        }
        if self.degraded {
            primary.write_vectored_bytes_precrc(vec![(
                primary_base + record_off,
                record,
                record_crc,
            )])?;
        } else {
            let out = write_mirrored_bytes(
                primary,
                &mut self.conn,
                vec![MirroredWrite {
                    primary_offset: primary_base + record_off,
                    replica_offset: record_off,
                    data: record,
                    crc: record_crc,
                }],
            )?;
            if out.replica_error.is_some() {
                self.degraded = true;
            }
        }
        // The epoch is only real once it is durable.
        primary.flush()?;
        if !self.degraded && self.conn.flush().is_err() {
            self.degraded = true;
        }
        self.epoch = epoch;
        self.metrics.epochs_committed.inc();
        self.metrics
            .flight
            .record(FlightKind::EpochCommit, 0, 0, epoch, full as u64);
        if chained {
            if full {
                self.deltas_since_full = 0;
                self.pending_whiteouts.clear();
            } else {
                self.deltas_since_full += 1;
                self.pending_whiteouts.clear();
                self.metrics
                    .delta_extents
                    .add(manifest.extents.len() as u64);
            }
            self.last_entries = Some(
                self.map
                    .entries()
                    .into_iter()
                    .filter_map(|(o, l, c)| c.map(|c| (o, l, c)))
                    .collect(),
            );
            self.metrics
                .chain_len
                .set(i64::from(self.deltas_since_full) + 1);
        }
        drop(compaction_timer);
        Ok(epoch)
    }

    /// Walk every committed extent, verify both copies against the
    /// recorded CRC, and read-repair whichever copy is corrupt from the
    /// one that still matches. Both-copies-corrupt is reported, loudly,
    /// as unrecoverable — scrub never silently "fixes" with bad data.
    pub fn scrub(
        &mut self,
        primary: &mut NvmfConnection,
        primary_base: u64,
    ) -> Result<ScrubReport, ReplicationError> {
        let timer = self.metrics.scrub_ns.time();
        let mut report = ScrubReport::default();
        for (offset, len, crc) in self.map.entries() {
            let Some(crc) = crc else {
                report.skipped_dirty += 1;
                continue;
            };
            report.extents_checked += 1;
            let primary_ok = extent_crc(primary, primary_base + offset, len)? == crc;
            let replica_ok = match extent_crc(&mut self.conn, offset, len) {
                Ok(c) => c == crc,
                Err(_) => false,
            };
            match (primary_ok, replica_ok) {
                (true, true) => {}
                (false, true) => {
                    copy_extent(&mut self.conn, offset, primary, primary_base + offset, len)?;
                    self.metrics.repairs.inc();
                    report.repaired += 1;
                    telemetry::instant("replication", "read_repair", &[("offset", offset)]);
                }
                (true, false) => {
                    copy_extent(primary, primary_base + offset, &mut self.conn, offset, len)?;
                    self.metrics.repairs.inc();
                    report.repaired += 1;
                    telemetry::instant("replication", "read_repair", &[("offset", offset)]);
                }
                (false, false) => {
                    report.unrecoverable += 1;
                    telemetry::instant("replication", "unrecoverable", &[("offset", offset)]);
                }
            }
        }
        drop(timer);
        Ok(report)
    }
}

/// Extent size [`Mirror::rescan`] records a recovered partition of
/// `fs_size` bytes in: the map's merge limit, capped at one read chunk,
/// doubled only as far as needed for a full manifest of the partition to
/// fit one slot of `layout`.
fn rescan_tile(merge_limit: u64, layout: ManifestLayout, fs_size: u64) -> u64 {
    let max_extents = layout.max_full_extents() as u64;
    let mut tile = merge_limit.min(COPY_CHUNK as u64);
    while fs_size.div_ceil(tile) > max_extents {
        tile *= 2;
    }
    tile
}

/// Streaming CRC32 of `[offset, offset + len)` on `conn`, chunked so a
/// merged multi-hundred-MiB extent never needs a single allocation.
fn extent_crc(conn: &mut NvmfConnection, offset: u64, len: u64) -> Result<u32, InitiatorError> {
    let mut state = 0xFFFF_FFFFu32;
    let mut done = 0u64;
    while done < len {
        let chunk = COPY_CHUNK.min((len - done) as usize);
        let data = conn.read_bytes(offset + done, chunk)?;
        state = crc32_update(state, &data);
        done += chunk as u64;
    }
    Ok(state ^ 0xFFFF_FFFF)
}

/// Chunked copy of `[src_off, +len)` on `src` to `dst_off` on `dst`.
fn copy_extent(
    src: &mut NvmfConnection,
    src_off: u64,
    dst: &mut NvmfConnection,
    dst_off: u64,
    len: u64,
) -> Result<(), InitiatorError> {
    let mut done = 0u64;
    while done < len {
        let chunk = COPY_CHUNK.min((len - done) as usize);
        let data = src.read_bytes(src_off + done, chunk)?;
        let crc = crc32(&data);
        dst.write_vectored_bytes_precrc(vec![(dst_off + done, data, crc)])?;
        done += chunk as u64;
    }
    Ok(())
}

/// Read both manifest slots at `region_base` on `conn` and return the
/// decodable one with the highest epoch, if any. A torn or never-written
/// slot simply loses.
pub fn read_latest_manifest(
    conn: &mut NvmfConnection,
    region_base: u64,
) -> Result<Option<EpochManifest>, InitiatorError> {
    let mut best: Option<EpochManifest> = None;
    for slot in 0..2u64 {
        let bytes = conn.read_bytes(region_base + slot * SLOT_BYTES, SLOT_BYTES as usize)?;
        if let Ok(m) = EpochManifest::decode_slot(&bytes) {
            if best.as_ref().is_none_or(|b| m.epoch > b.epoch) {
                best = Some(m);
            }
        }
    }
    Ok(best)
}

/// Read every decodable manifest in the region at `region_base`, one per
/// slot under `layout`. Torn or never-written slots are skipped.
pub fn read_manifests(
    conn: &mut NvmfConnection,
    region_base: u64,
    layout: ManifestLayout,
) -> Result<Vec<EpochManifest>, InitiatorError> {
    let mut out = Vec::new();
    for slot in 0..layout.slots {
        let bytes = conn.read_bytes(
            region_base + slot * layout.slot_bytes,
            layout.slot_bytes as usize,
        )?;
        if let Ok(m) = EpochManifest::decode_slot(&bytes) {
            out.push(m);
        }
    }
    Ok(out)
}

/// Highest committed epoch anywhere in the region, if any.
pub fn read_latest_epoch(
    conn: &mut NvmfConnection,
    region_base: u64,
    layout: ManifestLayout,
) -> Result<Option<u64>, InitiatorError> {
    Ok(read_manifests(conn, region_base, layout)?
        .into_iter()
        .map(|m| m.epoch)
        .max())
}

/// Materialize the newest complete lineage in a delta-chain ring:
/// candidate heads are tried in descending epoch order, and a head counts
/// only when every `parent_epoch` link down to a full manifest is present
/// (degraded-mode commits can leave replica-side holes). Extents resolve
/// newest-first — an ancestor extent fully covered by younger extents or
/// whiteouts is skipped whole; partial shadowing is impossible by
/// construction (re-tiling replaces whole tuples) and reported loudly if
/// it ever appears. Returns the disjoint extents plus the head epoch.
pub fn materialize_chain(
    conn: &mut NvmfConnection,
    region_base: u64,
    layout: ManifestLayout,
) -> Result<Option<(Vec<ManifestExtent>, u64)>, ReplicationError> {
    materialize_chain_with(conn, region_base, layout, &ChaosHandle::default())
}

/// [`materialize_chain`] with a chaos handle: each chain link resolved
/// consumes one nested [`chaos::RecoveryOp::ChainMaterialize`] index, so
/// the nested crash plane can kill chain materialization mid-walk.
pub fn materialize_chain_with(
    conn: &mut NvmfConnection,
    region_base: u64,
    layout: ManifestLayout,
    chaos: &ChaosHandle,
) -> Result<Option<(Vec<ManifestExtent>, u64)>, ReplicationError> {
    let mut manifests = read_manifests(conn, region_base, layout)?;
    manifests.sort_by_key(|m| std::cmp::Reverse(m.epoch));
    for head in 0..manifests.len() {
        let mut chain: Vec<&EpochManifest> = Vec::new();
        let mut cur = &manifests[head];
        loop {
            if chaos.recovery_fire(chaos::RecoveryOp::ChainMaterialize) {
                return Err(ReplicationError::Fabric(InitiatorError::Transport(
                    "crash point: recovery chain materialize".into(),
                )));
            }
            chain.push(cur);
            if !cur.is_delta() {
                break;
            }
            // Parent links strictly descend; anything else is garbage.
            match manifests
                .iter()
                .find(|m| m.epoch == cur.parent_epoch && m.epoch < cur.epoch)
            {
                Some(p) => cur = p,
                None => {
                    chain.clear();
                    break;
                }
            }
        }
        if chain.is_empty() {
            continue;
        }
        let mut covered = IntervalSet::new();
        let mut out: Vec<ManifestExtent> = Vec::new();
        for m in &chain {
            for e in &m.extents {
                let (start, end) = (e.offset, e.offset + e.len);
                if covered.covers(start, end) {
                    continue;
                }
                if covered.intersects(start, end) {
                    return Err(ReplicationError::ChainInconsistent {
                        epoch: m.epoch,
                        offset: e.offset,
                    });
                }
                covered.insert(start, end);
                out.push(*e);
            }
            for &(offset, len) in &m.whiteouts {
                covered.insert(offset, offset + len);
            }
        }
        out.sort_by_key(|e| e.offset);
        return Ok(Some((out, manifests[head].epoch)));
    }
    Ok(None)
}

/// Zero the commit record of any slot holding an epoch newer than
/// `epoch`. After a rollback restore, such slots are stale heads of an
/// abandoned lineage — a later commit would otherwise let them chain onto
/// fresh manifests and poison a future restore.
fn invalidate_future_slots(
    conn: &mut NvmfConnection,
    base: u64,
    region_base: u64,
    layout: ManifestLayout,
    epoch: u64,
) -> Result<(), ReplicationError> {
    for slot in 0..layout.slots {
        let off = region_base + slot * layout.slot_bytes;
        let bytes = conn.read_bytes(base + off, layout.slot_bytes as usize)?;
        if let Ok(m) = EpochManifest::decode_slot(&bytes) {
            if m.epoch > epoch {
                let zeros = Bytes::from(vec![0u8; COMMIT_RECORD_BYTES as usize]);
                let crc = crc32(&zeros);
                conn.write_vectored_bytes_precrc(vec![(base + off, zeros, crc)])?;
            }
        }
    }
    conn.flush()?;
    Ok(())
}

/// What a replica-based restore recovered.
pub struct RestoreOutcome {
    /// Extent map describing the restored image.
    pub map: ExtentMap,
    /// Epoch the restored image corresponds to.
    pub epoch: u64,
    /// True when the live map could not be used verbatim and the restore
    /// rolled back to the last complete manifest on the replica.
    pub rolled_back: bool,
}

/// Re-populate a fresh primary from the surviving replica.
///
/// With a `live` map (the rank was mounted when its shard died) every
/// committed extent is copied with streaming CRC verification and
/// mid-epoch extents are copied as-is — the restored image is
/// byte-identical to the moment of the failure. If verification fails,
/// or no live map survived, the restore rolls back to the replica's last
/// *complete* epoch: under the standard layout that is the newest sealed
/// manifest; under the chained layout the newest complete delta lineage,
/// materialized newest-backward. Either way only manifest extents are
/// copied, each strictly verified. Epochs lost in the rollback are
/// counted in `replication.lag_epochs`; any fallback counts a degraded
/// restore.
pub fn restore_from_replica(
    replica: &mut NvmfConnection,
    live: Option<(ExtentMap, u64)>,
    primary: &mut NvmfConnection,
    primary_base: u64,
    fs_size: u64,
    layout: ManifestLayout,
    t: &Telemetry,
) -> Result<RestoreOutcome, ReplicationError> {
    restore_from_replica_with(
        replica,
        live,
        primary,
        primary_base,
        fs_size,
        layout,
        t,
        &ChaosHandle::default(),
    )
}

/// [`restore_from_replica`] with a chaos handle: each extent copied back
/// consumes one nested [`chaos::RecoveryOp::RestoreExtent`] index, so the
/// nested crash plane can kill the restore mid-copy.
#[allow(clippy::too_many_arguments)]
pub fn restore_from_replica_with(
    replica: &mut NvmfConnection,
    live: Option<(ExtentMap, u64)>,
    primary: &mut NvmfConnection,
    primary_base: u64,
    fs_size: u64,
    layout: ManifestLayout,
    t: &Telemetry,
    chaos: &ChaosHandle,
) -> Result<RestoreOutcome, ReplicationError> {
    let metrics = ReplicationMetrics::new(t);
    let live_epoch = live.as_ref().map(|(_, e)| *e);
    if let Some((map, epoch)) = live {
        match restore_extents(replica, map.entries(), primary, primary_base, false, chaos) {
            Ok(()) => {
                copy_manifest_region(replica, primary, primary_base, fs_size)?;
                return Ok(RestoreOutcome {
                    map,
                    epoch,
                    rolled_back: false,
                });
            }
            Err(ReplicationError::Unrecoverable { .. }) => {
                // The replica disagrees with the live map (e.g. it was
                // mid-write when the primary died). Fall back to its
                // last sealed epoch.
                metrics.degraded_restores.inc();
            }
            Err(e) => return Err(e),
        }
    } else {
        metrics.degraded_restores.inc();
    }

    let (map, epoch) = if layout.is_chained() {
        let (extents, epoch) = materialize_chain_with(replica, fs_size, layout, chaos)?
            .ok_or(ReplicationError::NoCompleteEpoch)?;
        (ExtentMap::from_extents(&extents), epoch)
    } else {
        let manifest =
            read_latest_manifest(replica, fs_size)?.ok_or(ReplicationError::NoCompleteEpoch)?;
        let map = ExtentMap::from_manifest(&manifest);
        (map, manifest.epoch)
    };
    // Manifest extents always carry CRCs; verify strictly — a mismatch
    // here means the data is gone on both copies.
    restore_extents(replica, map.entries(), primary, primary_base, true, chaos)?;
    copy_manifest_region(replica, primary, primary_base, fs_size)?;
    if layout.is_chained() {
        // Slots newer than the restored epoch are stale heads of an
        // abandoned lineage; neuter them on both copies so they can never
        // chain onto post-restore manifests.
        invalidate_future_slots(primary, primary_base, fs_size, layout, epoch)?;
        invalidate_future_slots(replica, 0, fs_size, layout, epoch)?;
    }
    let lag = live_epoch.map_or(0, |le| le.saturating_sub(epoch));
    if live_epoch.is_some() {
        metrics.lag_epochs.add(lag);
    }
    metrics
        .flight
        .record(FlightKind::RollbackRestore, 0, 0, epoch, lag);
    metrics.flight.trip(FlightKind::RollbackRestore, epoch);
    telemetry::instant("replication", "rollback_restore", &[("epoch", epoch)]);
    Ok(RestoreOutcome {
        map,
        epoch,
        rolled_back: true,
    })
}

/// Copy `entries` from the replica onto the new primary, verifying the
/// streamed bytes against each recorded CRC. `strict` fails on extents
/// without a CRC (manifest path); otherwise they are copied unverified
/// (mid-epoch writes in a live map).
fn restore_extents(
    replica: &mut NvmfConnection,
    entries: Vec<(u64, u64, Option<u32>)>,
    primary: &mut NvmfConnection,
    primary_base: u64,
    strict: bool,
    chaos: &ChaosHandle,
) -> Result<(), ReplicationError> {
    for (offset, len, crc) in entries {
        if chaos.recovery_fire(chaos::RecoveryOp::RestoreExtent) {
            return Err(ReplicationError::Fabric(InitiatorError::Transport(
                "crash point: recovery restore extent".into(),
            )));
        }
        match crc {
            Some(expected) => {
                // Each chunk is checksummed once: the capsule reuses its
                // CRC and the extent CRC is composed from the chunk CRCs.
                let mut extent_crc = 0u32;
                let mut done = 0u64;
                while done < len {
                    let chunk = COPY_CHUNK.min((len - done) as usize);
                    let data = replica.read_bytes(offset + done, chunk)?;
                    let chunk_crc = crc32(&data);
                    extent_crc = crc32_concat(extent_crc, chunk_crc, chunk as u64);
                    primary.write_vectored_bytes_precrc(vec![(
                        primary_base + offset + done,
                        data,
                        chunk_crc,
                    )])?;
                    done += chunk as u64;
                }
                if extent_crc != expected {
                    return Err(ReplicationError::Unrecoverable { offset, len });
                }
            }
            None if strict => return Err(ReplicationError::Unrecoverable { offset, len }),
            None => copy_extent(replica, offset, primary, primary_base + offset, len)?,
        }
    }
    Ok(())
}

/// Carry the whole manifest region over so the new primary can serve
/// future restores and scrubs without the old replica. The region is the
/// same [`REGION_BYTES`] under either layout.
fn copy_manifest_region(
    replica: &mut NvmfConnection,
    primary: &mut NvmfConnection,
    primary_base: u64,
    fs_size: u64,
) -> Result<(), InitiatorError> {
    copy_extent(
        replica,
        fs_size,
        primary,
        primary_base + fs_size,
        REGION_BYTES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Initiator, NvmfTarget};
    use ssd::{Ssd, SsdConfig};

    /// A connection to a 64 MiB namespace on a fresh device, and the device.
    fn conn_on_fresh_ssd(name: &str, t: &Telemetry) -> (NvmfConnection, Arc<Ssd>) {
        let ssd = Arc::new(Ssd::with_telemetry(
            SsdConfig {
                capacity: 256 << 20,
                ..SsdConfig::default()
            },
            t.clone(),
        ));
        let ns = ssd.create_namespace(64 << 20).unwrap();
        let target = Arc::new(NvmfTarget::new(Arc::clone(&ssd)));
        let conn = Initiator::with_telemetry(name, t.clone()).connect(target, ns);
        (conn, ssd)
    }

    fn conn_pair() -> (NvmfConnection, NvmfConnection, Telemetry) {
        let t = Telemetry::new();
        let (p, _) = conn_on_fresh_ssd("nqn.prim", &t);
        let (r, _) = conn_on_fresh_ssd("nqn.repl", &t);
        (p, r, t)
    }

    const FS: u64 = 32 << 20;

    #[test]
    fn write_through_lands_on_both_and_commit_survives_roundtrip() {
        let (mut p, r, t) = conn_pair();
        let mut m = Mirror::new(r, &t);
        let data = Bytes::from(vec![0xABu8; 64 << 10]);
        m.write_through(
            &mut p,
            0,
            vec![(4096, data.clone()), (1 << 20, data.clone())],
        )
        .unwrap();
        let epoch = m.commit_epoch(&mut p, 0, FS).unwrap();
        assert_eq!(epoch, 1);
        assert!(!m.is_degraded());
        // Both copies hold the data; manifest decodes on both.
        let (mut r, map, epoch, _) = m.into_parts();
        assert_eq!(&r.read_bytes(4096, 64 << 10).unwrap()[..], &data[..]);
        assert_eq!(&p.read_bytes(1 << 20, 64 << 10).unwrap()[..], &data[..]);
        let from_replica = read_latest_manifest(&mut r, FS).unwrap().unwrap();
        let from_primary = read_latest_manifest(&mut p, FS).unwrap().unwrap();
        assert_eq!(from_replica.epoch, 1);
        assert_eq!(from_primary.epoch, 1);
        assert_eq!(
            ExtentMap::from_manifest(&from_replica).entries(),
            map.entries()
        );
        assert_eq!(epoch, 1);
        assert_eq!(t.snapshot().counter("replication.epochs_committed"), 1);
        assert_eq!(t.snapshot().counter("replication.bytes"), 2 * (64 << 10));
    }

    #[test]
    fn scrub_repairs_single_copy_corruption_and_reports_double() {
        let (mut p, r, t) = conn_pair();
        let mut m = Mirror::new(r, &t);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x11u8; 8192]))])
            .unwrap();
        m.write_through(&mut p, 0, vec![(1 << 20, Bytes::from(vec![0x22u8; 8192]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // Corrupt the primary's first extent behind the mirror's back.
        p.write_bytes(100, Bytes::from_static(b"rot")).unwrap();
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!(rep.repaired, 1);
        assert_eq!(rep.unrecoverable, 0);
        assert_eq!(&p.read_bytes(0, 8192).unwrap()[..], &[0x11u8; 8192][..]);
        // Clean second pass.
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!((rep.repaired, rep.unrecoverable), (0, 0));
        // Corrupt the same extent on both copies: unrecoverable.
        p.write_bytes(100, Bytes::from_static(b"rot")).unwrap();
        {
            let (r, map, epoch, _) = m.into_parts();
            let mut r = r;
            r.write_bytes(100, Bytes::from_static(b"rot")).unwrap();
            m = Mirror::with_state(r, map, epoch, &t);
        }
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!(rep.unrecoverable, 1);
        assert_eq!(t.snapshot().counter("replication.repairs"), 1);
    }

    #[test]
    fn restore_from_live_map_is_byte_identical() {
        let (mut p, r, t) = conn_pair();
        let mut m = Mirror::new(r, &t);
        let a = Bytes::from(
            (0..16384u32)
                .flat_map(|i| (i as u8).to_le_bytes())
                .collect::<Vec<_>>(),
        );
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // One uncommitted (mid-epoch) write too.
        let b = Bytes::from(vec![0x77u8; 4096]);
        m.write_through(&mut p, 0, vec![(2 << 20, b.clone())])
            .unwrap();

        let (mut replica, map, epoch, _) = m.into_parts();
        let (mut fresh, _unused_replica, _) = conn_pair();
        let out = restore_from_replica(
            &mut replica,
            Some((map, epoch)),
            &mut fresh,
            0,
            FS,
            ManifestLayout::standard(),
            &t,
        )
        .unwrap();
        assert!(!out.rolled_back);
        assert_eq!(out.epoch, 1);
        assert_eq!(&fresh.read_bytes(0, a.len()).unwrap()[..], &a[..]);
        assert_eq!(&fresh.read_bytes(2 << 20, 4096).unwrap()[..], &b[..]);
        // Manifest region carried over.
        assert_eq!(
            read_latest_manifest(&mut fresh, FS).unwrap().unwrap().epoch,
            1
        );
    }

    #[test]
    fn restore_without_live_map_rolls_back_to_last_complete_epoch() {
        let (mut p, r, t) = conn_pair();
        let mut m = Mirror::new(r, &t);
        let a = Bytes::from(vec![0x31u8; 8192]);
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // Mid-epoch write that never commits — must not appear.
        m.write_through(&mut p, 0, vec![(1 << 20, Bytes::from(vec![0x99u8; 4096]))])
            .unwrap();
        let (mut replica, _, _, _) = m.into_parts();
        let (mut fresh, _u, _) = conn_pair();
        let out = restore_from_replica(
            &mut replica,
            None,
            &mut fresh,
            0,
            FS,
            ManifestLayout::standard(),
            &t,
        )
        .unwrap();
        assert!(out.rolled_back);
        assert_eq!(out.epoch, 1);
        assert_eq!(&fresh.read_bytes(0, 8192).unwrap()[..], &a[..]);
        assert_eq!(t.snapshot().counter("replication.degraded_restores"), 1);
    }

    #[test]
    fn restore_with_no_manifest_is_no_complete_epoch() {
        let (_p, mut r, t) = conn_pair();
        let (mut fresh, _u, _) = conn_pair();
        assert!(matches!(
            restore_from_replica(
                &mut r,
                None,
                &mut fresh,
                0,
                FS,
                ManifestLayout::standard(),
                &t
            ),
            Err(ReplicationError::NoCompleteEpoch)
        ));
    }

    #[test]
    fn rescan_rebuilds_a_committable_map() {
        let (mut p, r, t) = conn_pair();
        let mut m = Mirror::new(r, &t);
        m.write_through(&mut p, 0, vec![(4096, Bytes::from(vec![0x42u8; 12288]))])
            .unwrap();
        // Simulate losing the in-memory map: fresh mirror over the same
        // replica, rescan from the primary.
        let (r, _, _, _) = m.into_parts();
        let mut m = Mirror::with_state(r, ExtentMap::new(), 0, &t);
        m.rescan(&mut p, 0, FS).unwrap();
        // Whole-partition chunks merge into one extent.
        assert_eq!(m.map().len(), 1);
        let epoch = m.commit_epoch(&mut p, 0, FS).unwrap();
        assert_eq!(epoch, 1);
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!(rep.unrecoverable, 0);
        assert_eq!(rep.repaired, 0);
    }

    /// Build a chained mirror over a fresh conn pair.
    fn chained_mirror(max: u32) -> (NvmfConnection, Mirror, Telemetry) {
        let (p, r, t) = conn_pair();
        let mut m = Mirror::new(r, &t);
        m.enable_delta_chain(max);
        (p, m, t)
    }

    /// A chained mirror whose primary device is handed back too, so a test
    /// can watch the bytes read from it.
    fn watched_chained_mirror(max: u32) -> (NvmfConnection, Arc<Ssd>, Mirror) {
        let t = Telemetry::new();
        let (p, ssd) = conn_on_fresh_ssd("nqn.prim", &t);
        let (r, _) = conn_on_fresh_ssd("nqn.repl", &t);
        let mut m = Mirror::new(r, &t);
        m.enable_delta_chain(max);
        (p, ssd, m)
    }

    /// Offsets of 256 KiB block-aligned overwrites, and of one 256 KiB
    /// discard, none of them aligned to a 64 KiB tile.
    const RESCAN_WRITES: [u64; 3] = [3 << 12, (5 << 20) + (3 << 12), (9 << 20) + (10 << 12)];
    const RESCAN_DISCARD: u64 = (12 << 20) + (1 << 12);

    #[test]
    fn rescan_tiles_bound_commit_read_back_to_write_boundaries() {
        const PART: u64 = 16 << 20;
        let (mut p, ssd, mut m) = watched_chained_mirror(4);
        m.rescan(&mut p, 0, PART).unwrap();
        let tile = CHAIN_MERGE_LIMIT;
        let data = Bytes::from(vec![0xC3u8; 256 << 10]);
        for &off in &RESCAN_WRITES {
            m.write_through(&mut p, 0, vec![(off, data.clone())])
                .unwrap();
        }
        m.discard(RESCAN_DISCARD, 256 << 10);
        let read_before = ssd.io_counters().3;
        m.commit_epoch(&mut p, 0, PART).unwrap();
        let read_back = ssd.io_counters().3 - read_before;
        // Every write and the discard split at most one tile per boundary.
        let boundaries = 2 * (RESCAN_WRITES.len() as u64 + 1);
        assert!(read_back > 0, "split tiles must be re-read");
        assert!(
            read_back <= boundaries * tile,
            "commit re-read {read_back} B for {boundaries} boundaries of {tile} B tiles"
        );
        assert!(m.map().dirty_fragments().is_empty());
        let rep = m.scrub(&mut p, 0).unwrap();
        assert_eq!((rep.repaired, rep.unrecoverable), (0, 0));
    }

    #[test]
    fn rescan_tile_grows_only_until_the_manifest_fits() {
        let chained = ManifestLayout::chained();
        let max = chained.max_full_extents() as u64;
        assert_eq!(rescan_tile(CHAIN_MERGE_LIMIT, chained, 16 << 20), 64 << 10);
        assert_eq!(rescan_tile(CHAIN_MERGE_LIMIT, chained, max << 16), 64 << 10);
        assert_eq!(
            rescan_tile(CHAIN_MERGE_LIMIT, chained, (max << 16) + 1),
            128 << 10
        );
        assert_eq!(rescan_tile(CHAIN_MERGE_LIMIT, chained, 1 << 30), 256 << 10);
        // Unlimited merging reads and records whole chunks.
        let standard = ManifestLayout::standard();
        assert_eq!(rescan_tile(u64::MAX, standard, 16 << 20), COPY_CHUNK as u64);
    }

    #[test]
    fn rescan_with_wider_tiles_still_commits() {
        const PART: u64 = 16 << 20;
        let (mut p, _ssd, mut m) = watched_chained_mirror(4);
        // Slots too small for a full manifest of the partition in 64 KiB
        // tiles (256 extents): rescan must widen the tiles.
        m.layout = ManifestLayout {
            slots: m.layout.slots,
            slot_bytes: 4 << 10,
        };
        assert!(PART / CHAIN_MERGE_LIMIT > m.layout.max_full_extents() as u64);
        m.rescan(&mut p, 0, PART).unwrap();
        assert_eq!(m.map().len() as u64, PART / (128 << 10));
        assert_eq!(m.commit_epoch(&mut p, 0, PART).unwrap(), 1);
        let data = Bytes::from(vec![0x5Au8; 256 << 10]);
        for &off in &RESCAN_WRITES {
            m.write_through(&mut p, 0, vec![(off, data.clone())])
                .unwrap();
        }
        m.discard(RESCAN_DISCARD, 256 << 10);
        assert_eq!(m.commit_epoch(&mut p, 0, PART).unwrap(), 2);
        let layout = m.layout();
        let (mut replica, map, _, _) = m.into_parts();
        let (extents, head) = materialize_chain(&mut replica, PART, layout)
            .unwrap()
            .unwrap();
        assert_eq!(head, 2);
        assert_eq!(
            extents
                .iter()
                .map(|e| (e.offset, e.len, Some(e.crc)))
                .collect::<Vec<_>>(),
            map.entries()
        );
    }

    #[test]
    fn delta_chain_seals_sparse_manifests_and_materializes() {
        let (mut p, mut m, t) = chained_mirror(4);
        // Tile the base image at the chain merge granularity so a later
        // single-tile overwrite re-seals exactly one tuple.
        let tile = Bytes::from(vec![0xA0u8; 64 << 10]);
        for i in 0..4u64 {
            m.write_through(&mut p, 0, vec![(i * (64 << 10), tile.clone())])
                .unwrap();
        }
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // Dirty one 64 KiB tile out of four.
        let dirty = Bytes::from(vec![0xB1u8; 64 << 10]);
        m.write_through(&mut p, 0, vec![(64 << 10, dirty.clone())])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();

        let layout = ManifestLayout::chained();
        let manifests = read_manifests(&mut p, FS, layout).unwrap();
        let e1 = manifests.iter().find(|m| m.epoch == 1).unwrap();
        let e2 = manifests.iter().find(|m| m.epoch == 2).unwrap();
        assert!(!e1.is_delta(), "first commit anchors the chain");
        assert!(e2.is_delta(), "second commit is a sparse delta");
        assert_eq!(e2.parent_epoch, 1);
        assert_eq!(e2.extents.len(), 1, "only the dirty tile re-seals");
        assert_eq!(e2.extents[0].offset, 64 << 10);

        // The materialized chain tiles the whole image, newest-first.
        let (extents, head) = materialize_chain(&mut p, FS, layout).unwrap().unwrap();
        assert_eq!(head, 2);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 256 << 10);
        assert!(t.snapshot().counter("cow.delta_extents") >= 1);
        assert_eq!(t.snapshot().gauge("cow.chain_len").value, 2);
    }

    #[test]
    fn compaction_policy_reseals_full_after_max_deltas() {
        let (mut p, mut m, t) = chained_mirror(2);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x10u8; 128 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // epoch 1: full (anchor)
        for i in 0..3u8 {
            m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x20 + i; 64 << 10]))])
                .unwrap();
            m.commit_epoch(&mut p, 0, FS).unwrap();
        }
        // Epochs 2 and 3 are deltas; epoch 4 hits delta_chain_max=2 and
        // compacts back to a full manifest.
        let manifests = read_manifests(&mut p, FS, ManifestLayout::chained()).unwrap();
        let is_delta = |e: u64| manifests.iter().find(|m| m.epoch == e).unwrap().is_delta();
        assert!(!is_delta(1));
        assert!(is_delta(2));
        assert!(is_delta(3));
        assert!(!is_delta(4), "chain compacts after delta_chain_max deltas");
        assert_eq!(m.chain_len(), 0);
        assert_eq!(t.snapshot().gauge("cow.chain_len").value, 1);
        assert!(t
            .snapshot()
            .histogram("cow.compaction_ns")
            .is_some_and(|h| h.count >= 2));
    }

    #[test]
    fn whiteouts_shadow_ancestor_extents_in_materialization() {
        let (mut p, mut m, _t) = chained_mirror(4);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x55u8; 192 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap();
        // Whiteout the middle tile, dirty nothing else.
        m.discard(64 << 10, 64 << 10);
        m.commit_epoch(&mut p, 0, FS).unwrap();

        let layout = ManifestLayout::chained();
        let e2 = read_manifests(&mut p, FS, layout)
            .unwrap()
            .into_iter()
            .find(|m| m.epoch == 2)
            .unwrap();
        assert_eq!(e2.whiteouts, vec![(64 << 10, 64 << 10)]);
        let (extents, head) = materialize_chain(&mut p, FS, layout).unwrap().unwrap();
        assert_eq!(head, 2);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 128 << 10, "whiteout tile is not materialized");
        assert!(extents
            .iter()
            .all(|e| e.offset + e.len <= 64 << 10 || e.offset >= 128 << 10));
    }

    #[test]
    fn chained_restore_materializes_through_the_delta_chain() {
        let (mut p, mut m, t) = chained_mirror(6);
        let a = Bytes::from(vec![0xAAu8; 256 << 10]);
        let b = Bytes::from(vec![0xBBu8; 64 << 10]);
        let c = Bytes::from(vec![0xCCu8; 64 << 10]);
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        m.write_through(&mut p, 0, vec![(64 << 10, b.clone())])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 2: delta
        m.write_through(&mut p, 0, vec![(1 << 20, c.clone())])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 3: delta

        let (mut replica, _, _, _) = m.into_parts();
        let (mut fresh, _u, _) = conn_pair();
        let layout = ManifestLayout::chained();
        let out = restore_from_replica(&mut replica, None, &mut fresh, 0, FS, layout, &t).unwrap();
        assert!(out.rolled_back);
        assert_eq!(out.epoch, 3);
        assert_eq!(&fresh.read_bytes(0, 64 << 10).unwrap()[..], &a[..64 << 10]);
        assert_eq!(&fresh.read_bytes(64 << 10, 64 << 10).unwrap()[..], &b[..]);
        assert_eq!(
            &fresh.read_bytes(128 << 10, 128 << 10).unwrap()[..],
            &a[..128 << 10]
        );
        assert_eq!(&fresh.read_bytes(1 << 20, 64 << 10).unwrap()[..], &c[..]);
    }

    #[test]
    fn chain_hole_falls_back_to_older_complete_head() {
        // A degraded-mode commit writes only the primary: the replica
        // keeps both its old data AND its old manifests, so a later
        // replica-side materialization sees a hole in the newest lineage
        // and must fall back to the newest head whose chain is complete.
        let (mut p, mut m, _t) = chained_mirror(6);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x11u8; 128 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x22u8; 64 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 2: delta
        m.write_through(
            &mut p,
            0,
            vec![(64 << 10, Bytes::from(vec![0x33u8; 64 << 10]))],
        )
        .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 3: delta

        // Zero epoch 2's commit record on the primary — the shape its
        // region takes when that commit only ever reached the replica.
        let layout = ManifestLayout::chained();
        let hole = FS + layout.slot_offset(2);
        let zeros = Bytes::from(vec![0u8; COMMIT_RECORD_BYTES as usize]);
        let crc = crc32(&zeros);
        p.write_vectored_bytes_precrc(vec![(hole, zeros, crc)])
            .unwrap();
        p.flush().unwrap();

        // Epoch 3's parent link dangles; the walk skips it and lands on
        // the complete epoch-1 anchor.
        let (extents, head) = materialize_chain(&mut p, FS, layout).unwrap().unwrap();
        assert_eq!(head, 1, "incomplete lineages are skipped");
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 128 << 10);
    }

    /// Simulate a crash between a commit's two phases: the body landed in
    /// the slot but the commit record never did. Returns the slot offset.
    fn write_torn_slot(conn: &mut NvmfConnection, m: &EpochManifest, layout: ManifestLayout) {
        let body = Bytes::from(m.encode_body().unwrap());
        let crc = crc32(&body);
        let slot = FS + layout.slot_offset(m.epoch);
        conn.write_vectored_bytes_precrc(vec![(slot + COMMIT_RECORD_BYTES, body, crc)])
            .unwrap();
        conn.flush().unwrap();
    }

    #[test]
    fn torn_delta_commit_rolls_back_to_last_complete_epoch() {
        let (mut p, mut m, _t) = chained_mirror(6);
        let a = Bytes::from(vec![0x61u8; 128 << 10]);
        m.write_through(&mut p, 0, vec![(0, a.clone())]).unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x62u8; 64 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 2: delta
                                                // Epoch 3's delta body reaches both slots, but the crash lands
                                                // before either commit record: the chain head stays at 2.
        let layout = ManifestLayout::chained();
        let torn = EpochManifest {
            epoch: 3,
            parent_epoch: 2,
            extents: vec![ManifestExtent {
                offset: 64 << 10,
                len: 64 << 10,
                crc: 0xBAD,
            }],
            whiteouts: Vec::new(),
        };
        write_torn_slot(&mut p, &torn, layout);
        let (mut replica, _, _, _) = m.into_parts();
        write_torn_slot(&mut replica, &torn, layout);
        let (_, head) = materialize_chain(&mut replica, FS, layout)
            .unwrap()
            .unwrap();
        assert_eq!(head, 2, "the torn delta must stay invisible");
    }

    #[test]
    fn torn_compaction_commit_rolls_back_to_the_sealed_chain() {
        let (mut p, mut m, _t) = chained_mirror(6);
        m.write_through(&mut p, 0, vec![(0, Bytes::from(vec![0x71u8; 128 << 10]))])
            .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 1: full
        m.write_through(
            &mut p,
            0,
            vec![(64 << 10, Bytes::from(vec![0x72u8; 64 << 10]))],
        )
        .unwrap();
        m.commit_epoch(&mut p, 0, FS).unwrap(); // 2: delta
                                                // A compaction (full manifest) for epoch 3 is torn mid-commit:
                                                // restore still materializes the sealed 1 <- 2 lineage.
        let layout = ManifestLayout::chained();
        let full = m.map().to_manifest(3).unwrap();
        write_torn_slot(&mut p, &full, layout);
        let (mut replica, _, _, _) = m.into_parts();
        write_torn_slot(&mut replica, &full, layout);
        let (extents, head) = materialize_chain(&mut replica, FS, layout)
            .unwrap()
            .unwrap();
        assert_eq!(head, 2);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 128 << 10);
    }

    use proptest::prelude::*;

    proptest! {
        /// Any randomly generated delta chain — random dirty fractions,
        /// compaction points (driven by `chain_max`), overlapping writes,
        /// and whiteouts — materializes to exactly the byte set and bytes
        /// of the equivalent full rewrite (the mirror's final extent map).
        #[test]
        fn prop_chain_materializes_byte_identical(
            chain_max in 1u32..5,
            epochs in proptest::collection::vec(
                (
                    proptest::collection::vec((0u64..60, 1u64..5, any::<u8>()), 1..6),
                    proptest::collection::vec((0u64..60, 1u64..5), 0..3),
                ),
                1..6,
            ),
        ) {
            const BS: u64 = 4096;
            let (mut p, r, t) = conn_pair();
            let mut m = Mirror::new(r, &t);
            m.enable_delta_chain(chain_max);
            let mut shadow = vec![0u8; (64 * BS) as usize];
            for (writes, whiteouts) in &epochs {
                for &(blk, blocks, fill) in writes {
                    let (off, len) = (blk * BS, blocks * BS);
                    m.write_through(&mut p, 0, vec![(off, Bytes::from(vec![fill; len as usize]))])
                        .unwrap();
                    shadow[off as usize..(off + len) as usize].fill(fill);
                }
                for &(blk, blocks) in whiteouts {
                    m.discard(blk * BS, blocks * BS);
                }
                m.commit_epoch(&mut p, 0, FS).unwrap();
            }
            let want: Vec<(u64, u64)> = m
                .map()
                .entries()
                .into_iter()
                .map(|(o, l, _)| (o, l))
                .collect();
            let (mut replica, _, _, _) = m.into_parts();
            let layout = ManifestLayout::chained();
            let materialized = materialize_chain(&mut replica, FS, layout).unwrap();
            prop_assert!(
                materialized.is_some(),
                "committed chains always materialize"
            );
            let (extents, _) = materialized.unwrap();
            // Same byte set as the equivalent full rewrite...
            let mut got = IntervalSet::new();
            for e in &extents {
                got.insert(e.offset, e.offset + e.len);
            }
            let mut full = IntervalSet::new();
            for &(o, l) in &want {
                full.insert(o, o + l);
            }
            prop_assert_eq!(got.spans(), full.spans());
            // ...and byte-identical content under every extent.
            for e in &extents {
                let data = replica.read_bytes(e.offset, e.len as usize).unwrap();
                prop_assert_eq!(
                    &data[..],
                    &shadow[e.offset as usize..(e.offset + e.len) as usize]
                );
            }
        }
    }
}
