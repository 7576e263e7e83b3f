//! The per-stream epoch log: base + delta chain, manifests, GC.
//!
//! Layout under one stream prefix (e.g. `s0`):
//!
//! ```text
//! s0/base/{epoch}        full snapshot opening a chain
//! s0/delta/{epoch}       CloudDelta on top of an earlier persisted epoch
//! s0/aux/{seq}           auxiliary stream state of checkpoint generation seq
//! s0/manifest/{seq}      generation root: chain + window epochs + aux ref
//! ```
//!
//! The manifest is written **last**: until it lands, a crashed checkpoint
//! attempt leaves only unreferenced records and the previous generation
//! restores untouched. Restore scans manifests newest → oldest and takes the
//! first one whose *entire* chain validates (framing checksums, epoch
//! continuity, delta parent lengths) — a torn or corrupted generation is
//! skipped, not silently loaded.

use crate::backend::MapStore;
use crate::delta::{decode_cloud_payload, encode_cloud_payload, CloudDelta};
use crate::error::StoreError;
use crate::framing::{frame, unframe, RecordKind};
use crate::retry::RetryPolicy;
use crate::wire::{ByteReader, ByteWriter};
use ags_splat::{CloudSnapshot, GaussianCloud};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Tuning for the durability layer.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Total attempts per store write before an I/O error is returned
    /// (so `retry_attempts - 1` retries).
    pub retry_attempts: usize,
    /// Base backoff between write retries; doubles per retry, capped at
    /// `64 ×` base.
    pub retry_backoff_ms: u64,
    /// When a chain accumulates more deltas than this, the next commit
    /// rewrites a fresh base instead of extending the chain — bounding both
    /// restore time and the window a single corrupt delta can poison.
    pub rebase_after_deltas: usize,
    /// Checkpoint generations kept by GC (the newest `n`; minimum 1).
    pub keep_manifests: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self { retry_attempts: 3, retry_backoff_ms: 1, rebase_after_deltas: 32, keep_manifests: 2 }
    }
}

impl CheckpointConfig {
    /// The write-path [`RetryPolicy`] implied by this config. The
    /// per-attempt timeout only matters to remote stores (local backends
    /// complete or fail immediately).
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::new(
            self.retry_attempts.max(1).min(u32::MAX as usize) as u32,
            Duration::from_millis(1000),
            Duration::from_millis(self.retry_backoff_ms),
        )
    }
}

/// Byte and record counters for the bench harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Full base snapshots written.
    pub base_records: u64,
    /// Bytes of base records (framed).
    pub base_bytes: u64,
    /// Delta records written.
    pub delta_records: u64,
    /// Bytes of delta records (framed).
    pub delta_bytes: u64,
    /// Store writes retried after a transient I/O error.
    pub write_retries: u64,
    /// Backoff sleeps taken by the write retry path.
    pub write_backoff_waits: u64,
    /// Records fetched by the open/restore paths (manifests, bases,
    /// deltas, aux). GC reads are not counted, so a restore's traffic can be
    /// checked against the length of the chain it adopted.
    pub read_records: u64,
    /// Bytes of those fetched records (framed).
    pub read_bytes: u64,
    /// Checkpoint generations committed.
    pub commits: u64,
    /// Always 0. Only user: `benchmark/src/sut.rs:387`; `benchmark/` may
    /// not be edited, the next `benchmark` PR drops the field.
    #[doc(hidden)]
    pub commit_top_ups: u64,
    /// Always 0. Only user: `benchmark/src/sut.rs:386`; goes with the field
    /// above.
    #[doc(hidden)]
    pub sink_dropped: u64,
}

impl StoreStats {
    /// Mean framed delta size, `0.0` when no delta was written.
    pub fn delta_bytes_per_record(&self) -> f64 {
        if self.delta_records == 0 {
            0.0
        } else {
            self.delta_bytes as f64 / self.delta_records as f64
        }
    }
}

/// Outcome of a committed checkpoint generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReport {
    /// Generation sequence number.
    pub seq: u64,
    /// Whether this commit rewrote a fresh base (vs. extending the chain).
    pub rebased: bool,
    /// Records in the generation's chain (base + deltas).
    pub chain_len: usize,
    /// Store writes this commit retried after transient errors.
    pub retries: u64,
}

/// A checkpoint generation read back from the store.
#[derive(Debug)]
pub struct RestoredCheckpoint {
    /// Generation sequence number it came from.
    pub seq: u64,
    /// The persisted snapshot window, ascending by epoch; the last entry is
    /// the newest persisted map state.
    pub window: Vec<CloudSnapshot>,
    /// The auxiliary stream-state payload stored alongside the window.
    pub aux: Vec<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainEntry {
    epoch: u64,
    base: bool,
}

/// The epoch-delta checkpoint log over a [`MapStore`], scoped to one stream
/// prefix. All writes for a stream go through exactly one `EpochStore`
/// (owned by the stream's slot in the server), so the chain is
/// single-writer by construction.
pub struct EpochStore {
    store: Box<dyn MapStore>,
    prefix: String,
    config: CheckpointConfig,
    /// The live chain (base first), matching what is on the store.
    chain: Vec<ChainEntry>,
    /// Newest persisted epoch (diff parent for the next delta). Holding the
    /// snapshot is an `Arc` bump, not a cloud copy.
    last: Option<CloudSnapshot>,
    /// Head epoch of a chain adopted by [`open`](Self::open) from its
    /// manifest alone (`last` stays `None` until a restore). Epochs at or
    /// below it are already persisted and skipped; a fresh epoch above it
    /// starts a new chain.
    adopted_head: Option<u64>,
    next_seq: u64,
    stats: StoreStats,
}

impl std::fmt::Debug for EpochStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochStore")
            .field("prefix", &self.prefix)
            .field("chain_len", &self.chain.len())
            .finish_non_exhaustive()
    }
}

impl EpochStore {
    /// Opens the epoch log for `prefix` **without materializing** anything:
    /// the next unused sequence number is claimed (never reusing one, even
    /// of a corrupt generation), and the newest structurally-valid manifest
    /// is fetched and its chain adopted by reference. The snapshots
    /// themselves are fetched only when
    /// [`restore_latest`](Self::restore_latest) asks for them, so open +
    /// restore fetches every chain record exactly once.
    pub fn open(
        store: Box<dyn MapStore>,
        prefix: impl Into<String>,
        config: CheckpointConfig,
    ) -> Result<Self, StoreError> {
        let mut log = Self {
            store,
            prefix: prefix.into(),
            config,
            chain: Vec::new(),
            last: None,
            adopted_head: None,
            next_seq: 0,
            stats: StoreStats::default(),
        };
        let manifests = log.manifest_keys()?;
        log.next_seq = manifests
            .iter()
            .filter_map(|k| k.rsplit('/').next()?.parse::<u64>().ok())
            .max()
            .map_or(0, |m| m + 1);
        for key in manifests.iter().rev() {
            if let Ok((chain, _, _)) = log.read_manifest(key) {
                log.adopted_head = chain.last().map(|c| c.epoch);
                log.chain = chain;
                break;
            }
        }
        Ok(log)
    }

    /// Fetches and structurally validates the manifest at `key`, returning
    /// `(chain, window epochs, aux seq)` without fetching any chain record.
    fn read_manifest(&mut self, key: &str) -> Result<(Vec<ChainEntry>, Vec<u64>, u64), StoreError> {
        let bytes =
            self.read_record(key)?.ok_or_else(|| StoreError::Missing(format!("manifest {key}")))?;
        let manifest = decode_manifest(unframe(RecordKind::Manifest, &bytes)?)?;
        validate_chain_shape(&manifest.0)?;
        Ok(manifest)
    }

    /// The stream prefix this log writes under.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Write, read and retry counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Consumes the log, returning the backing store.
    pub fn into_store(self) -> Box<dyn MapStore> {
        self.store
    }

    fn key_base(&self, epoch: u64) -> String {
        format!("{}/base/{epoch:020}", self.prefix)
    }

    fn key_delta(&self, epoch: u64) -> String {
        format!("{}/delta/{epoch:020}", self.prefix)
    }

    fn key_aux(&self, seq: u64) -> String {
        format!("{}/aux/{seq:020}", self.prefix)
    }

    fn key_manifest(&self, seq: u64) -> String {
        format!("{}/manifest/{seq:020}", self.prefix)
    }

    fn manifest_keys(&self) -> Result<Vec<String>, StoreError> {
        self.store.keys(&format!("{}/manifest/", self.prefix))
    }

    /// Writes through the config's [`RetryPolicy`]: transient errors
    /// ([`StoreError::is_transient`]) retry with deterministic exponential
    /// backoff, permanent ones surface immediately. Retry and backoff
    /// counts land in [`StoreStats`].
    fn put_with_retry(&mut self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        let policy = self.config.retry_policy();
        let store = &mut self.store;
        let (result, telemetry) = policy.run_tracked(|_| store.put(key, bytes.clone()));
        self.stats.write_retries += telemetry.retries;
        self.stats.write_backoff_waits += telemetry.backoff_waits;
        result
    }

    /// Fetches one record, counting fetched records/bytes in [`StoreStats`]
    /// so restore paths can be compared by store traffic.
    fn read_record(&mut self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let got = self.store.get(key)?;
        if let Some(bytes) = &got {
            self.stats.read_records += 1;
            self.stats.read_bytes += bytes.len() as u64;
        }
        Ok(got)
    }

    fn write_base(&mut self, snap: &CloudSnapshot) -> Result<(), StoreError> {
        let mut w = ByteWriter::new();
        w.put_u64(snap.epoch());
        encode_cloud_payload(&mut w, snap.cloud());
        let bytes = frame(RecordKind::Base, &w.into_bytes());
        let len = bytes.len() as u64;
        let key = self.key_base(snap.epoch());
        self.put_with_retry(&key, bytes)?;
        self.stats.base_records += 1;
        self.stats.base_bytes += len;
        self.chain = vec![ChainEntry { epoch: snap.epoch(), base: true }];
        self.last = Some(snap.clone());
        self.adopted_head = None;
        Ok(())
    }

    fn write_delta(&mut self, snap: &CloudSnapshot) -> Result<(), StoreError> {
        let parent = self.last.clone().expect("delta writes require a persisted parent");
        let delta = CloudDelta::diff(parent.cloud(), parent.epoch(), snap.cloud(), snap.epoch());
        let bytes = frame(RecordKind::Delta, &delta.encode());
        let len = bytes.len() as u64;
        let key = self.key_delta(snap.epoch());
        self.put_with_retry(&key, bytes)?;
        self.stats.delta_records += 1;
        self.stats.delta_bytes += len;
        self.chain.push(ChainEntry { epoch: snap.epoch(), base: false });
        self.last = Some(snap.clone());
        Ok(())
    }

    /// Persists one published epoch incrementally: a base if the chain is
    /// empty, else a delta against the newest persisted epoch. Epochs at or
    /// below that one are skipped (returns `Ok(false)`) — consecutive
    /// commit windows overlap.
    pub fn persist_epoch(&mut self, snap: &CloudSnapshot) -> Result<bool, StoreError> {
        // Before the first restore or write, the head of the chain adopted
        // at open stands in for `last`.
        let head = self.last.as_ref().map(CloudSnapshot::epoch).or(self.adopted_head);
        if head.is_some_and(|head| snap.epoch() <= head) {
            return Ok(false);
        }
        if self.last.is_none() {
            self.write_base(snap)?;
        } else {
            self.write_delta(snap)?;
        }
        Ok(true)
    }

    fn encode_manifest(&self, seq: u64, window: &[CloudSnapshot]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(seq);
        w.put_usize(self.chain.len());
        for entry in &self.chain {
            w.put_u8(entry.base as u8);
            w.put_u64(entry.epoch);
        }
        w.put_usize(window.len());
        for snap in window {
            w.put_u64(snap.epoch());
        }
        w.put_u64(seq); // aux seq (same generation)
        w.into_bytes()
    }

    /// Commits a checkpoint generation: persists every window epoch the
    /// chain does not hold yet (rebasing onto a fresh base when the chain
    /// got long or holey), writes the aux payload, and finally the manifest
    /// — the atomicity point. Superseded generations are garbage-collected
    /// afterwards.
    ///
    /// `window` must be ascending in epoch and non-empty; its last entry is
    /// the stream's newest map state.
    pub fn commit(
        &mut self,
        window: &[CloudSnapshot],
        aux: &[u8],
    ) -> Result<CommitReport, StoreError> {
        assert!(!window.is_empty(), "checkpoint window must not be empty");
        let retries_before = self.stats.write_retries;
        debug_assert!(
            window.windows(2).all(|p| p[0].epoch() < p[1].epoch()),
            "checkpoint window must be ascending in epoch"
        );
        for snap in window {
            self.persist_epoch(snap)?;
        }
        // The restore path replays the chain from its base; every window
        // epoch must sit on it. A caller's own `persist_epoch` calls can
        // leave holes *inside* the window range, and long runs grow
        // unbounded chains — both are fixed by rebasing: a fresh base at
        // the window start plus deltas between consecutive window epochs.
        let on_chain = |chain: &[ChainEntry], e: u64| chain.iter().any(|c| c.epoch == e);
        let holey = !window.iter().all(|s| on_chain(&self.chain, s.epoch()));
        let too_long = self.chain.len().saturating_sub(1) > self.config.rebase_after_deltas;
        // Restore adopts (chain, head = newest window epoch); committing a
        // window that stops short of the chain head would break that, so
        // such a commit starts a fresh chain too.
        let head_epoch = window.last().expect("window is non-empty").epoch();
        let head_matches = self.chain.last().is_some_and(|c| c.epoch == head_epoch);
        // A chain adopted at open was never *content*-validated (only a
        // restore does that) — committing against it could reference torn
        // records, so such a commit starts a fresh chain.
        let unvalidated = self.adopted_head.is_some();
        let rebased = holey || too_long || !head_matches || unvalidated;
        if rebased {
            self.write_base(&window[0])?;
            for snap in &window[1..] {
                self.write_delta(snap)?;
            }
        }
        let seq = self.next_seq;
        let aux_key = self.key_aux(seq);
        self.put_with_retry(&aux_key, frame(RecordKind::Aux, aux))?;
        let manifest = frame(RecordKind::Manifest, &self.encode_manifest(seq, window));
        let manifest_key = self.key_manifest(seq);
        self.put_with_retry(&manifest_key, manifest)?;
        self.next_seq = seq + 1;
        self.stats.commits += 1;
        // GC is best-effort: the generation is already durable, and a
        // failed delete only leaves unreferenced records behind.
        let _ = self.gc();
        Ok(CommitReport {
            seq,
            rebased,
            chain_len: self.chain.len(),
            retries: self.stats.write_retries - retries_before,
        })
    }

    /// Keys referenced by the manifest stored at `key` (chain + aux), or an
    /// error when the manifest itself is unreadable.
    fn manifest_refs(&self, key: &str) -> Result<Vec<String>, StoreError> {
        let bytes =
            self.store.get(key)?.ok_or_else(|| StoreError::Missing(format!("manifest {key}")))?;
        let payload = unframe(RecordKind::Manifest, &bytes)?;
        let (chain, _, aux_seq) = decode_manifest(payload)?;
        let mut refs = Vec::with_capacity(chain.len() + 1);
        for entry in &chain {
            refs.push(if entry.base {
                self.key_base(entry.epoch)
            } else {
                self.key_delta(entry.epoch)
            });
        }
        refs.push(self.key_aux(aux_seq));
        Ok(refs)
    }

    /// Deletes every record under the prefix not referenced by the newest
    /// `keep_manifests` generations (unreadable old generations are dropped
    /// wholesale — they could never restore anyway).
    fn gc(&mut self) -> Result<(), StoreError> {
        let manifests = self.manifest_keys()?;
        let kept: Vec<String> =
            manifests.iter().rev().take(self.config.keep_manifests.max(1)).cloned().collect();
        let mut live: BTreeSet<String> = kept.iter().cloned().collect();
        for key in &kept {
            if let Ok(refs) = self.manifest_refs(key) {
                live.extend(refs);
            }
        }
        for key in self.store.keys(&format!("{}/", self.prefix))? {
            if !live.contains(&key) {
                self.store.delete(&key)?;
            }
        }
        Ok(())
    }

    /// Reads back the newest fully-valid checkpoint generation, or `None`
    /// when no generation restores. Generations failing *any* validation —
    /// framing, checksum, chain continuity, delta parent mismatch, missing
    /// window epoch, unreadable aux — are skipped in favour of the next
    /// older one. On success the in-memory chain state is adopted, so
    /// subsequent [`persist_epoch`](Self::persist_epoch) calls extend the
    /// restored generation.
    pub fn restore_latest(&mut self) -> Result<Option<RestoredCheckpoint>, StoreError> {
        let manifests = self.manifest_keys()?;
        for key in manifests.iter().rev() {
            if let Ok((chain, restored)) = self.try_stream(key) {
                self.chain = chain;
                self.last = restored.window.last().cloned();
                self.adopted_head = None;
                return Ok(Some(restored));
            }
        }
        self.chain.clear();
        self.last = None;
        self.adopted_head = None;
        Ok(None)
    }

    /// Fully validates and materializes the generation rooted at
    /// `manifest_key` in one streaming pass: each record is fetched, applied
    /// in place and dropped before the next one, and the chain head is
    /// **moved** (not cloned) into the final window snapshot — so only the
    /// `slack + 1` window snapshots the stream actually needs are ever
    /// materialized at once.
    fn try_stream(
        &mut self,
        manifest_key: &str,
    ) -> Result<(Vec<ChainEntry>, RestoredCheckpoint), StoreError> {
        let (chain, window_epochs, aux_seq) = self.read_manifest(manifest_key)?;
        let first = chain.first().expect("validated chain is non-empty");
        let tail_epoch = chain.last().expect("validated chain is non-empty").epoch;

        let wanted: BTreeSet<u64> = window_epochs.iter().copied().collect();
        if wanted.len() != window_epochs.len() {
            return Err(StoreError::Corrupt("duplicate window epochs in manifest".into()));
        }
        let mut window = Vec::with_capacity(window_epochs.len());
        let mut current: GaussianCloud;
        let mut current_epoch: u64;
        {
            let key = self.key_base(first.epoch);
            let record = self
                .read_record(&key)?
                .ok_or_else(|| StoreError::Missing(format!("base {key}")))?;
            let mut r = ByteReader::new(unframe(RecordKind::Base, &record)?);
            current_epoch = r.get_u64()?;
            if current_epoch != first.epoch {
                return Err(StoreError::Corrupt("base epoch disagrees with its key".into()));
            }
            current = decode_cloud_payload(&mut r)?;
            r.finish()?;
        }
        if wanted.contains(&current_epoch) && current_epoch != tail_epoch {
            window.push(CloudSnapshot::from_parts(Arc::new(current.clone()), current_epoch));
        }
        for entry in &chain[1..] {
            let key = self.key_delta(entry.epoch);
            let record = self
                .read_record(&key)?
                .ok_or_else(|| StoreError::Missing(format!("delta {key}")))?;
            let delta = CloudDelta::decode(unframe(RecordKind::Delta, &record)?)?;
            if delta.epoch != entry.epoch || delta.parent_epoch != current_epoch {
                return Err(StoreError::Corrupt(format!(
                    "delta chain discontinuity at epoch {}",
                    entry.epoch
                )));
            }
            current = delta.apply(&current)?;
            current_epoch = entry.epoch;
            if wanted.contains(&current_epoch) && current_epoch != tail_epoch {
                window.push(CloudSnapshot::from_parts(Arc::new(current.clone()), current_epoch));
            }
        }
        // Window epochs ascend along the chain, so the head goes in last.
        if wanted.contains(&tail_epoch) {
            window.push(CloudSnapshot::from_parts(Arc::new(current), tail_epoch));
        }
        if window.len() != window_epochs.len() {
            return Err(StoreError::Corrupt("window epochs missing from chain".into()));
        }

        let aux = self.read_aux(aux_seq)?;
        let seq = seq_of(manifest_key)?;
        Ok((chain, RestoredCheckpoint { seq, window, aux }))
    }

    fn read_aux(&mut self, aux_seq: u64) -> Result<Vec<u8>, StoreError> {
        let aux_key = self.key_aux(aux_seq);
        let aux_record = self
            .read_record(&aux_key)?
            .ok_or_else(|| StoreError::Missing(format!("aux {aux_key}")))?;
        Ok(unframe(RecordKind::Aux, &aux_record)?.to_vec())
    }
}

/// Former names of the one open/restore path. `benchmark/` may not be
/// edited and `benchmark/src/sut.rs` still compiles against them; the next
/// `benchmark` PR renames its two call sites and deletes this block.
impl EpochStore {
    /// Only user: `benchmark/src/sut.rs:746`.
    #[doc(hidden)]
    pub fn open_lazy(
        store: Box<dyn MapStore>,
        prefix: impl Into<String>,
        config: CheckpointConfig,
    ) -> Result<Self, StoreError> {
        Self::open(store, prefix, config)
    }

    /// Only user: `benchmark/src/sut.rs:827`.
    #[doc(hidden)]
    pub fn restore_lazy(&mut self) -> Result<Option<RestoredCheckpoint>, StoreError> {
        self.restore_latest()
    }
}

/// One base followed by deltas, nothing else.
fn validate_chain_shape(chain: &[ChainEntry]) -> Result<(), StoreError> {
    let Some(first) = chain.first() else {
        return Err(StoreError::Corrupt("manifest with empty chain".into()));
    };
    if !first.base || chain[1..].iter().any(|e| e.base) {
        return Err(StoreError::Corrupt("chain must be one base followed by deltas".into()));
    }
    Ok(())
}

/// The generation sequence number encoded in a manifest key.
fn seq_of(manifest_key: &str) -> Result<u64, StoreError> {
    manifest_key
        .rsplit('/')
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| StoreError::Corrupt("manifest key without sequence".into()))
}

fn decode_manifest(payload: &[u8]) -> Result<(Vec<ChainEntry>, Vec<u64>, u64), StoreError> {
    let mut r = ByteReader::new(payload);
    let _seq = r.get_u64()?;
    let n_chain = r.get_count(9)?;
    let mut chain = Vec::with_capacity(n_chain);
    for _ in 0..n_chain {
        let base = match r.get_u8()? {
            0 => false,
            1 => true,
            b => return Err(StoreError::Corrupt(format!("invalid chain entry tag {b}"))),
        };
        let epoch = r.get_u64()?;
        chain.push(ChainEntry { epoch, base });
    }
    let n_window = r.get_count(8)?;
    let mut window_epochs = Vec::with_capacity(n_window);
    for _ in 0..n_window {
        window_epochs.push(r.get_u64()?);
    }
    let aux_seq = r.get_u64()?;
    r.finish()?;
    Ok((chain, window_epochs, aux_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryStore;
    use crate::fault::{FaultPlan, FaultStore};
    use ags_math::Vec3;
    use ags_splat::{Gaussian, SharedCloud};

    fn fast_config() -> CheckpointConfig {
        CheckpointConfig { retry_backoff_ms: 0, ..CheckpointConfig::default() }
    }

    /// Publishes `n` epochs, mutating one splat and appending another each
    /// step; returns every snapshot.
    fn epochs(n: usize) -> Vec<CloudSnapshot> {
        let mut shared = SharedCloud::new();
        let mut out = vec![shared.peek()];
        for i in 0..n {
            let cloud = shared.make_mut();
            if i > 0 {
                cloud.gaussians_mut()[i - 1].opacity_logit += 0.25;
            }
            cloud.push(Gaussian::isotropic(Vec3::splat(i as f32 + 1.0), 0.1, Vec3::ONE, 0.5));
            out.push(shared.publish());
        }
        out
    }

    fn assert_window_eq(restored: &[CloudSnapshot], expected: &[&CloudSnapshot]) {
        assert_eq!(restored.len(), expected.len());
        for (r, e) in restored.iter().zip(expected) {
            assert_eq!(r.epoch(), e.epoch());
            assert_eq!(r.cloud(), e.cloud());
        }
    }

    #[test]
    fn incremental_persist_commit_restore_roundtrip() {
        let backing = MemoryStore::new();
        let mut log = EpochStore::open(Box::new(backing.clone()), "s0", fast_config()).unwrap();
        let snaps = epochs(5);
        for s in &snaps {
            log.persist_epoch(s).unwrap();
        }
        assert_eq!(log.stats().base_records, 1);
        assert_eq!(log.stats().delta_records, 5);
        let window = &snaps[3..=5];
        let report = log.commit(window, b"aux-blob").unwrap();
        assert!(!report.rebased, "contiguous chain must commit incrementally");

        // A fresh log over the same backing store restores the generation.
        let mut reopened = EpochStore::open(Box::new(backing), "s0", fast_config()).unwrap();
        let restored = reopened.restore_latest().unwrap().unwrap();
        assert_eq!(restored.aux, b"aux-blob");
        assert_window_eq(&restored.window, &[&snaps[3], &snaps[4], &snaps[5]]);
    }

    #[test]
    fn a_hole_inside_the_committed_window_forces_a_rebase_that_still_restores() {
        let mut log = EpochStore::open(Box::new(MemoryStore::new()), "s0", fast_config()).unwrap();
        let snaps = epochs(6);
        // The caller persisted epochs 0..=2 and 5 itself, skipping 3 and 4 —
        // the chain has a hole inside the window range [4, 6].
        for s in &snaps[..=2] {
            log.persist_epoch(s).unwrap();
        }
        log.persist_epoch(&snaps[5]).unwrap();
        let window = &snaps[4..=6];
        let report = log.commit(window, b"a").unwrap();
        assert!(report.rebased, "hole inside the window range must rebase");
        let restored = log.restore_latest().unwrap().unwrap();
        assert_window_eq(&restored.window, &[&snaps[4], &snaps[5], &snaps[6]]);
    }

    #[test]
    fn long_chains_are_rebased_and_gc_drops_old_generations() {
        let config =
            CheckpointConfig { rebase_after_deltas: 4, keep_manifests: 1, ..fast_config() };
        let backing = MemoryStore::new();
        let mut log = EpochStore::open(Box::new(backing.clone()), "s0", config).unwrap();
        let snaps = epochs(12);
        for s in &snaps[..=6] {
            log.persist_epoch(s).unwrap();
        }
        log.commit(&snaps[5..=6], b"gen0").unwrap();
        for s in &snaps[7..=12] {
            log.persist_epoch(s).unwrap();
        }
        let report = log.commit(&snaps[11..=12], b"gen1").unwrap();
        assert!(report.rebased, "chain of >4 deltas must rebase");
        assert_eq!(report.chain_len, 2);
        // keep_manifests = 1: generation 0 and every orphaned record is
        // gone — only the 4 records of generation 1 remain.
        let keys = backing.keys("s0/").unwrap();
        for kind in ["base", "delta", "aux", "manifest"] {
            let n = keys.iter().filter(|k| k.starts_with(&format!("s0/{kind}/"))).count();
            assert_eq!(n, 1, "expected exactly one {kind} record, keys: {keys:?}");
        }
        assert!(keys.iter().any(|k| k.starts_with("s0/base/") && k.ends_with("11")));
        let restored = log.restore_latest().unwrap().unwrap();
        assert_eq!(restored.aux, b"gen1");
        assert_window_eq(&restored.window, &[&snaps[11], &snaps[12]]);
    }

    #[test]
    fn torn_manifest_falls_back_to_previous_generation() {
        let backing = MemoryStore::new();
        let mut log = EpochStore::open(Box::new(backing.clone()), "s0", fast_config()).unwrap();
        let snaps = epochs(4);
        for s in &snaps {
            log.persist_epoch(s).unwrap();
        }
        log.commit(&snaps[1..=2], b"good").unwrap();
        log.commit(&snaps[3..=4], b"newer").unwrap();
        // Tear the newest manifest after the fact.
        let newest = backing.keys("s0/manifest/").unwrap().pop().unwrap();
        assert!(backing.tamper(&newest, |v| v.truncate(v.len() / 2)));
        let restored = log.restore_latest().unwrap().unwrap();
        assert_eq!(restored.aux, b"good", "must fall back to the previous good generation");
        assert_window_eq(&restored.window, &[&snaps[1], &snaps[2]]);
    }

    #[test]
    fn corrupt_delta_invalidates_only_the_generation_referencing_it() {
        let backing = MemoryStore::new();
        let config = CheckpointConfig { keep_manifests: 2, ..fast_config() };
        let mut log = EpochStore::open(Box::new(backing.clone()), "s0", config).unwrap();
        let snaps = epochs(6);
        for s in &snaps[..=3] {
            log.persist_epoch(s).unwrap();
        }
        log.commit(&snaps[2..=3], b"gen0").unwrap();
        for s in &snaps[4..=6] {
            log.persist_epoch(s).unwrap();
        }
        log.commit(&snaps[5..=6], b"gen1").unwrap();
        // Flip a byte inside the delta record only generation 1 references.
        let key = "s0/delta/00000000000000000006";
        assert!(backing.tamper(key, |v| {
            let mid = v.len() - 3;
            v[mid] ^= 0xff;
        }));
        let restored = log.restore_latest().unwrap().unwrap();
        assert_eq!(restored.aux, b"gen0");
    }

    #[test]
    fn nothing_to_restore_is_none_not_an_error() {
        let mut log =
            EpochStore::open(Box::new(MemoryStore::new()), "empty", fast_config()).unwrap();
        assert!(log.restore_latest().unwrap().is_none());
    }

    #[test]
    fn transient_write_errors_are_retried_with_bounded_attempts() {
        let snaps = epochs(2);
        // Two transient failures, three attempts allowed: succeeds.
        let plan = FaultPlan::none().fail_writes([0, 1]);
        let fault = FaultStore::new(MemoryStore::new(), plan);
        let mut log = EpochStore::open(Box::new(fault), "s0", fast_config()).unwrap();
        log.persist_epoch(&snaps[1]).unwrap();
        assert_eq!(log.stats().write_retries, 2);

        // Three consecutive failures exhaust the attempts: error surfaces.
        let plan = FaultPlan::none().fail_writes([0, 1, 2]);
        let fault = FaultStore::new(MemoryStore::new(), plan);
        let mut log = EpochStore::open(Box::new(fault), "s0", fast_config()).unwrap();
        assert!(matches!(log.persist_epoch(&snaps[1]), Err(StoreError::Io(_))));
        // A record whose retries ran out was never written: not counted.
        assert_eq!((log.stats().base_records, log.stats().base_bytes), (0, 0));
    }

    /// Grows a shared chain across `gens` committed generations (no
    /// rebase), two fresh epochs per generation, and returns the snapshots.
    fn grow_generations(
        backing: &MemoryStore,
        config: &CheckpointConfig,
        gens: usize,
    ) -> Vec<CloudSnapshot> {
        let mut log = EpochStore::open(Box::new(backing.clone()), "s0", config.clone()).unwrap();
        let snaps = epochs(2 * gens);
        for g in 0..gens {
            let hi = 2 * (g + 1);
            for s in &snaps[..=hi] {
                log.persist_epoch(s).unwrap();
            }
            let report = log.commit(&snaps[hi - 1..=hi], format!("gen{g}").as_bytes()).unwrap();
            assert!(!report.rebased, "contiguous chain must not rebase");
        }
        snaps
    }

    #[test]
    fn open_plus_restore_fetches_each_record_of_the_generation_exactly_once() {
        let backing = MemoryStore::new();
        let config = CheckpointConfig { keep_manifests: 3, ..fast_config() };
        let snaps = grow_generations(&backing, &config, 3);

        let mut log = EpochStore::open(Box::new(backing.clone()), "s0", config).unwrap();
        let restored = log.restore_latest().unwrap().unwrap();
        assert_eq!(restored.seq, 2);
        assert_eq!(restored.aux, b"gen2");
        assert_window_eq(&restored.window, &[&snaps[5], &snaps[6]]);

        // The adopted generation is base 0 + deltas 1..=6 + its aux, each
        // fetched once; its manifest is read at open and again at restore.
        let size = |key: String| backing.get(&key).unwrap().unwrap().len() as u64;
        let chain_bytes: u64 =
            size(log.key_base(0)) + (1..=6).map(|e| size(log.key_delta(e))).sum::<u64>();
        let stats = log.stats();
        assert_eq!(stats.read_records, 7 + 1 + 2);
        assert_eq!(
            stats.read_bytes,
            chain_bytes + size(log.key_aux(2)) + 2 * size(log.key_manifest(2))
        );

        // The restored chain is adopted: the next epoch extends it as a delta.
        let next = {
            let mut shared = ags_splat::SharedCloud::new();
            for _ in 0..7 {
                shared.make_mut().push(Gaussian::isotropic(Vec3::splat(9.0), 0.1, Vec3::ONE, 0.5));
                shared.publish();
            }
            shared.peek()
        };
        assert_eq!(next.epoch(), 7);
        assert!(log.persist_epoch(&next).unwrap());
        assert_eq!(log.stats().base_records, 0, "restored chain must extend, not rebase");
    }

    #[test]
    fn open_adopts_the_chain_without_fetching_it() {
        let backing = MemoryStore::new();
        let config = fast_config();
        let snaps = grow_generations(&backing, &config, 1);

        let mut log = EpochStore::open(Box::new(backing.clone()), "s0", config).unwrap();
        assert_eq!(log.stats().read_records, 1, "open fetches exactly the newest manifest");
        // Epochs at or below the adopted head are deduped without a fetch.
        assert!(!log.persist_epoch(&snaps[1]).unwrap());
        assert!(!log.persist_epoch(&snaps[2]).unwrap());
        assert_eq!(log.stats().base_records + log.stats().delta_records, 0);

        // Committing a window that ends at the adopted head would reference
        // chain records this incarnation never wrote — the commit must
        // rebase onto fresh records instead (only a restore may adopt record
        // *contents*).
        let report = log.commit(&snaps[1..=2], b"fresh").unwrap();
        assert!(report.rebased, "un-restored log must rebase on commit");
        let restored = log.restore_latest().unwrap().unwrap();
        assert_eq!(restored.aux, b"fresh");
        assert_window_eq(&restored.window, &[&snaps[1], &snaps[2]]);
    }

    #[test]
    fn gc_of_oldest_generation_mid_chain_keeps_newer_generations_restorable() {
        // keep_manifests = 1: after the second commit on a *shared* chain,
        // generation 0's manifest and aux are GC'd while the chain prefix it
        // referenced lives on (generation 1 still references those records).
        let backing = MemoryStore::new();
        let config = CheckpointConfig { keep_manifests: 1, ..fast_config() };
        let snaps = grow_generations(&backing, &config, 2);

        let manifests = backing.keys("s0/manifest/").unwrap();
        assert_eq!(manifests.len(), 1, "gen0 manifest must be GC'd");
        assert_eq!(backing.keys("s0/aux/").unwrap().len(), 1, "gen0 aux must be GC'd");
        assert_eq!(
            backing.keys("s0/base/").unwrap().len() + backing.keys("s0/delta/").unwrap().len(),
            5,
            "shared chain (base 0 + deltas 1..=4) must survive"
        );

        let mut log = EpochStore::open(Box::new(backing), "s0", config).unwrap();
        let restored = log.restore_latest().unwrap().unwrap();
        assert_eq!(restored.aux, b"gen1");
        assert_window_eq(&restored.window, &[&snaps[3], &snaps[4]]);
    }

    #[test]
    fn torn_aux_record_falls_back_a_generation() {
        let backing = MemoryStore::new();
        let config = fast_config();
        let snaps = grow_generations(&backing, &config, 2);
        // Tear the newest generation's aux record after the fact.
        let newest_aux = backing.keys("s0/aux/").unwrap().pop().unwrap();
        assert!(backing.tamper(&newest_aux, |v| v.truncate(v.len() / 2)));

        let mut log = EpochStore::open(Box::new(backing), "s0", config).unwrap();
        let restored = log.restore_latest().unwrap().unwrap();
        assert_eq!(restored.aux, b"gen0", "torn aux must fall back a generation");
        assert_window_eq(&restored.window, &[&snaps[1], &snaps[2]]);
    }

    #[test]
    fn streams_are_isolated_by_prefix() {
        let backing = MemoryStore::new();
        let snaps = epochs(2);
        let mut a = EpochStore::open(Box::new(backing.clone()), "s0", fast_config()).unwrap();
        let mut b = EpochStore::open(Box::new(backing.clone()), "s1", fast_config()).unwrap();
        a.persist_epoch(&snaps[1]).unwrap();
        a.commit(&snaps[1..=1], b"stream0").unwrap();
        b.persist_epoch(&snaps[2]).unwrap();
        b.commit(&snaps[2..=2], b"stream1").unwrap();
        assert_eq!(a.restore_latest().unwrap().unwrap().aux, b"stream0");
        assert_eq!(b.restore_latest().unwrap().unwrap().aux, b"stream1");
    }
}
