//! Multi-stream SLAM server: `S × AgsSlam` on one shared
//! [`WorkerPool`].
//!
//! The paper's end-game is serving many concurrent capture streams per
//! host — CODEC-assisted FC detection exists to free CPU budget so more
//! SLAM instances fit per machine. [`MultiStreamServer`] is that driver:
//! it owns one [`AgsSlam`] per stream, all constructed over a **single**
//! worker pool (one `Parallelism::with_pool` handle), so `S` streams × up
//! to three stage threads each (FC / track / map) never oversubscribe the
//! machine with competing kernel thread sets.
//!
//! Three properties make the shared pool safe and useful:
//!
//! * **Isolation** — streams share only the executor. Each stream's
//!   trajectory, map and trace are bit-identical to running that stream
//!   alone under the same pipeline mode (the multi-stream determinism
//!   suite enforces this at several pool sizes and stream mixes): the
//!   pool's chunk-order merge makes kernel results independent of which
//!   threads — or whose submissions — share the workers. A panicking
//!   stream is caught at the server boundary and marked
//!   [poisoned](MultiStreamServer::is_poisoned); the pool and the other
//!   streams keep running.
//! * **Fairness** — every submitter blocks on its own batch and helps drain
//!   it, so each stage thread has at most one batch queued and the pool's
//!   one FIFO queue lets no stream's mapping burst starve another stream's
//!   batch (see `ags_math::parallel`).
//! * **Policy** — [`StreamPolicy`] picks the pipeline mode per stream
//!   (`Serial` / `Overlapped` / `MapOverlapped` + `map_slack`): a
//!   latency-critical stream can run serially while throughput streams
//!   overlap their stages, on the same pool.
//!
//! [`MultiStreamServer::stats`] aggregates per-stream [`StageTimes`]
//! (sums and per-stage maxima, including the backpressure `stall_s`) so a
//! deployment can see *where* shared-pool contention lands.
//!
//! # Lifecycle
//!
//! Streams are not fixed at construction: [`attach_stream`] adds a slot at
//! runtime (its `AgsSlam` spawns lazily on the first frame) and
//! [`detach_stream`] drains it, optionally commits a final checkpoint and
//! joins its stage threads, leaving no state in the shared pool, so
//! attach/detach churn is unbounded. A [`CheckpointPolicy`] can
//! commit to the attached store on its own every N epochs; a failed
//! automatic commit is counted (`StreamStats::checkpoint_errors`), never
//! fatal. Every stream does the full work for every frame it is given:
//! nothing the server decides depends on wall-clock time, so a stream's
//! semantic output is a function of its frames alone.
//!
//! [`attach_stream`]: MultiStreamServer::attach_stream
//! [`detach_stream`]: MultiStreamServer::detach_stream

use crate::checkpoint::{decode_aux, encode_aux};
use crate::config::{AgsConfig, CheckpointPolicy, PipelineConfig};
use crate::pipeline::{AgsFrameRecord, AgsSlam};
use crate::trace::{StageTimes, WorkloadTrace};
use ags_image::{DepthImage, RgbImage};
use ags_math::WorkerPool;
use ags_scene::PinholeCamera;
use ags_splat::BackendKind;
use ags_store::{CheckpointConfig, EpochStore, MapStore, StoreError, StoreStats};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-stream execution policy: where the stream's stages run, when it
/// checkpoints on its own and its map memory ceiling.
/// Streams without an entry in [`ServerConfig::per_stream`] take the base
/// config's pipeline and the defaults of everything else.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamPolicy {
    /// Stage-graph execution of this stream.
    pub pipeline: PipelineConfig,
    /// When the server commits checkpoint generations to this stream's
    /// attached store on its own. [`CheckpointPolicy::Manual`] (the
    /// default) keeps commits caller-driven.
    pub checkpoint_policy: CheckpointPolicy,
    /// Per-stream soft ceiling on resident map bytes, enforced by the
    /// stream's mapping stage at every epoch publish (quantize-cold →
    /// prune-negligible escalation; see [`AgsConfig::map_bytes_budget`]).
    /// `0` inherits the base config's budget.
    pub map_bytes_budget: u64,
}

impl StreamPolicy {
    /// All stages inline on the pushing thread (lowest latency).
    pub fn serial() -> Self {
        Self { pipeline: PipelineConfig::default(), ..Self::default() }
    }

    /// FC on a worker thread with the given lookahead depth.
    pub fn overlapped(depth: usize) -> Self {
        Self { pipeline: PipelineConfig::overlapped(depth), ..Self::default() }
    }

    /// FC and mapping on worker threads (three threads per stream).
    pub fn map_overlapped(depth: usize, map_slack: usize) -> Self {
        Self { pipeline: PipelineConfig::map_overlapped(depth, map_slack), ..Self::default() }
    }

    /// This policy with a per-stream map memory ceiling.
    pub fn with_map_bytes_budget(mut self, bytes: u64) -> Self {
        self.map_bytes_budget = bytes;
        self
    }

    /// Returns the policy unchanged: every stream runs the vectorized
    /// kernel. Only caller: `benchmark/src/sut.rs:222`; kept until the next
    /// `benchmark` PR drops it there (`benchmark/` may not be edited).
    #[doc(hidden)]
    pub fn with_backend(self, _backend: BackendKind) -> Self {
        self
    }

    /// This policy with an automatic checkpoint policy installed.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint_policy = policy;
        self
    }
}

/// Configuration of a [`MultiStreamServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of concurrent streams (`S`).
    pub streams: usize,
    /// Base AGS configuration every stream starts from. Its `pipeline`
    /// field is the default policy for streams without an explicit entry in
    /// [`per_stream`](Self::per_stream); its `parallelism` policy (thread
    /// budget, fallback threshold) applies to every stream — the server
    /// re-targets it at the shared pool and tags it per stream.
    pub base: AgsConfig,
    /// Per-stream policy overrides: entry `i` applies to stream `i`.
    /// Streams beyond the vector's length use the base pipeline config.
    pub per_stream: Vec<StreamPolicy>,
    /// Worker threads of the shared pool. `None` sizes it for the machine
    /// (cores − 1, so pool workers + one driving thread match the core
    /// count).
    pub pool_workers: Option<usize>,
}

impl ServerConfig {
    /// `streams` identical streams over `base` (the base pipeline config is
    /// every stream's policy).
    pub fn uniform(streams: usize, base: AgsConfig) -> Self {
        Self { streams, base, per_stream: Vec::new(), pool_workers: None }
    }

    /// The policy of stream `s`.
    fn policy(&self, s: usize) -> StreamPolicy {
        self.per_stream
            .get(s)
            .copied()
            .unwrap_or(StreamPolicy { pipeline: self.base.pipeline, ..StreamPolicy::default() })
    }
}

/// Why a stream operation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The stream index is outside `0..streams`.
    UnknownStream(usize),
    /// The stream panicked (bad input, poisoned stage) and was isolated;
    /// the other streams and the shared pool are unaffected. The original
    /// panic payload message is carried on every rejection — including
    /// operations attempted long after the poisoning push.
    Poisoned {
        /// The poisoned stream's index.
        stream: usize,
        /// The panic payload message captured when the stream poisoned.
        panic: String,
    },
    /// A durability operation against the stream's attached
    /// [`MapStore`] failed (or no store was attached).
    Storage {
        /// The stream whose storage operation failed.
        stream: usize,
        /// The underlying store error.
        source: StoreError,
    },
    /// The stream was detached ([`MultiStreamServer::detach_stream`]); only
    /// its final stats remain.
    Detached(usize),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            StreamError::Poisoned { stream, panic } => {
                write!(f, "stream {stream} is poisoned: {panic}")
            }
            StreamError::Storage { stream, source } => {
                write!(f, "stream {stream} storage failure: {source}")
            }
            StreamError::Detached(s) => write!(f, "stream {s} was detached"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Storage { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Renders a caught panic payload (the `Box<dyn Any>` from `catch_unwind`)
/// as the human-readable message `panic!` produced, so the poison reason
/// survives past the unwound stack.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The rejection of a durability operation on a stream without a store.
fn no_store(stream: usize) -> StreamError {
    StreamError::Storage {
        stream,
        source: StoreError::Missing("no store attached to stream".into()),
    }
}

/// One stream slot: its pipelined SLAM instance plus server-side health
/// and progress bookkeeping — and, when a store is attached, the epoch log
/// that makes the stream durable.
#[derive(Debug)]
struct StreamSlot {
    /// The stream's resolved config (shared pool handle installed) —
    /// kept so the SLAM instance can be (re)spawned lazily, and restored
    /// after a detach.
    cfg: AgsConfig,
    policy: StreamPolicy,
    /// `None` before the first frame of a lazily attached stream, and after
    /// a detach.
    slam: Option<AgsSlam>,
    poisoned: bool,
    /// The panic payload message stashed when the stream poisoned, replayed
    /// into every subsequent [`StreamError::Poisoned`].
    panic_msg: Option<String>,
    store: Option<EpochStore>,
    /// The key prefix the attached store was opened under (kept across
    /// detach so a migration can hand the same prefix to the destination).
    store_prefix: Option<String>,
    pushed: usize,
    completed: usize,
    /// Completed records not yet handed to the caller. Normally at most one
    /// deep; automatic checkpoints quiesce the pipeline mid-stream and park
    /// the drained records here, to be returned by subsequent pushes.
    buffered: VecDeque<AgsFrameRecord>,
    /// Final stats snapshot of a detached stream (`Some` ⇒ retired).
    retired: Option<StreamStats>,
    /// Automatic checkpoint commits that succeeded / failed.
    auto_checkpoints: u64,
    checkpoint_errors: u64,
    /// Completed frames since the last commit (for `EveryNEpochs`).
    epochs_since_commit: usize,
}

impl StreamSlot {
    fn new(cfg: AgsConfig, policy: StreamPolicy, eager: bool) -> Self {
        let slam = eager.then(|| AgsSlam::new(cfg.clone()));
        Self {
            cfg,
            slam,
            poisoned: false,
            panic_msg: None,
            store: None,
            store_prefix: None,
            pushed: 0,
            completed: 0,
            policy,
            buffered: VecDeque::new(),
            retired: None,
            auto_checkpoints: 0,
            checkpoint_errors: 0,
            epochs_since_commit: 0,
        }
    }

    fn poison(&mut self, stream: usize, payload: Box<dyn std::any::Any + Send>) -> StreamError {
        let panic = panic_message(payload.as_ref());
        self.poisoned = true;
        self.panic_msg = Some(panic.clone());
        StreamError::Poisoned { stream, panic }
    }

    /// The slot's SLAM instance, spawned on first use for lazily attached
    /// streams.
    fn slam_mut(&mut self) -> &mut AgsSlam {
        self.slam.get_or_insert_with(|| AgsSlam::new(self.cfg.clone()))
    }

    /// Absorbs one completed record in stream order and parks it for the
    /// caller.
    fn absorb(&mut self, record: AgsFrameRecord) {
        self.completed += 1;
        self.epochs_since_commit += 1;
        self.buffered.push_back(record);
    }

    /// Whether the automatic checkpoint policy wants a commit now.
    fn auto_commit_due(&self) -> bool {
        if self.store.is_none() || self.slam.is_none() || self.poisoned {
            return false;
        }
        match self.policy.checkpoint_policy {
            CheckpointPolicy::Manual => false,
            CheckpointPolicy::EveryNEpochs(n) => self.epochs_since_commit >= n.max(1),
        }
    }

    /// Drains the pipeline (if one is running), absorbing its remaining
    /// records. A panicking stage poisons the slot.
    fn drain(&mut self, stream: usize) -> Result<(), StreamError> {
        let Some(slam) = self.slam.as_mut() else { return Ok(()) };
        let records = match catch_unwind(AssertUnwindSafe(|| slam.finish())) {
            Ok(records) => records,
            Err(payload) => return Err(self.poison(stream, payload)),
        };
        for record in records {
            self.absorb(record);
        }
        Ok(())
    }

    /// The one commit sequence: quiesce the pipeline, absorb the records it
    /// drained, and commit the captured state as a checkpoint generation to
    /// the attached store. The policy triggers restart from this attempt
    /// whether or not the store accepted it. A panicking quiesce poisons the
    /// slot; a rejected commit comes back as [`StreamError::Storage`] with
    /// the stream healthy — the caller decides whether that is fatal (manual
    /// checkpoint, final checkpoint of a detach) or merely counted (policy).
    fn commit_checkpoint(&mut self, stream: usize) -> Result<(), StreamError> {
        if self.store.is_none() {
            return Err(no_store(stream));
        }
        let slam = self.slam_mut();
        let (records, state) = match catch_unwind(AssertUnwindSafe(|| slam.checkpoint())) {
            Ok(pair) => pair,
            Err(payload) => return Err(self.poison(stream, payload)),
        };
        for record in records {
            self.absorb(record);
        }
        self.epochs_since_commit = 0;
        let aux = encode_aux(&state);
        self.store
            .as_mut()
            .expect("checked above")
            .commit(&state.window, &aux)
            .map_err(|source| StreamError::Storage { stream, source })?;
        Ok(())
    }
}

/// Per-stream slice of [`ServerStats`].
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Frames pushed into the stream so far.
    pub pushed: usize,
    /// Frames whose records have been returned so far.
    pub completed: usize,
    /// Summed stage wall-times of the stream's completed frames.
    pub stage_totals: StageTimes,
    /// Whether the stream has been isolated after a panic.
    pub poisoned: bool,
    /// Splats in the stream's map after its newest completed frame.
    pub map_splats: usize,
    /// Of those, splats resident in the cold quantized tier.
    pub quantized_splats: usize,
    /// Estimated resident map parameter bytes (full-precision splats plus
    /// the quantized tier) — the quantity
    /// [`StreamPolicy::map_bytes_budget`] bounds.
    pub map_bytes: u64,
    /// Cumulative projection-cache hits after the stream's newest completed
    /// frame (counted since the stream was attached or last restored).
    pub projection_cache_hits: u64,
    /// Cumulative projection-cache misses after the stream's newest
    /// completed frame.
    pub projection_cache_misses: u64,
    /// Whether the stream was detached; if so, every other field is the
    /// final snapshot taken at detach time (so aggregate counters stay
    /// monotonic across churn).
    pub retired: bool,
    /// Always `0`: every push is admitted. Only reader:
    /// `benchmark/src/sut.rs:602`; kept until the next `benchmark` PR drops
    /// it there (`benchmark/` may not be edited).
    #[doc(hidden)]
    pub rejected: u64,
    /// Automatic checkpoint commits ([`CheckpointPolicy`]) that succeeded.
    pub auto_checkpoints: u64,
    /// Checkpoint commits (automatic path) that failed; the stream stays
    /// healthy and retries at the policy's next trigger.
    pub checkpoint_errors: u64,
}

/// Aggregated execution statistics across all streams.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// One entry per stream, in stream order.
    pub per_stream: Vec<StreamStats>,
    /// Field-wise **sum** of the per-stream stage totals: the machine-wide
    /// wall time spent per stage (and, via `stall_s`, blocked on
    /// backpressure).
    pub total: StageTimes,
    /// Field-wise **max** of the per-stream stage totals: the worst-off
    /// stream per stage — where shared-pool contention lands hardest.
    pub max: StageTimes,
}

impl ServerStats {
    /// Total completed frames across all streams — **including** detached
    /// ones, whose final snapshots stay in [`per_stream`](Self::per_stream),
    /// so this aggregate is monotonic across attach/detach churn.
    pub fn completed_frames(&self) -> usize {
        self.per_stream.iter().map(|s| s.completed).sum()
    }

    /// Streams that have been detached (their stats are final snapshots).
    pub fn retired_streams(&self) -> usize {
        self.per_stream.iter().filter(|s| s.retired).count()
    }

    /// Total resident map bytes across all streams — the host-level memory
    /// figure per-stream budgets exist to bound.
    pub fn map_bytes_total(&self) -> u64 {
        self.per_stream.iter().map(|s| s.map_bytes).sum()
    }
}

/// `S` independent SLAM streams over one shared worker pool.
///
/// Streams are driven by the caller: [`push_frame`](Self::push_frame) feeds
/// stream `s` (any interleaving across streams is fine; frames within a
/// stream are ordered), [`finish_stream`](Self::finish_stream) /
/// [`finish_all`](Self::finish_all) drain the per-stream pipelines. The
/// concurrency comes from each stream's stage threads — up to `S × 3`
/// threads — whose kernel submissions all flow through the one pool.
#[derive(Debug)]
pub struct MultiStreamServer {
    pool: Arc<WorkerPool>,
    /// Base config new streams start from ([`Self::attach_stream`]).
    base: AgsConfig,
    streams: Vec<StreamSlot>,
}

/// Resolves a stream's effective config: policy overlaid on the base, the
/// shared pool handle installed into every stage's `Parallelism` knob.
fn stream_config(base: &AgsConfig, policy: &StreamPolicy, pool: &Arc<WorkerPool>) -> AgsConfig {
    let mut cfg = base.clone();
    cfg.pipeline = policy.pipeline;
    if policy.map_bytes_budget > 0 {
        cfg.map_bytes_budget = policy.map_bytes_budget;
    }
    // `resolve` copies the stream knob into the codec's.
    cfg.parallelism = cfg.parallelism.on_pool(Arc::clone(pool));
    cfg
}

impl MultiStreamServer {
    /// Builds the server: spawns the shared pool and one
    /// [`AgsSlam`] per stream, each with the pool handle installed into
    /// every stage's `Parallelism` knob.
    pub fn new(config: ServerConfig) -> Self {
        let workers = config
            .pool_workers
            .unwrap_or_else(|| ags_math::parallel::machine_parallelism().saturating_sub(1));
        let pool = Arc::new(WorkerPool::new(workers));
        let streams = (0..config.streams)
            .map(|s| {
                let policy = config.policy(s);
                let cfg = stream_config(&config.base, &policy, &pool);
                StreamSlot::new(cfg, policy, true)
            })
            .collect();
        Self { pool, base: config.base, streams }
    }

    /// Attaches a new stream at runtime and returns its id. The slot is
    /// registered immediately, but its [`AgsSlam`] (and stage
    /// threads) spawn lazily on the first frame — attaching is cheap and
    /// an attached-but-idle stream costs nothing.
    ///
    /// Ids are never reused: a detached stream's id stays retired, so
    /// store prefixes (`s{id}`) remain unambiguous for the server's
    /// lifetime.
    pub fn attach_stream(&mut self, policy: StreamPolicy) -> usize {
        let stream = self.streams.len();
        let cfg = stream_config(&self.base, &policy, &self.pool);
        self.streams.push(StreamSlot::new(cfg, policy, false));
        stream
    }

    /// Detaches stream `stream`: drains its pipeline, optionally commits a
    /// final checkpoint generation to the attached store, drops the
    /// store and joins the stage threads; the shared pool keeps no
    /// per-stream state, so attach/detach churn never accumulates any.
    /// Returns the drained records.
    ///
    /// The slot itself stays, holding a final [`StreamStats`] snapshot
    /// (`retired: true`), so [`ServerStats::completed_frames`] is monotonic
    /// across churn. A retired stream rejects every operation with
    /// [`StreamError::Detached`] except [`restore_stream`]
    /// (re-attach a store first), which revives it from its last durable
    /// checkpoint — a detached-then-restored stream finishes bit-identical
    /// to one that never detached.
    ///
    /// With `final_checkpoint` but no valid store attached (or a failing
    /// commit) the stream is left attached and drained, and the error is
    /// returned — so a caller can fall back to `detach_stream(s, false)`.
    ///
    /// [`restore_stream`]: Self::restore_stream
    pub fn detach_stream(
        &mut self,
        stream: usize,
        final_checkpoint: bool,
    ) -> Result<Vec<AgsFrameRecord>, StreamError> {
        let slot = self.streams.get_mut(stream).ok_or(StreamError::UnknownStream(stream))?;
        if slot.retired.is_some() {
            return Err(StreamError::Detached(stream));
        }
        if !slot.poisoned {
            if final_checkpoint {
                slot.commit_checkpoint(stream)?;
            } else {
                slot.drain(stream)?;
            }
        }
        // Snapshot the final stats while the pipeline is still alive (the
        // trace dies with it).
        let mut final_stats = Self::slot_stats(slot);
        final_stats.retired = true;
        slot.store = None;
        // Dropping the instance joins its stage threads; the pipeline was
        // just drained, so this does not discard frames.
        slot.slam = None;
        slot.retired = Some(final_stats);
        Ok(slot.buffered.drain(..).collect())
    }

    /// Number of streams (poisoned ones included).
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    /// The shared executor all streams submit kernel work to.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Whether stream `s` has been isolated after a panic.
    pub fn is_poisoned(&self, stream: usize) -> bool {
        self.streams.get(stream).is_some_and(|s| s.poisoned)
    }

    /// Submits the next RGB-D frame of stream `stream`. Semantics per
    /// stream match [`AgsSlam::push_frame`]: serial-mode streams
    /// return their record immediately, overlapped streams stream records
    /// once their pipeline has filled.
    ///
    /// A panic inside the stream (malformed input, poisoned stage thread)
    /// is caught here: the stream is marked poisoned and every further
    /// operation on it returns [`StreamError::Poisoned`], while the other
    /// streams — and the shared pool, which survives submitter panics by
    /// design — continue unaffected. Records drained by automatic
    /// checkpoints are buffered and returned (in stream order) by
    /// subsequent pushes.
    pub fn push_frame(
        &mut self,
        stream: usize,
        camera: &PinholeCamera,
        rgb: Arc<RgbImage>,
        depth: Arc<DepthImage>,
    ) -> Result<Option<AgsFrameRecord>, StreamError> {
        let slot = self.slot(stream)?;
        slot.pushed += 1;
        slot.slam_mut(); // lazy spawn outside the catch: construction panics are config bugs
        let slam = slot.slam.as_mut().expect("just spawned");
        let outcome = catch_unwind(AssertUnwindSafe(|| slam.push_frame(camera, rgb, depth)));
        match outcome {
            Ok(record) => {
                if let Some(record) = record {
                    slot.absorb(record);
                }
            }
            Err(payload) => return Err(slot.poison(stream, payload)),
        }
        if slot.auto_commit_due() {
            // Automatic-path store errors are counted, never fatal — the
            // stream stays healthy and the policy retries at its next trigger.
            match slot.commit_checkpoint(stream) {
                Ok(()) => slot.auto_checkpoints += 1,
                Err(StreamError::Storage { .. }) => slot.checkpoint_errors += 1,
                Err(poisoned) => return Err(poisoned),
            }
        }
        Ok(slot.buffered.pop_front())
    }

    /// Drains stream `stream` after its last frame, returning the remaining
    /// records (buffered ones included) in stream order.
    pub fn finish_stream(&mut self, stream: usize) -> Result<Vec<AgsFrameRecord>, StreamError> {
        let slot = self.slot(stream)?;
        slot.drain(stream)?;
        Ok(slot.buffered.drain(..).collect())
    }

    /// Drains every healthy stream; entry `s` holds stream `s`'s remaining
    /// records (empty for poisoned streams).
    pub fn finish_all(&mut self) -> Vec<Vec<AgsFrameRecord>> {
        (0..self.streams.len()).map(|s| self.finish_stream(s).unwrap_or_default()).collect()
    }

    /// Read access to stream `s`'s SLAM instance (trajectory, cloud,
    /// trace). `None` for out-of-range indices, detached streams and
    /// lazily attached streams that have not seen a frame; poisoned streams
    /// are readable (their state is whatever completed before the panic).
    pub fn stream(&self, stream: usize) -> Option<&AgsSlam> {
        self.streams.get(stream).and_then(|s| s.slam.as_ref())
    }

    /// Whether stream `s` has been detached.
    pub fn is_retired(&self, stream: usize) -> bool {
        self.streams.get(stream).is_some_and(|s| s.retired.is_some())
    }

    /// Attaches a durability store to stream `stream` under the key prefix
    /// `s{stream}` (so many streams can share one backing store). The newest
    /// durable chain is adopted from its manifest alone — no chain record is
    /// fetched until [`restore_stream`](Self::restore_stream) asks. Nothing
    /// is written between commits:
    /// [`checkpoint_stream`](Self::checkpoint_stream) (or the stream's
    /// [`CheckpointPolicy`]) commits a durable generation — the window's
    /// deltas, the aux state and the manifest — synchronously.
    pub fn attach_store(
        &mut self,
        stream: usize,
        store: Box<dyn MapStore>,
        config: CheckpointConfig,
    ) -> Result<(), StreamError> {
        self.attach_store_with(stream, store, config, StoreAttachOptions::default())
    }

    /// [`attach_store`](Self::attach_store) with explicit
    /// [`StoreAttachOptions`]: a caller-chosen key prefix, so a migrated
    /// stream can keep reading the checkpoint generations its source wrote
    /// under the source's id.
    pub fn attach_store_with(
        &mut self,
        stream: usize,
        store: Box<dyn MapStore>,
        config: CheckpointConfig,
        options: StoreAttachOptions,
    ) -> Result<(), StreamError> {
        let slot = self.streams.get_mut(stream).ok_or(StreamError::UnknownStream(stream))?;
        let prefix = options.prefix.unwrap_or_else(|| format!("s{stream}"));
        let epoch_store = EpochStore::open(store, &prefix, config)
            .map_err(|source| StreamError::Storage { stream, source })?;
        slot.store = Some(epoch_store);
        slot.store_prefix = Some(prefix);
        Ok(())
    }

    /// Whether stream `stream` currently has a store attached. Works on
    /// retired slots — a detach drops the store, so this turns `false`
    /// until a store is re-attached.
    pub fn has_store(&self, stream: usize) -> bool {
        self.streams.get(stream).is_some_and(|s| s.store.is_some())
    }

    /// The key prefix stream `stream`'s store was (last) attached under.
    /// Survives detach, so a migration can hand the exact prefix to the
    /// destination server. `None` if no store was ever attached.
    pub fn store_prefix(&self, stream: usize) -> Option<String> {
        self.streams.get(stream).and_then(|s| s.store_prefix.clone())
    }

    /// Quiesces stream `stream` and commits a durable checkpoint generation
    /// (snapshot window + full pipeline state) to its attached store,
    /// returning the records drained while quiescing. The stream keeps
    /// accepting frames afterwards.
    ///
    /// Fails with [`StreamError::Storage`] when no store is attached or the
    /// commit could not be persisted (after the store's bounded retries) —
    /// the stream itself stays healthy either way.
    pub fn checkpoint_stream(&mut self, stream: usize) -> Result<Vec<AgsFrameRecord>, StreamError> {
        let slot = self.slot(stream)?;
        slot.commit_checkpoint(stream)?;
        Ok(slot.buffered.drain(..).collect())
    }

    /// Rebuilds stream `stream` from the newest fully-valid checkpoint
    /// generation in its attached store. This is the recovery path for
    /// poisoned streams — a slot killed by a panic is re-spawned from its
    /// last durable state and un-poisoned — and for **detached** streams,
    /// which are revived into active service (re-attach a store first if
    /// the detach dropped it). It works on healthy streams too
    /// (e.g. after a process restart, on a server whose streams were just
    /// constructed).
    ///
    /// The store's delta chain is fetched in one pass and only the snapshot
    /// window is materialized ([`EpochStore::restore_latest`]). Torn or
    /// corrupted generations are skipped (newest-first) rather than loaded;
    /// if no valid generation exists the slot is left untouched — a running
    /// pipeline keeps checkpointing into the store — and
    /// [`StreamError::Storage`] is returned.
    pub fn restore_stream(&mut self, stream: usize) -> Result<(), StreamError> {
        let slot = self.streams.get_mut(stream).ok_or(StreamError::UnknownStream(stream))?;
        let store = slot.store.as_mut().ok_or_else(|| no_store(stream))?;
        let state = store
            .restore_latest()
            .and_then(|restored| match restored {
                Some(restored) => decode_aux(&restored.aux, restored.window),
                None => Err(StoreError::Missing("no checkpoint generation to restore".into())),
            })
            .map_err(|source| StreamError::Storage { stream, source })?;
        let frame_count = state.frame_count;
        // The slot's stored config already carries the shared pool handle;
        // `restore` re-resolves it, which is idempotent.
        slot.slam = Some(AgsSlam::restore(slot.cfg.clone(), state));
        slot.poisoned = false;
        slot.panic_msg = None;
        slot.retired = None;
        slot.buffered.clear();
        slot.pushed = frame_count;
        slot.completed = frame_count;
        slot.epochs_since_commit = 0;
        Ok(())
    }

    /// Only user: `benchmark/src/sut.rs:492`. Former name of
    /// [`restore_stream`](Self::restore_stream), kept until the next
    /// `benchmark` PR renames that call (`benchmark/` may not be edited).
    #[doc(hidden)]
    pub fn restore_stream_lazy(&mut self, stream: usize) -> Result<(), StreamError> {
        self.restore_stream(stream)
    }

    /// Byte/record counters of stream `stream`'s attached store — what the
    /// durability layer actually wrote and fetched (full bases, deltas,
    /// retries).
    pub fn store_stats(&self, stream: usize) -> Result<StoreStats, StreamError> {
        let slot = self.streams.get(stream).ok_or(StreamError::UnknownStream(stream))?;
        slot.store.as_ref().map(EpochStore::stats).ok_or_else(|| no_store(stream))
    }

    /// Aggregated per-stream stage times: the sum locates machine-wide
    /// cost, the max locates the most contended stream, and `stall_s`
    /// (snapshot wait + FC-channel wait) shows how much of either is
    /// backpressure rather than work.
    pub fn stats(&self) -> ServerStats {
        let per_stream: Vec<StreamStats> = self.streams.iter().map(Self::slot_stats).collect();
        let mut total = StageTimes::default();
        let mut max = StageTimes::default();
        for s in &per_stream {
            total.merge(&s.stage_totals);
            max.merge_max(&s.stage_totals);
        }
        ServerStats { per_stream, total, max }
    }

    /// The stats of one slot: the live view for active streams, the frozen
    /// final snapshot for retired ones.
    fn slot_stats(slot: &StreamSlot) -> StreamStats {
        if let Some(final_stats) = &slot.retired {
            return *final_stats;
        }
        let empty = WorkloadTrace::default();
        let trace = slot.slam.as_ref().map_or(&empty, |s| s.trace());
        let newest = trace.frames.last();
        StreamStats {
            pushed: slot.pushed,
            completed: slot.completed,
            stage_totals: trace.stage_time_totals(),
            poisoned: slot.poisoned,
            map_splats: newest.map_or(0, |f| f.num_gaussians),
            quantized_splats: newest.map_or(0, |f| f.quantized_splats),
            map_bytes: newest.map_or(0, |f| f.map_bytes),
            projection_cache_hits: newest.map_or(0, |f| f.projection_cache_hits),
            projection_cache_misses: newest.map_or(0, |f| f.projection_cache_misses),
            retired: false,
            rejected: 0,
            auto_checkpoints: slot.auto_checkpoints,
            checkpoint_errors: slot.checkpoint_errors,
        }
    }

    fn slot(&mut self, stream: usize) -> Result<&mut StreamSlot, StreamError> {
        let slot = self.streams.get_mut(stream).ok_or(StreamError::UnknownStream(stream))?;
        if slot.retired.is_some() {
            return Err(StreamError::Detached(stream));
        }
        if slot.poisoned {
            return Err(StreamError::Poisoned {
                stream,
                panic: slot.panic_msg.clone().unwrap_or_default(),
            });
        }
        Ok(slot)
    }
}

/// How [`MultiStreamServer::attach_store_with`] opens the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreAttachOptions {
    /// Key prefix to open the [`EpochStore`] under. `None` (the default)
    /// uses `s{stream}` — the destination of a migration passes the
    /// **source's** prefix here so it reads the generations the source
    /// wrote.
    pub prefix: Option<String>,
    /// Read nowhere: every attach opens from the manifest alone. Only user:
    /// the struct literal at `benchmark/src/sut.rs:483`; kept until the next
    /// `benchmark` PR drops it there (`benchmark/` may not be edited).
    #[doc(hidden)]
    pub lazy_open: bool,
}

/// Which end of a migration a [`migrate_stream`] dial callback is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationEnd {
    /// A store connection for the **source** server — used for the final
    /// checkpoint when the source has no store attached yet, and to revive
    /// the source if the destination fails.
    Source,
    /// A store connection for the **destination** server — used to restore
    /// the migrated stream.
    Destination,
}

/// What a successful [`migrate_stream`] hand-off produced.
#[derive(Debug)]
pub struct MigrationReport {
    /// The stream id allocated on the destination server. Ids are
    /// per-server, so this generally differs from the source id.
    pub dest_stream: usize,
    /// Records drained from the source pipeline by the final checkpoint —
    /// frames that completed on the source but were never handed to the
    /// caller. Nothing is lost across the hand-off.
    pub drained: Vec<AgsFrameRecord>,
    /// Wall-clock gap from starting the source's final checkpoint to the
    /// destination stream being restored and ready for frames.
    pub cutover: Duration,
}

/// Why a [`migrate_stream`] hand-off failed.
#[derive(Debug)]
pub enum MigrationError {
    /// The source side failed (dial, final checkpoint, or detach). The
    /// source stream is **left attached** and keeps serving — nothing moved.
    Source(StreamError),
    /// The source detached cleanly but the destination could not restore
    /// (e.g. retries against the remote store exhausted mid-transfer).
    Destination {
        /// The destination-side failure.
        error: StreamError,
        /// Whether the source stream was revived from its final checkpoint
        /// (re-attached + restored) so no stream was lost. `false` means the
        /// revival itself also failed and the stream exists only as durable
        /// generations in the store.
        source_revived: bool,
    },
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::Source(e) => write!(f, "migration failed at the source: {e}"),
            MigrationError::Destination { error, source_revived } => write!(
                f,
                "migration failed at the destination ({}): {error}",
                if *source_revived { "source revived" } else { "source NOT revived" }
            ),
        }
    }
}

impl std::error::Error for MigrationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MigrationError::Source(e) | MigrationError::Destination { error: e, .. } => Some(e),
        }
    }
}

/// Live hand-off of stream `src` from `source` to `dest` through a shared
/// map store: the source quiesces and commits a final checkpoint generation,
/// detaches, and the destination restores the stream from the store and
/// resumes — bit-identical to checkpointing and continuing in place.
///
/// `dial` opens a fresh [`MapStore`] connection to the shared store for the
/// given [`MigrationEnd`] — for a remote store each server end needs its own
/// connection, and keeping the two dials separate lets a test route the
/// destination through a fault proxy while the source dials direct. It is
/// called up to three times: `Source` if the source has no store attached
/// yet (a store already attached via
/// [`attach_store`](MultiStreamServer::attach_store) is reused as-is),
/// `Destination` for the restore, and `Source` again only to revive the
/// source after a destination-side failure.
///
/// Failure semantics (the elasticity contract):
///
/// * Source-side failure ([`MigrationError::Source`]) — dial, final
///   checkpoint, or detach failed. The stream is **left attached** on the
///   source and keeps serving.
/// * Destination-side failure ([`MigrationError::Destination`]) — e.g. the
///   remote store's bounded retries exhausted mid-restore. The destination
///   slot is detached again (best-effort) and the source is revived from
///   the final checkpoint it just committed; `source_revived` reports
///   whether that succeeded. Either way the checkpoint generations remain
///   durable in the store.
///
/// On success the destination stream reads checkpoints under the source's
/// key prefix (see [`StoreAttachOptions::prefix`]), fetching the chain
/// exactly once, and the report carries the drained source records and the
/// cut-over gap.
pub fn migrate_stream(
    source: &mut MultiStreamServer,
    src: usize,
    dest: &mut MultiStreamServer,
    policy: StreamPolicy,
    config: &CheckpointConfig,
    dial: &mut dyn FnMut(MigrationEnd) -> Result<Box<dyn MapStore>, StoreError>,
) -> Result<MigrationReport, MigrationError> {
    let storage = |stream, source| StreamError::Storage { stream, source };
    // Make sure the source can commit its final generation: dial the store
    // for it if nothing is attached yet. Failure here leaves the stream
    // untouched.
    if !source.has_store(src) {
        let store =
            dial(MigrationEnd::Source).map_err(|e| MigrationError::Source(storage(src, e)))?;
        source.attach_store(src, store, config.clone()).map_err(MigrationError::Source)?;
    }
    let prefix = source.store_prefix(src).unwrap_or_else(|| format!("s{src}"));

    let cutover_start = Instant::now();
    // Quiesce + final checkpoint + detach the source. On error the
    // stream is still attached (detach_stream's contract) — nothing moved.
    let drained = source.detach_stream(src, true).map_err(MigrationError::Source)?;

    // Bring a stream up from the source's prefix: the destination first,
    // the source again if that fails.
    let options = StoreAttachOptions { prefix: Some(prefix), ..Default::default() };
    let revive = |server: &mut MultiStreamServer, stream, store| {
        server.attach_store_with(stream, store, config.clone(), options.clone())?;
        server.restore_stream(stream)
    };
    let dest_stream = dest.attach_stream(policy);
    let restored = dial(MigrationEnd::Destination)
        .map_err(|e| storage(dest_stream, e))
        .and_then(|store| revive(dest, dest_stream, store));
    match restored {
        Ok(()) => Ok(MigrationReport { dest_stream, drained, cutover: cutover_start.elapsed() }),
        Err(error) => {
            // Roll back: free the half-attached destination slot, then
            // revive the source from the generation it just committed.
            let _ = dest.detach_stream(dest_stream, false);
            let source_revived = dial(MigrationEnd::Source)
                .map_err(|e| storage(src, e))
                .and_then(|store| revive(source, src, store))
                .is_ok();
            Err(MigrationError::Destination { error, source_revived })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};

    fn tiny_dataset(frames: usize) -> Dataset {
        let dconfig = DatasetConfig {
            width: 64,
            height: 48,
            num_frames: frames * 4,
            ..DatasetConfig::tiny()
        };
        let mut data = Dataset::generate(SceneId::Xyz, &dconfig);
        data.truncate(frames);
        data
    }

    fn push_all(server: &mut MultiStreamServer, stream: usize, data: &Dataset) {
        for frame in &data.frames {
            server
                .push_frame(
                    stream,
                    &data.camera,
                    Arc::new(frame.rgb.clone()),
                    Arc::new(frame.depth.clone()),
                )
                .expect("healthy stream");
        }
    }

    #[test]
    fn uniform_server_runs_streams_to_completion() {
        let data = tiny_dataset(4);
        let config =
            ServerConfig { pool_workers: Some(1), ..ServerConfig::uniform(2, AgsConfig::tiny()) };
        let mut server = MultiStreamServer::new(config);
        assert_eq!(server.streams(), 2);
        for s in 0..2 {
            push_all(&mut server, s, &data);
        }
        server.finish_all();
        for s in 0..2 {
            let slam = server.stream(s).unwrap();
            assert_eq!(slam.trajectory().len(), 4, "stream {s}");
            assert!(!slam.cloud().is_empty(), "stream {s}");
        }
        let stats = server.stats();
        assert_eq!(stats.completed_frames(), 8);
        assert!(stats.total.track_s >= stats.max.track_s);
        for s in &stats.per_stream {
            assert!(s.projection_cache_hits > 0, "mapping projects through the cache");
        }
    }

    #[test]
    fn per_stream_policies_apply() {
        let config = ServerConfig {
            streams: 3,
            base: AgsConfig::tiny(),
            per_stream: vec![
                StreamPolicy::serial(),
                StreamPolicy::overlapped(2),
                StreamPolicy::map_overlapped(1, 2),
            ],
            pool_workers: Some(1),
        };
        let mut server = MultiStreamServer::new(config);
        let data = tiny_dataset(3);
        // Serial stream: synchronous records.
        for frame in &data.frames {
            let record = server
                .push_frame(
                    0,
                    &data.camera,
                    Arc::new(frame.rgb.clone()),
                    Arc::new(frame.depth.clone()),
                )
                .unwrap();
            assert!(record.is_some(), "serial stream is synchronous");
        }
        // Overlapped streams: the pipeline fills first.
        for s in [1usize, 2] {
            let first = server
                .push_frame(
                    s,
                    &data.camera,
                    Arc::new(data.frames[0].rgb.clone()),
                    Arc::new(data.frames[0].depth.clone()),
                )
                .unwrap();
            assert!(first.is_none(), "stream {s} fills its pipeline first");
        }
        server.finish_all();
        assert_eq!(server.stream(0).unwrap().config().pipeline, PipelineConfig::default());
        assert_eq!(
            server.stream(2).unwrap().config().pipeline,
            PipelineConfig::map_overlapped(1, 2)
        );
    }

    #[test]
    fn unknown_stream_is_rejected() {
        let data = tiny_dataset(1);
        let mut server = MultiStreamServer::new(ServerConfig {
            pool_workers: Some(0),
            ..ServerConfig::uniform(1, AgsConfig::tiny())
        });
        let err = server
            .push_frame(
                5,
                &data.camera,
                Arc::new(data.frames[0].rgb.clone()),
                Arc::new(data.frames[0].depth.clone()),
            )
            .unwrap_err();
        assert_eq!(err, StreamError::UnknownStream(5));
        assert!(server.finish_stream(5).is_err());
        assert!(server.stream(5).is_none());
    }

    #[test]
    fn streams_share_one_pool_handle() {
        let server = MultiStreamServer::new(ServerConfig {
            pool_workers: Some(1),
            ..ServerConfig::uniform(2, AgsConfig::tiny())
        });
        for s in 0..2 {
            let config = server.stream(s).unwrap().config();
            let stage_pool = config.parallelism.pool().expect("stage pool installed");
            assert!(Arc::ptr_eq(stage_pool, server.pool()), "stream {s} stage knob");
            let codec_pool = config.codec.parallelism.pool().expect("codec pool installed");
            assert!(Arc::ptr_eq(codec_pool, server.pool()), "stream {s} codec knob");
        }
    }
}
