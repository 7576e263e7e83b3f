//! Crash-recovery fidelity of the durable-map layer.
//!
//! The contract: checkpoint a live stream mid-sequence, kill the server,
//! restore a fresh one from the surviving store, finish the sequence — and
//! the recovered stream's trajectory, final Gaussian cloud and canonical
//! trace are **bit-identical** to a run that was never interrupted. This
//! must hold across pipeline modes, pool worker counts, storage backends
//! and injected storage faults (torn manifests fall back to the previous
//! generation; transient I/O errors are absorbed by bounded retry), and the
//! recovery path must also revive a panic-poisoned stream without
//! disturbing its neighbours.

use ags_core::{
    decode_aux, encode_aux, AgsConfig, MultiStreamServer, ServerConfig, StreamError, StreamPolicy,
};
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use ags_store::{
    CheckpointConfig, EpochStore, FaultPlan, FaultStore, FileStore, MapStore, MemoryStore,
    StoreError,
};
use std::sync::Arc;

fn dataset(scene: SceneId, frames: usize) -> Dataset {
    let dconfig =
        DatasetConfig { width: 64, height: 48, num_frames: frames * 4, ..DatasetConfig::tiny() };
    let mut data = Dataset::generate(scene, &dconfig);
    data.truncate(frames);
    data
}

/// Everything semantic a stream produces.
type StreamResult = (Vec<ags_math::Se3>, Vec<ags_splat::Gaussian>, Vec<u8>);

/// Base config with pose refinement forced on every frame, so the snapshot
/// epoch each frame reads is visible in the canonical trace — restore
/// fidelity must prove the staleness *schedule* replays, not merely that
/// tracking re-ran. Kernels are pinned to the shared pool as in the
/// multi-stream suite.
fn pooled_base() -> AgsConfig {
    let mut base = AgsConfig::tiny();
    base.thresh_t = 1.01;
    base.parallelism = ags_math::Parallelism::with_threads(4).min_items(0);
    base
}

fn server_config_with(base: AgsConfig, policy: StreamPolicy, workers: usize) -> ServerConfig {
    ServerConfig { streams: 1, base, per_stream: vec![policy], pool_workers: Some(workers) }
}

fn server_config(policy: StreamPolicy, workers: usize) -> ServerConfig {
    server_config_with(pooled_base(), policy, workers)
}

fn fast_store_config() -> CheckpointConfig {
    CheckpointConfig { retry_backoff_ms: 0, ..CheckpointConfig::default() }
}

fn push(server: &mut MultiStreamServer, stream: usize, data: &Dataset, f: usize) {
    server
        .push_frame(
            stream,
            &data.camera,
            Arc::new(data.frames[f].rgb.clone()),
            Arc::new(data.frames[f].depth.clone()),
        )
        .expect("healthy push");
}

fn result_of(server: &MultiStreamServer, stream: usize) -> StreamResult {
    let slam = server.stream(stream).expect("stream in range");
    (slam.trajectory().to_vec(), slam.cloud().gaussians().to_vec(), slam.trace().canonical_bytes())
}

/// One stream run end-to-end with no checkpoint/crash — the reference.
fn uninterrupted(policy: StreamPolicy, workers: usize, data: &Dataset) -> StreamResult {
    let mut server = MultiStreamServer::new(server_config(policy, workers));
    for f in 0..data.frames.len() {
        push(&mut server, 0, data, f);
    }
    server.finish_all();
    result_of(&server, 0)
}

/// What a crashed server left on its store: every key, and the total
/// payload bytes under them.
type StoreFootprint = (Vec<String>, u64);

/// Runs the crash dance: a server checkpoints stream 0 at `cut`, keeps
/// running (those frames die with it), and is dropped; a fresh server
/// restores from the surviving backing and finishes the sequence. Also
/// returns what the crashed server left on the store.
fn crash_and_recover(
    policy: StreamPolicy,
    workers: usize,
    data: &Dataset,
    cut: usize,
) -> (StreamResult, StoreFootprint) {
    let backing = MemoryStore::new();
    let mut crashed = MultiStreamServer::new(server_config(policy, workers));
    crashed.attach_store(0, Box::new(backing.clone()), fast_store_config()).unwrap();
    for f in 0..cut {
        push(&mut crashed, 0, data, f);
    }
    crashed.checkpoint_stream(0).expect("checkpoint commits");
    // The stream keeps running past the checkpoint before dying — as in a
    // real crash, everything after the last commit is lost.
    for f in cut..data.frames.len().saturating_sub(1) {
        push(&mut crashed, 0, data, f);
    }
    drop(crashed);
    let footprint = (backing.keys("").unwrap(), backing.total_bytes());

    let mut server = MultiStreamServer::new(server_config(policy, workers));
    server.attach_store(0, Box::new(backing), fast_store_config()).unwrap();
    server.restore_stream(0).expect("restore succeeds");
    assert_eq!(
        server.stream(0).unwrap().trajectory().len(),
        cut,
        "restore resumes at the checkpointed frame"
    );
    for f in cut..data.frames.len() {
        push(&mut server, 0, data, f);
    }
    server.finish_all();
    (result_of(&server, 0), footprint)
}

#[test]
fn restore_fidelity_across_modes_and_worker_counts() {
    let frames = 6;
    let cut = 3;
    let data = dataset(SceneId::Xyz, frames);
    let policies =
        [StreamPolicy::serial(), StreamPolicy::overlapped(2), StreamPolicy::map_overlapped(1, 2)];
    for policy in policies {
        let mut footprints = Vec::new();
        for workers in [1usize, 2, 8] {
            let reference = uninterrupted(policy, workers, &data);
            let (recovered, footprint) = crash_and_recover(policy, workers, &data, cut);
            assert_eq!(
                reference, recovered,
                "restored run must be bit-identical: {policy:?}, {workers} pool workers"
            );
            footprints.push(footprint);
        }
        // Nothing is written between commits, so what the crashed server
        // left behind is a function of the stream and the commit points.
        assert!(
            footprints.windows(2).all(|p| p[0] == p[1]),
            "store contents must not depend on the worker count: {policy:?}, {footprints:?}"
        );
    }
}

#[test]
fn file_store_restore_survives_a_process_style_restart() {
    let frames = 6;
    let cut = 3;
    let data = dataset(SceneId::Desk2, frames);
    let policy = StreamPolicy::map_overlapped(1, 1);
    let reference = uninterrupted(policy, 2, &data);
    let root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("durable-maps");
    let _ = std::fs::remove_dir_all(&root);
    {
        let mut crashed = MultiStreamServer::new(server_config(policy, 2));
        crashed
            .attach_store(0, Box::new(FileStore::new(&root).unwrap()), fast_store_config())
            .unwrap();
        for f in 0..cut {
            push(&mut crashed, 0, &data, f);
        }
        crashed.checkpoint_stream(0).unwrap();
        for f in cut..frames {
            push(&mut crashed, 0, &data, f);
        }
        // Dropped here with the post-checkpoint frames unpersisted.
    }
    // Only the directory survives; a fresh handle over it restores.
    let mut server = MultiStreamServer::new(server_config(policy, 2));
    server.attach_store(0, Box::new(FileStore::new(&root).unwrap()), fast_store_config()).unwrap();
    server.restore_stream(0).unwrap();
    for f in cut..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();
    assert_eq!(reference, result_of(&server, 0));
}

#[test]
fn poisoned_stream_recovers_from_checkpoint_with_neighbour_bit_exact() {
    let frames = 5;
    let cut = 2;
    let data0 = dataset(SceneId::Xyz, frames);
    let data1 = dataset(SceneId::Room0, frames);
    let two_streams = || ServerConfig {
        streams: 2,
        base: pooled_base(),
        per_stream: vec![StreamPolicy::map_overlapped(1, 1), StreamPolicy::map_overlapped(1, 1)],
        pool_workers: Some(2),
    };
    let reference = {
        let mut server = MultiStreamServer::new(two_streams());
        for f in 0..frames {
            push(&mut server, 0, &data0, f);
            push(&mut server, 1, &data1, f);
        }
        server.finish_all();
        (result_of(&server, 0), result_of(&server, 1))
    };

    let backing = MemoryStore::new();
    let mut server = MultiStreamServer::new(two_streams());
    server.attach_store(0, Box::new(backing), fast_store_config()).unwrap();
    for f in 0..cut {
        push(&mut server, 0, &data0, f);
        push(&mut server, 1, &data1, f);
    }
    server.checkpoint_stream(0).unwrap();

    // Poison stream 0: a frame of the wrong resolution panics the codec in
    // the FC stage. With the FC stage on a worker thread the panic surfaces
    // at the push/drain boundary — at the latest on the finish.
    let wrong = {
        let dconfig = DatasetConfig { width: 32, height: 24, ..DatasetConfig::tiny() };
        Dataset::generate(SceneId::Xyz, &dconfig)
    };
    let poisoned = server
        .push_frame(
            0,
            &data0.camera,
            Arc::new(wrong.frames[0].rgb.clone()),
            Arc::new(data0.frames[cut].depth.clone()),
        )
        .is_err()
        || server.finish_stream(0).is_err();
    assert!(poisoned, "wrong-resolution frame must poison the stream");
    assert!(server.is_poisoned(0));
    // Later rejections still carry the original panic context.
    match server.finish_stream(0) {
        Err(StreamError::Poisoned { stream: 0, panic }) => {
            assert!(!panic.is_empty(), "panic payload message is preserved")
        }
        other => panic!("expected the stashed poison, got {other:?}"),
    }

    // The neighbour keeps running while stream 0 is down.
    for f in cut..frames {
        push(&mut server, 1, &data1, f);
    }

    // Recovery: re-spawn stream 0 from its last durable generation.
    server.restore_stream(0).expect("restore clears the poison");
    assert!(!server.is_poisoned(0));
    for f in cut..frames {
        push(&mut server, 0, &data0, f);
    }
    server.finish_all();
    assert_eq!(reference.0, result_of(&server, 0), "recovered stream");
    assert_eq!(reference.1, result_of(&server, 1), "healthy neighbour");
}

#[test]
fn torn_newest_generation_falls_back_to_the_previous_one() {
    let frames = 6;
    let (cut1, cut2) = (2, 4);
    let data = dataset(SceneId::Xyz, frames);
    let policy = StreamPolicy::map_overlapped(1, 1);
    let reference = uninterrupted(policy, 2, &data);

    let backing = MemoryStore::new();
    let mut crashed = MultiStreamServer::new(server_config(policy, 2));
    crashed.attach_store(0, Box::new(backing.clone()), fast_store_config()).unwrap();
    for f in 0..cut1 {
        push(&mut crashed, 0, &data, f);
    }
    crashed.checkpoint_stream(0).unwrap();
    for f in cut1..cut2 {
        push(&mut crashed, 0, &data, f);
    }
    crashed.checkpoint_stream(0).unwrap();
    drop(crashed);

    // Tear the newest manifest after the fact: restore must skip it and
    // fall back to the older good generation rather than load garbage.
    let newest = backing.keys("s0/manifest/").unwrap().pop().unwrap();
    assert!(backing.tamper(&newest, |v| v.truncate(v.len() / 2)));

    let mut server = MultiStreamServer::new(server_config(policy, 2));
    server.attach_store(0, Box::new(backing), fast_store_config()).unwrap();
    server.restore_stream(0).unwrap();
    assert_eq!(server.stream(0).unwrap().trajectory().len(), cut1, "older generation wins");
    for f in cut1..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();
    assert_eq!(reference, result_of(&server, 0));
}

#[test]
fn transient_write_faults_are_retried_and_exhaustion_is_a_storage_error() {
    let frames = 4;
    let cut = 2;
    let data = dataset(SceneId::Xyz, frames);
    let policy = StreamPolicy::serial();
    let reference = uninterrupted(policy, 1, &data);

    // Two transient failures on the first store write: absorbed by the
    // bounded retry budget (3 attempts), checkpoint and restore work.
    let backing = MemoryStore::new();
    let flaky = FaultStore::new(backing.clone(), FaultPlan::none().fail_writes([0, 1]));
    let mut crashed = MultiStreamServer::new(server_config(policy, 1));
    crashed.attach_store(0, Box::new(flaky), fast_store_config()).unwrap();
    for f in 0..cut {
        push(&mut crashed, 0, &data, f);
    }
    crashed.checkpoint_stream(0).expect("transient faults are retried");
    drop(crashed);
    let mut server = MultiStreamServer::new(server_config(policy, 1));
    server.attach_store(0, Box::new(backing), fast_store_config()).unwrap();
    server.restore_stream(0).unwrap();
    for f in cut..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();
    assert_eq!(reference, result_of(&server, 0));

    // A persistently failing store exhausts the budget: the commit reports
    // a Storage error and the stream itself stays healthy.
    let dead = FaultStore::new(MemoryStore::new(), FaultPlan::none().fail_writes(0..10_000));
    let mut server = MultiStreamServer::new(server_config(policy, 1));
    server.attach_store(0, Box::new(dead), fast_store_config()).unwrap();
    for f in 0..cut {
        push(&mut server, 0, &data, f);
    }
    let err = server.checkpoint_stream(0).unwrap_err();
    match err {
        StreamError::Storage { stream: 0, source: StoreError::Io(_) } => {}
        other => panic!("expected an I/O storage error, got {other:?}"),
    }
    assert!(!server.is_poisoned(0), "storage failure must not poison the stream");
    for f in cut..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();
    assert_eq!(reference, result_of(&server, 0), "the stream itself is unaffected");
}

#[test]
fn checkpoint_and_restore_without_a_store_are_storage_errors() {
    let mut server = MultiStreamServer::new(server_config(StreamPolicy::serial(), 1));
    match server.checkpoint_stream(0) {
        Err(StreamError::Storage { stream: 0, source: StoreError::Missing(_) }) => {}
        other => panic!("expected a missing-store error, got {other:?}"),
    }
    assert!(matches!(server.restore_stream(0), Err(StreamError::Storage { .. })));
    assert!(matches!(server.restore_stream(7), Err(StreamError::UnknownStream(7))));
}

#[test]
fn inconsistent_checkpoint_is_a_storage_error_not_a_panic() {
    // A CRC-valid generation no driver could have written: a slack-1 stream
    // checkpoints at frame 5 with window [4, 5], then the same generation is
    // re-committed with its aux state at slack 3 (contract epoch 2, outside
    // the window) or at usize::MAX. Restoring must reject it as corrupt and
    // leave the slot untouched, not panic the server.
    let frames = 5;
    let data = dataset(SceneId::Xyz, frames);
    let policy = StreamPolicy::map_overlapped(1, 1);
    for forged_slack in [3, usize::MAX] {
        let backing = MemoryStore::new();
        let mut server = MultiStreamServer::new(server_config(policy, 1));
        server.attach_store(0, Box::new(backing.clone()), fast_store_config()).unwrap();
        for f in 0..frames {
            push(&mut server, 0, &data, f);
        }
        server.checkpoint_stream(0).expect("checkpoint commits");
        drop(server);

        let mut log = EpochStore::open(Box::new(backing.clone()), "s0", fast_store_config())
            .expect("open the stream's log");
        let restored = log.restore_latest().unwrap().expect("the committed generation");
        let mut state = decode_aux(&restored.aux, restored.window).expect("a valid checkpoint");
        assert_eq!(state.window.iter().map(|s| s.epoch()).collect::<Vec<_>>(), [4, 5]);
        state.slack = forged_slack;
        log.commit(&state.window, &encode_aux(&state)).expect("re-commit");

        let mut fresh = MultiStreamServer::new(server_config(policy, 1));
        fresh.attach_store(0, Box::new(backing), fast_store_config()).unwrap();
        match fresh.restore_stream(0) {
            Err(StreamError::Storage { stream: 0, source: StoreError::Corrupt(_) }) => {}
            other => panic!("slack {forged_slack}: expected a corrupt checkpoint, got {other:?}"),
        }
        assert!(!fresh.is_poisoned(0));
        assert!(fresh.stream(0).unwrap().trajectory().is_empty(), "the slot is untouched");
        push(&mut fresh, 0, &data, 0);
    }
}

#[test]
fn restore_at_epoch_zero_replays_the_whole_stream() {
    // The degenerate window: a checkpoint taken before any frame holds only
    // the empty epoch-0 snapshot.
    let frames = 4;
    let data = dataset(SceneId::Xyz, frames);
    for policy in [StreamPolicy::serial(), StreamPolicy::map_overlapped(1, 2)] {
        let reference = uninterrupted(policy, 2, &data);
        let (recovered, _) = crash_and_recover(policy, 2, &data, 0);
        assert_eq!(reference, recovered, "{policy:?}");
    }
}

#[test]
fn slack_larger_than_persisted_epochs_restores() {
    // map_slack exceeds the epochs that existed at the checkpoint: the
    // contractual epoch clamps to 0 and every fresher persisted snapshot
    // rides the replay queue.
    let frames = 6;
    let cut = 2;
    let policy = StreamPolicy::map_overlapped(1, 4);
    let data = dataset(SceneId::Xyz, frames);
    let reference = uninterrupted(policy, 2, &data);
    let (recovered, _) = crash_and_recover(policy, 2, &data, cut);
    assert_eq!(reference, recovered);
}

#[test]
fn compaction_state_survives_restore_bit_identical() {
    // The compaction bookkeeping (per-splat touch epochs, quantized-chunk
    // flags, compacted contribution tables) rides the Aux record. A run
    // recovered mid-sequence must make the exact same prune and quantize
    // decisions as the uninterrupted one — down to identical snapped bits
    // and identical byte accounting in the trace.
    let cut = 4;

    // Every frame is a key frame: no chunk goes cold, so the budget's
    // escalation prunes on every frame.
    let prune_base = AgsConfig { thresh_m: 1.01, map_bytes_budget: 48 * 1024, ..pooled_base() };
    // Escalation 1 alone satisfies this budget on the 5-frame stream: the
    // first frame's cold chunks are snapped on frames 3 and 4, one on each
    // side of the cut, and nothing is pruned.
    let quantize_base = AgsConfig { map_bytes_budget: 80_000, ..pooled_base() };

    let cases = [
        ("budget-prune", &prune_base, StreamPolicy::serial(), 8),
        ("budget-prune", &prune_base, StreamPolicy::overlapped(2), 8),
        ("budget-prune", &prune_base, StreamPolicy::map_overlapped(1, 2), 8),
        ("budget-quantize", &quantize_base, StreamPolicy::map_overlapped(1, 2), 5),
    ];
    for (label, base, policy, frames) in cases {
        let data = dataset(SceneId::Xyz, frames);
        let workers = 2;
        let mut server = MultiStreamServer::new(server_config_with(base.clone(), policy, workers));
        for f in 0..frames {
            push(&mut server, 0, &data, f);
        }
        server.finish_all();
        {
            // Compaction must have acted both before and after the cut, or
            // recovery would never exercise the restored bookkeeping.
            let trace = server.stream(0).unwrap().trace();
            let active = |f: &ags_core::TraceFrame| f.pruned > 0 || f.quantized_splats > 0;
            assert!(trace.frames[..cut].iter().any(active), "{label}: idle before the cut");
            assert!(trace.frames[cut..].iter().any(active), "{label}: idle after the cut");
            if label == "budget-quantize" {
                assert!(trace.frames.iter().all(|f| f.pruned == 0), "{label}: pruned");
            }
        }
        let reference = result_of(&server, 0);

        let backing = MemoryStore::new();
        let mut crashed = MultiStreamServer::new(server_config_with(base.clone(), policy, workers));
        crashed.attach_store(0, Box::new(backing.clone()), fast_store_config()).unwrap();
        for f in 0..cut {
            push(&mut crashed, 0, &data, f);
        }
        crashed.checkpoint_stream(0).expect("checkpoint commits");
        drop(crashed);

        let mut recovered =
            MultiStreamServer::new(server_config_with(base.clone(), policy, workers));
        recovered.attach_store(0, Box::new(backing), fast_store_config()).unwrap();
        recovered.restore_stream(0).expect("restore succeeds");
        for f in cut..frames {
            push(&mut recovered, 0, &data, f);
        }
        recovered.finish_all();
        assert_eq!(reference, result_of(&recovered, 0), "{label}: {policy:?}");
    }
}
