//! Elastic cross-server stream migration over a (faulty) remote store.
//!
//! The contract: `migrate_stream` hands a live stream from one
//! [`MultiStreamServer`] to another through a shared map store — final
//! checkpoint on the source, restore on the destination — and the
//! migrated stream finishes **bit-identical** to checkpointing and
//! continuing in place. This must hold when the store is a real
//! [`RemoteStore`] over loopback TCP and the destination's restore traffic
//! is dragged through injected latency, a torn response, a mid-transfer
//! disconnect and a stalled response (absorbed by bounded retry); and when
//! retries are exhausted entirely, the source must be revived from its own
//! final checkpoint — no stream is ever lost. Attach + restore must fetch
//! each record of the adopted generation exactly once (restore fidelity
//! across pipeline modes and worker counts is the durability suite's job).

use ags_core::{
    migrate_stream, AgsConfig, MigrationEnd, MigrationError, MultiStreamServer, ServerConfig,
    StreamError, StreamPolicy,
};
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use ags_store::{
    CheckpointConfig, MapStore, MemoryStore, NetFaultPlan, NetFaultProxy, RemoteCounters,
    RemoteStore, RetryPolicy, StoreError, StoreServer,
};
use std::sync::Arc;
use std::time::Duration;

fn dataset(scene: SceneId, frames: usize) -> Dataset {
    let dconfig =
        DatasetConfig { width: 64, height: 48, num_frames: frames * 4, ..DatasetConfig::tiny() };
    let mut data = Dataset::generate(scene, &dconfig);
    data.truncate(frames);
    data
}

/// Everything semantic a stream produces.
type StreamResult = (Vec<ags_math::Se3>, Vec<ags_splat::Gaussian>, Vec<u8>);

fn pooled_base() -> AgsConfig {
    let mut base = AgsConfig::tiny();
    base.thresh_t = 1.01;
    base.parallelism = ags_math::Parallelism::with_threads(4).min_items(0);
    base
}

fn one_stream_config(policy: StreamPolicy, workers: usize) -> ServerConfig {
    ServerConfig {
        streams: 1,
        base: pooled_base(),
        per_stream: vec![policy],
        pool_workers: Some(workers),
    }
}

fn empty_server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        streams: 0,
        base: pooled_base(),
        per_stream: vec![],
        pool_workers: Some(workers),
    }
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

/// The migration reference: checkpoint at `cut` and keep going **in place**
/// on one server. A migrated stream must be bit-identical to this.
fn checkpoint_and_continue(
    policy: StreamPolicy,
    workers: usize,
    data: &Dataset,
    cut: usize,
) -> StreamResult {
    let mut server = MultiStreamServer::new(one_stream_config(policy, workers));
    server.attach_store(0, Box::new(MemoryStore::new()), fast_store_config()).expect("attach");
    for f in 0..cut {
        push(&mut server, 0, data, f);
    }
    server.checkpoint_stream(0).expect("mid-run checkpoint");
    for f in cut..data.frames.len() {
        push(&mut server, 0, data, f);
    }
    server.finish_all();
    result_of(&server, 0)
}

/// Client policy for the loopback remote store: generous attempts so the
/// injected fault schedule is absorbed, short per-attempt timeout so a
/// stalled response fails over quickly.
fn remote_policy() -> RetryPolicy {
    RetryPolicy::new(5, Duration::from_millis(250), Duration::from_millis(1))
}

#[test]
fn migration_over_faulty_remote_store_is_bit_identical() {
    let frames = 6;
    let cut = 3;
    let workers = 2;
    let policy = StreamPolicy::map_overlapped(1, 1);
    let data = dataset(SceneId::Xyz, frames);
    let reference = checkpoint_and_continue(policy, workers, &data, cut);

    // One shared remote store; the source talks to it directly, the
    // destination's restore traffic goes through a fault proxy that injects
    // latency, a torn response, a mid-transfer disconnect and a stalled
    // response at fixed op indices.
    let store_server = StoreServer::spawn("127.0.0.1:0", Box::new(MemoryStore::new()))
        .expect("bind loopback store server");
    let upstream = store_server.local_addr();
    let plan = NetFaultPlan::none()
        .latency(0, 40)
        .drop_after(1, 9) // torn response: half a header, then close
        .drop_after(3, 0) // mid-transfer disconnect: close before any byte
        .stall(5, 0); // swallowed response: client deadline fires
    let proxy = NetFaultProxy::spawn(upstream, plan).expect("bind fault proxy");
    let proxy_addr = proxy.local_addr();

    let mut source = MultiStreamServer::new(one_stream_config(policy, workers));
    let direct = RemoteStore::connect(upstream, remote_policy()).expect("dial store");
    source.attach_store(0, Box::new(direct), fast_store_config()).expect("attach remote");
    for f in 0..cut {
        push(&mut source, 0, &data, f);
    }

    let mut dest = MultiStreamServer::new(empty_server_config(workers));
    let mut dest_counters: Option<RemoteCounters> = None;
    let report = migrate_stream(
        &mut source,
        0,
        &mut dest,
        policy,
        &fast_store_config(),
        &mut |end| -> Result<Box<dyn MapStore>, StoreError> {
            let addr = match end {
                MigrationEnd::Destination => proxy_addr,
                MigrationEnd::Source => upstream,
            };
            let store = RemoteStore::connect(addr, remote_policy())?;
            if end == MigrationEnd::Destination {
                dest_counters = Some(store.counters());
            }
            Ok(Box::new(store))
        },
    )
    .expect("migration completes despite injected faults");

    assert!(source.is_retired(0), "source stream is retired after hand-off");
    assert!(report.cutover > Duration::ZERO);
    for f in cut..frames {
        push(&mut dest, report.dest_stream, &data, f);
    }
    dest.finish_all();
    let migrated = result_of(&dest, report.dest_stream);
    assert_eq!(
        migrated, reference,
        "migrated stream must be bit-identical to checkpoint-and-continue in place"
    );

    // The fault schedule really fired and was absorbed by retry: the torn
    // response and the disconnect each force a reconnect, the stall burns a
    // per-attempt deadline.
    let counters = dest_counters.expect("destination dialed");
    assert!(counters.retries() >= 3, "expected ≥3 retries, saw {}", counters.retries());
    assert!(counters.timeouts() >= 1, "stalled response must time out");
    assert!(counters.connects() >= 2, "torn/dropped responses must redial");
    assert!(proxy.ops_relayed() >= 6, "restore traffic went through the proxy");
}

#[test]
fn exhausted_retries_revive_the_source_and_lose_no_stream() {
    let frames = 6;
    let cut = 3;
    let workers = 2;
    let policy = StreamPolicy::map_overlapped(1, 1);
    let data = dataset(SceneId::Desk, frames);
    let reference = checkpoint_and_continue(policy, workers, &data, cut);

    let store_server = StoreServer::spawn("127.0.0.1:0", Box::new(MemoryStore::new()))
        .expect("bind loopback store server");
    let upstream = store_server.local_addr();
    // Every destination op is torn mid-header: the client's bounded retries
    // exhaust no matter how many attempts it makes.
    let proxy = NetFaultProxy::spawn(upstream, NetFaultPlan::none().drop_all(0..64))
        .expect("bind fault proxy");
    let proxy_addr = proxy.local_addr();

    let mut source = MultiStreamServer::new(one_stream_config(policy, workers));
    let direct = RemoteStore::connect(upstream, remote_policy()).expect("dial store");
    source.attach_store(0, Box::new(direct), fast_store_config()).expect("attach remote");
    for f in 0..cut {
        push(&mut source, 0, &data, f);
    }

    let mut dest = MultiStreamServer::new(empty_server_config(workers));
    let err = migrate_stream(
        &mut source,
        0,
        &mut dest,
        policy,
        &fast_store_config(),
        &mut |end| -> Result<Box<dyn MapStore>, StoreError> {
            let addr = match end {
                MigrationEnd::Destination => proxy_addr,
                MigrationEnd::Source => upstream,
            };
            Ok(Box::new(RemoteStore::connect(addr, remote_policy())?))
        },
    )
    .expect_err("all-torn destination traffic must exhaust retries");

    match &err {
        MigrationError::Destination { error, source_revived } => {
            assert!(*source_revived, "source must be revived from its final checkpoint");
            match error {
                StreamError::Storage { source, .. } => {
                    assert!(source.is_transient(), "exhausted retries surface transient: {source}")
                }
                other => panic!("expected a storage failure, got {other}"),
            }
        }
        MigrationError::Source(e) => panic!("failure must be destination-side, got source: {e}"),
    }

    // The destination's half-attached slot was rolled back; the source is
    // live again and finishes bit-identical — the failed migration was
    // invisible to the stream.
    assert!(dest.is_retired(0), "destination slot is freed");
    assert!(!source.is_retired(0), "source stream is re-attached");
    for f in cut..frames {
        push(&mut source, 0, &data, f);
    }
    source.finish_all();
    assert_eq!(
        result_of(&source, 0),
        reference,
        "revived source must be bit-identical to checkpoint-and-continue"
    );
}

#[test]
fn attach_plus_restore_fetches_each_record_of_the_generation_exactly_once() {
    let frames = 6;
    let workers = 2;
    let policy = StreamPolicy::map_overlapped(1, 1);
    let data = dataset(SceneId::Desk2, frames);
    // Three generations committed, one kept: GC leaves exactly the records
    // the newest generation references (its chain, aux and manifest).
    let config =
        CheckpointConfig { retry_backoff_ms: 0, keep_manifests: 1, ..CheckpointConfig::default() };

    let backing = MemoryStore::new();
    let mut server = MultiStreamServer::new(one_stream_config(policy, workers));
    server.attach_store(0, Box::new(backing.clone()), config.clone()).unwrap();
    for f in 0..frames {
        push(&mut server, 0, &data, f);
        if f % 2 == 1 {
            server.checkpoint_stream(0).expect("checkpoint commits");
        }
    }
    let committed = result_of(&server, 0);
    drop(server);

    let mut server = MultiStreamServer::new(one_stream_config(policy, workers));
    server.attach_store(0, Box::new(backing.clone()), config).unwrap();
    server.restore_stream(0).expect("restore");
    assert_eq!(result_of(&server, 0), committed, "restore loads the committed stream state");

    // Each base, delta and aux record once; the manifest at attach and
    // again at restore.
    let keys = backing.keys("s0/").unwrap();
    let chain = keys.iter().filter(|k| k.contains("/base/") || k.contains("/delta/")).count();
    assert!(chain > 1, "the restored chain must hold deltas, keys: {keys:?}");
    assert_eq!(keys.len(), chain + 2, "one aux, one manifest, keys: {keys:?}");
    let manifest = backing.get(keys.last().unwrap()).unwrap().unwrap();
    let stats = server.store_stats(0).expect("store attached");
    assert_eq!(stats.read_records, keys.len() as u64 + 1);
    assert_eq!(stats.read_bytes, backing.total_bytes() + manifest.len() as u64);
}
