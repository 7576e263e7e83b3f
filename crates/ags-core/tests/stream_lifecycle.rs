//! Stream lifecycle and overload control.
//!
//! The contract: streams attach and detach dynamically without leaking
//! shared-pool state; an overloaded stream degrades through a
//! **deterministic** shed ladder (recorded in its canonical trace, so the
//! schedule replays bit-identically across worker counts) and returns to
//! full service once pressure clears; the watchdog flags stuck stages; and
//! checkpoint policies drive automatic commits — including under injected
//! storage faults — so a detached stream can be revived bit-identical to
//! one that never left.

use ags_core::{
    AgsConfig, AgsSlam, CheckpointPolicy, MultiStreamServer, QosConfig, ServerConfig, ShedLevel,
    StreamError, StreamPolicy,
};
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use ags_store::{CheckpointConfig, FaultPlan, FaultStore, MemoryStore};
use std::sync::Arc;

fn dataset(scene: SceneId, frames: usize) -> Dataset {
    // 32×24: small enough that real stage times sit an order of magnitude
    // under the injected-stall budgets the QoS tests classify against.
    let dconfig =
        DatasetConfig { width: 32, height: 24, num_frames: frames * 4, ..DatasetConfig::tiny() };
    let mut data = Dataset::generate(scene, &dconfig);
    data.truncate(frames);
    data
}

/// Everything semantic a stream produces.
type StreamResult = (Vec<ags_math::Se3>, Vec<ags_splat::Gaussian>, Vec<u8>);

/// Base config with kernels pinned to the shared pool (small-work fallback
/// disabled), as in the multi-stream suite.
fn pooled_base() -> AgsConfig {
    let mut base = AgsConfig::tiny();
    base.parallelism = ags_math::Parallelism::with_threads(4).min_items(0);
    base
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

/// The solo serial reference for one stream.
fn solo_reference(policy: StreamPolicy, data: &Dataset) -> StreamResult {
    let mut config = AgsConfig::tiny();
    config.pipeline = policy.pipeline;
    config.parallelism = ags_math::Parallelism::serial();
    let mut slam = AgsSlam::new(config);
    for frame in &data.frames {
        slam.process_frame(&data.camera, &frame.rgb, &frame.depth);
    }
    (slam.trajectory().to_vec(), slam.cloud().gaussians().to_vec(), slam.trace().canonical_bytes())
}

/// A QoS config whose pressure signal is the *injected* map stall — budgets
/// sit far from real stage times on both sides (32×24 stages run a few tens
/// of ms at worst; the injected stall is 400 ms against a 200 ms budget),
/// so the pressured/quiet classification is identical on any machine and at
/// any pool width. The stall budget is effectively infinite: these tests
/// drive shedding through the stage watchdog alone, because snapshot-wait
/// time genuinely varies with scheduling.
fn stress_qos(max_level: ShedLevel) -> QosConfig {
    QosConfig {
        stall_budget_s: 1e9,
        stage_budget_s: 0.2,
        window: 2,
        escalate_at: 2,
        decay_after: 2,
        max_level,
    }
}

/// The overload subject: a map-overlapped stream whose map stage stalls
/// 400 ms on the first `stalled_frames` frames — far over the 200 ms
/// watchdog budget — then runs free.
fn stressed_policy(stalled_frames: u64, max_level: ShedLevel) -> StreamPolicy {
    let mut policy = StreamPolicy::map_overlapped(1, 1).with_qos(stress_qos(max_level));
    policy.pipeline.stress_map_stall_ms = 400;
    policy.pipeline.stress_map_stall_frames = stalled_frames;
    policy
}

#[test]
fn overload_shed_schedule_is_deterministic_across_worker_counts() {
    // Stream 1 is deliberately overloaded for its first 8 frames; the QoS
    // controller must escalate Full → ForceSerial → DropNonKey, hold while
    // the pressure lasts, and decay back to Full — and the *same* shed
    // schedule (stamped into the canonical trace) must emerge at 1, 2 and
    // 8 pool workers, with the innocent neighbour bit-identical to its
    // solo reference throughout.
    let frames = 24;
    let neighbour_data = dataset(SceneId::Desk2, frames);
    let shed_data = dataset(SceneId::Xyz, frames);
    let neighbour_ref = solo_reference(StreamPolicy::serial(), &neighbour_data);

    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let config = ServerConfig {
            streams: 2,
            base: AgsConfig::tiny(),
            per_stream: vec![StreamPolicy::serial(), stressed_policy(8, ShedLevel::DropNonKey)],
            pool_workers: Some(workers),
        };
        let mut server = MultiStreamServer::new(config);
        for f in 0..frames {
            push(&mut server, 0, &neighbour_data, f);
            push(&mut server, 1, &shed_data, f);
        }
        server.finish_all();

        assert_eq!(
            result_of(&server, 0),
            neighbour_ref,
            "neighbour must stay bit-identical to solo at {workers} workers"
        );
        let shed = server.stream(1).expect("stream 1 live");
        let schedule: Vec<(u8, bool)> =
            shed.trace().frames.iter().map(|f| (f.shed_level, f.dropped)).collect();
        assert!(
            schedule.iter().any(|&(level, _)| level == ShedLevel::DropNonKey as u8),
            "the overloaded stream must reach DropNonKey at {workers} workers"
        );
        assert!(
            schedule.iter().any(|&(_, dropped)| dropped),
            "some non-key frames must actually be dropped at {workers} workers"
        );
        assert_eq!(
            schedule.last().copied(),
            Some((ShedLevel::Full as u8, false)),
            "the stream must return to full service once pressure clears"
        );
        assert_eq!(server.shed_level(1), Some(ShedLevel::Full));
        let stats = server.stats().per_stream[1];
        assert!(stats.sheds >= 2, "two ladder escalations were exercised");
        assert!(stats.watchdog_flags >= 2, "stalled map stages must trip the watchdog");
        runs.push((schedule, result_of(&server, 1).2));
    }
    let (first_schedule, first_bytes) = &runs[0];
    for (schedule, bytes) in &runs[1..] {
        assert_eq!(schedule, first_schedule, "shed schedule must not depend on pool width");
        assert_eq!(bytes, first_bytes, "canonical trace must not depend on pool width");
    }
}

#[test]
fn attach_detach_churn_reclaims_lanes_and_ids_stay_retired() {
    // 100 attach → push → detach cycles against a live neighbour: pool
    // fairness lanes must be reclaimed (not accumulate per retired tag),
    // retired ids must stay dead, and the aggregate completed-frame count
    // must be monotonic — every churned frame still counted.
    let frames = 5;
    let persistent_data = dataset(SceneId::Desk2, frames);
    let churn_data = dataset(SceneId::Xyz, 1);
    let config = ServerConfig {
        streams: 1,
        base: pooled_base(),
        per_stream: vec![StreamPolicy::serial()],
        pool_workers: Some(2),
    };
    let mut server = MultiStreamServer::new(config);
    for f in 0..frames {
        push(&mut server, 0, &persistent_data, f);
    }

    let cycles = 100;
    for _ in 0..cycles {
        let id = server.attach_stream(StreamPolicy::serial());
        push(&mut server, id, &churn_data, 0);
        let drained = server.detach_stream(id, false).expect("detach healthy stream");
        assert!(drained.is_empty(), "serial records were already returned by push");
        assert!(server.is_retired(id));
        assert!(matches!(
            server.push_frame(
                id,
                &churn_data.camera,
                Arc::new(churn_data.frames[0].rgb.clone()),
                Arc::new(churn_data.frames[0].depth.clone()),
            ),
            Err(StreamError::Detached(_))
        ));
        assert!(matches!(server.detach_stream(id, false), Err(StreamError::Detached(_))));
    }

    // The pool's lane table must not have grown one entry per retired tag.
    // (Lanes are also cleared wholesale whenever the queue idles; the bound
    // here is deliberately loose — the failure mode is ~100 leaked lanes.)
    assert!(
        server.pool().lane_count() <= 2,
        "retired streams leaked fairness lanes: {}",
        server.pool().lane_count()
    );

    let stats = server.stats();
    assert_eq!(stats.per_stream.len(), 1 + cycles);
    assert_eq!(stats.retired_streams(), cycles);
    assert_eq!(
        stats.completed_frames(),
        frames + cycles,
        "detached streams' frames must stay in the aggregate"
    );

    // A fresh stream attached after all that churn is a first-class
    // citizen: bit-identical to its solo reference.
    let fresh_data = dataset(SceneId::Room0, frames);
    let fresh = server.attach_stream(StreamPolicy::serial());
    assert_eq!(fresh, 1 + cycles, "ids are never reused");
    for f in 0..frames {
        push(&mut server, fresh, &fresh_data, f);
    }
    server.finish_stream(fresh).expect("drain fresh stream");
    assert_eq!(
        result_of(&server, fresh),
        solo_reference(StreamPolicy::serial(), &fresh_data),
        "a post-churn stream must be bit-identical to solo"
    );
}

#[test]
fn watchdog_flags_stuck_stages_without_shedding() {
    // `max_level: Full` turns the QoS controller into a pure monitor: the
    // watchdog must count every over-budget map stage while the ladder
    // never moves and the trace stays clean.
    let frames = 8;
    let data = dataset(SceneId::Desk, frames);
    let mut policy = StreamPolicy::serial().with_qos(QosConfig {
        stall_budget_s: 1e9,
        stage_budget_s: 0.005,
        window: 4,
        escalate_at: 1,
        decay_after: 2,
        max_level: ShedLevel::Full,
    });
    policy.pipeline.stress_map_stall_ms = 15;
    let config = ServerConfig {
        streams: 1,
        base: pooled_base(),
        per_stream: vec![policy],
        pool_workers: Some(2),
    };
    let mut server = MultiStreamServer::new(config);
    for f in 0..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();

    let stats = server.stats().per_stream[0];
    assert_eq!(stats.watchdog_flags, frames as u64, "every stalled map stage must be flagged");
    assert_eq!(stats.sheds, 0, "a Full-capped ladder must never escalate");
    assert_eq!(stats.shed_level, ShedLevel::Full);
    let trace = server.stream(0).expect("live").trace();
    assert!(trace.frames.iter().all(|f| f.shed_level == 0 && !f.dropped));
}

#[test]
fn reject_admission_is_non_sticky_and_recovers() {
    // Drive the ladder all the way to RejectAdmission, then keep pushing:
    // rejections must surface as `Overloaded` (not poison), count toward
    // the controller's probation, and eventually re-admit frames.
    let frames = 40;
    let data = dataset(SceneId::Desk, frames);
    let mut policy = StreamPolicy::serial().with_qos(QosConfig {
        stall_budget_s: 1e9,
        stage_budget_s: 0.005,
        window: 1,
        escalate_at: 1,
        decay_after: 4,
        max_level: ShedLevel::RejectAdmission,
    });
    // Every admitted frame stalls 20 ms — permanently over budget.
    policy.pipeline.stress_map_stall_ms = 20;
    // Force every frame to be a key frame: at DropNonKey nothing can be
    // dropped, so the ladder cannot stall short of RejectAdmission on
    // dropped frames' quiet (zero-cost) windows.
    let mut base = AgsConfig::tiny();
    base.thresh_m = 1.5;
    let config = ServerConfig { streams: 1, base, per_stream: vec![policy], pool_workers: Some(2) };
    let mut server = MultiStreamServer::new(config);
    let mut rejected = 0usize;
    let mut admitted_after_first_rejection = 0usize;
    for f in 0..frames {
        let outcome = server.push_frame(
            0,
            &data.camera,
            Arc::new(data.frames[f].rgb.clone()),
            Arc::new(data.frames[f].depth.clone()),
        );
        match outcome {
            Ok(_) => {
                if rejected > 0 {
                    admitted_after_first_rejection += 1;
                }
            }
            Err(StreamError::Overloaded { stream }) => {
                assert_eq!(stream, 0);
                rejected += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    server.finish_all();

    assert!(rejected > 0, "sustained pressure must reach admission rejection");
    assert!(
        admitted_after_first_rejection > 0,
        "rejection must not be sticky: probation re-admits frames"
    );
    let stats = server.stats().per_stream[0];
    assert_eq!(stats.rejected, rejected as u64);
    assert!(!stats.poisoned);
    assert_eq!(stats.pushed + rejected, frames, "every frame either admitted or rejected");
}

#[test]
fn detached_stream_restores_bit_identical_to_checkpoint_and_continue() {
    // detach(final_checkpoint) → fresh server → restore must equal
    // checkpoint-and-keep-going on the original server, *for a stream that
    // is mid-shed at the cut*: the QoS ladder state, the dropped-frame
    // schedule and the map must all survive the round trip bit-identically.
    let frames = 24;
    let cut = 12;
    let data = dataset(SceneId::Xyz, frames);
    let policy = stressed_policy(8, ShedLevel::DropNonKey);
    let server_config = || ServerConfig {
        streams: 1,
        base: AgsConfig::tiny(),
        per_stream: vec![policy],
        pool_workers: Some(2),
    };

    // Reference: same quiesce point, no detach.
    let reference = {
        let backing = MemoryStore::new();
        let mut server = MultiStreamServer::new(server_config());
        server.attach_store(0, Box::new(backing), fast_store_config()).expect("attach store");
        for f in 0..cut {
            push(&mut server, 0, &data, f);
        }
        server.checkpoint_stream(0).expect("mid-run checkpoint");
        for f in cut..frames {
            push(&mut server, 0, &data, f);
        }
        server.finish_all();
        result_of(&server, 0)
    };

    // Subject: detach with a final checkpoint, revive in a fresh server.
    let backing = MemoryStore::new();
    {
        let mut server = MultiStreamServer::new(server_config());
        server
            .attach_store(0, Box::new(backing.clone()), fast_store_config())
            .expect("attach store");
        for f in 0..cut {
            push(&mut server, 0, &data, f);
        }
        server.detach_stream(0, true).expect("detach with final checkpoint");
        assert!(server.is_retired(0));
    }
    let mut server = MultiStreamServer::new(server_config());
    server.attach_store(0, Box::new(backing), fast_store_config()).expect("re-attach store");
    server.restore_stream(0).expect("restore detached stream");
    assert!(!server.is_retired(0), "restore revives a detached stream");
    for f in cut..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();
    let restored = result_of(&server, 0);

    assert_eq!(restored, reference, "detach→restore must be invisible to the stream");
    // The cut really landed mid-shed: the first half of the schedule shows
    // ladder activity.
    let shed_before_cut =
        server.stream(0).expect("live").trace().frames.iter().take(cut).any(|f| f.shed_level > 0);
    assert!(shed_before_cut, "test must cut while the ladder is engaged");
}

#[test]
fn every_n_epochs_policy_commits_automatically() {
    let frames = 12;
    let data = dataset(SceneId::Desk, frames);
    let backing = MemoryStore::new();
    let policy = StreamPolicy::serial().with_checkpoint_policy(CheckpointPolicy::EveryNEpochs(4));
    let config = ServerConfig {
        streams: 1,
        base: pooled_base(),
        per_stream: vec![policy],
        pool_workers: Some(2),
    };
    let mut server = MultiStreamServer::new(config);
    server.attach_store(0, Box::new(backing.clone()), fast_store_config()).expect("attach");
    for f in 0..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();
    let stats = server.stats().per_stream[0];
    assert_eq!(stats.auto_checkpoints, (frames / 4) as u64, "one commit per 4 epochs");
    assert_eq!(stats.checkpoint_errors, 0);

    // The last automatic generation is restorable — no manual commit ever
    // happened.
    let mut fresh = MultiStreamServer::new(ServerConfig {
        streams: 1,
        base: pooled_base(),
        per_stream: vec![StreamPolicy::serial()],
        pool_workers: Some(2),
    });
    fresh.attach_store(0, Box::new(backing), fast_store_config()).expect("attach");
    fresh.restore_stream(0).expect("restore from automatic checkpoint");
    assert!(fresh.stream(0).expect("restored").trajectory().len() >= 4);
}

#[test]
fn on_shed_policy_commits_on_its_trigger() {
    // The stressed stream escalates at least once → at least one automatic
    // commit.
    let frames = 16;
    let data = dataset(SceneId::Xyz, frames);
    let policy =
        stressed_policy(8, ShedLevel::DropNonKey).with_checkpoint_policy(CheckpointPolicy::OnShed);
    let backing = MemoryStore::new();
    let mut server = MultiStreamServer::new(ServerConfig {
        streams: 1,
        base: AgsConfig::tiny(),
        per_stream: vec![policy],
        pool_workers: Some(2),
    });
    server.attach_store(0, Box::new(backing), fast_store_config()).expect("attach");
    for f in 0..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();
    let stats = server.stats().per_stream[0];
    assert!(stats.sheds >= 1, "the stressed stream must shed");
    assert!(
        stats.auto_checkpoints >= 1,
        "OnShed must checkpoint when the ladder moves (got {})",
        stats.auto_checkpoints
    );
    assert_eq!(stats.checkpoint_errors, 0);
}

#[test]
fn auto_checkpoints_survive_store_faults() {
    // Checkpoint-on-pressure against a store that fails one write of each
    // kind a commit makes: automatic commits must fail *quietly* (counted,
    // not poisoning), then succeed once the faults exhaust — and the
    // stream's SLAM output is never disturbed. Nothing is written between
    // commits, so the fault indices land on exactly these puts: the first
    // commit's base (0), the second's aux (2, after its base), the third's
    // manifest (5, after its delta and aux).
    let frames = 16;
    let data = dataset(SceneId::Desk, frames);
    let backing = MemoryStore::new();
    let flaky = FaultStore::new(backing.clone(), FaultPlan::none().fail_writes([0, 2, 5]));
    let counters = flaky.counters();
    let policy = StreamPolicy::serial().with_checkpoint_policy(CheckpointPolicy::EveryNEpochs(2));
    let store_config =
        CheckpointConfig { retry_attempts: 1, retry_backoff_ms: 0, ..CheckpointConfig::default() };
    let mut server = MultiStreamServer::new(ServerConfig {
        streams: 1,
        base: pooled_base(),
        per_stream: vec![policy],
        pool_workers: Some(2),
    });
    server.attach_store(0, Box::new(flaky), store_config.clone()).expect("attach");
    for f in 0..frames {
        push(&mut server, 0, &data, f);
    }
    server.finish_all();

    let stats = server.stats().per_stream[0];
    assert!(!stats.poisoned, "storage faults must never poison the stream");
    assert_eq!(stats.completed, frames, "every frame still processed");
    assert_eq!(stats.checkpoint_errors, 3, "one failed commit per injected fault");
    assert_eq!(stats.auto_checkpoints, 5, "every commit after the faults succeeds");
    // 1 + 2 + 3 puts by the failed commits, then delta + aux + manifest each.
    assert_eq!(counters.puts(), 6 + 5 * 3, "store traffic is a function of the stream");
    assert_eq!(
        result_of(&server, 0),
        solo_reference(StreamPolicy::serial(), &data),
        "a faulty store must not perturb SLAM output"
    );

    // The surviving generation restores.
    let mut fresh = MultiStreamServer::new(ServerConfig {
        streams: 1,
        base: pooled_base(),
        per_stream: vec![StreamPolicy::serial()],
        pool_workers: Some(2),
    });
    fresh.attach_store(0, Box::new(backing), store_config).expect("attach");
    fresh.restore_stream(0).expect("restore after faults cleared");
}

#[test]
fn failed_restore_leaves_the_stream_checkpointing() {
    // A restore that finds nothing to restore must leave the live stream —
    // pipeline and store — as it was: frames keep flowing, a later
    // checkpoint commits a generation, and a fresh server resumes from it
    // bit-identical to a stream that never stopped.
    let (frames, cut, handoff) = (8, 3, 6);
    let data = dataset(SceneId::Desk, frames);
    let backing = MemoryStore::new();
    let serial_server = || {
        MultiStreamServer::new(ServerConfig {
            streams: 1,
            base: pooled_base(),
            per_stream: vec![StreamPolicy::serial()],
            pool_workers: Some(2),
        })
    };
    let mut server = serial_server();
    server.attach_store(0, Box::new(backing.clone()), fast_store_config()).expect("attach");
    for f in 0..cut {
        push(&mut server, 0, &data, f);
    }
    // Nothing is committed yet, so a restore fails.
    assert!(matches!(server.restore_stream(0), Err(StreamError::Storage { .. })));
    for f in cut..handoff {
        push(&mut server, 0, &data, f);
    }
    server.checkpoint_stream(0).expect("checkpoint after the failed restore");

    let mut fresh = serial_server();
    fresh.attach_store(0, Box::new(backing), fast_store_config()).expect("attach");
    fresh.restore_stream(0).expect("restore the committed generation");
    for f in handoff..frames {
        push(&mut fresh, 0, &data, f);
    }
    fresh.finish_all();
    assert_eq!(result_of(&fresh, 0), solo_reference(StreamPolicy::serial(), &data));

    // The original stream is still healthy too, and its counters survive
    // detach as part of the final snapshot.
    for f in handoff..frames {
        push(&mut server, 0, &data, f);
    }
    server.detach_stream(0, true).expect("final checkpoint");
    let retired = server.stats().per_stream[0];
    assert!(retired.retired);
    assert_eq!(retired.completed, frames);
    assert_eq!(retired.auto_checkpoints, 0, "manual commits are not policy commits");
}
