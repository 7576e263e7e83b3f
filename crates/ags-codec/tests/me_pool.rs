//! Determinism of motion estimation on the shared worker pool: `estimate`
//! must be bit-identical to the serial reference on dedicated pools of any
//! size — including while two pipeline stages submit to the same executor
//! concurrently.

use ags_codec::{CodecConfig, LumaPlane, MotionEstimator, SearchKind};
use ags_math::{Parallelism, WorkerPool};
use std::sync::Arc;

fn textured_plane(w: usize, h: usize, shift: usize) -> LumaPlane {
    LumaPlane::from_fn(w, h, |x, y| {
        let xs = x + shift;
        (((xs * 13 + y * 7) ^ (xs * y / 3 + 5)) % 251) as u8
    })
}

fn window(w: usize, h: usize, pairs: usize) -> (LumaPlane, Vec<LumaPlane>) {
    let current = textured_plane(w, h, 0);
    let references = (0..pairs).map(|i| textured_plane(w, h, i + 1)).collect();
    (current, references)
}

fn estimator(search: SearchKind, parallelism: Parallelism) -> MotionEstimator {
    MotionEstimator::new(CodecConfig { search, parallelism, ..CodecConfig::default() })
}

#[test]
fn estimate_is_identical_on_dedicated_pools_of_any_size() {
    let (current, references) = window(96, 72, 5);
    let serial = estimator(SearchKind::Diamond, Parallelism::serial());
    let expect: Vec<_> = references.iter().map(|r| serial.estimate(&current, r)).collect();
    for workers in [0usize, 1, 3] {
        let pool = Arc::new(WorkerPool::new(workers));
        let par = Parallelism::with_threads(4).min_items(0).on_pool(pool);
        let est = estimator(SearchKind::Diamond, par);
        // Several submissions through the same persistent pool.
        for round in 0..3 {
            for (i, reference) in references.iter().enumerate() {
                assert_eq!(
                    expect[i],
                    est.estimate(&current, reference),
                    "{workers} workers, round {round}, pair {i}"
                );
            }
        }
    }
}

#[test]
fn concurrent_stage_submissions_stay_deterministic() {
    // Model the pipelined driver's contention: an "FC stage" thread runs a
    // frame's reference pairs while a "SLAM stage" thread runs single-pair
    // ME, both submitting to one shared executor. Every result must match
    // the serial reference computed up front.
    let pool = Arc::new(WorkerPool::new(2));
    let (current, references) = window(96, 72, 6);
    let serial = estimator(SearchKind::Diamond, Parallelism::serial());
    let expect: Vec<_> = references.iter().map(|r| serial.estimate(&current, r)).collect();

    std::thread::scope(|s| {
        let fc_pool = Arc::clone(&pool);
        let (fc_current, fc_refs, fc_expect) = (&current, &references, &expect);
        s.spawn(move || {
            // min_items(0): exercise the shared queue under contention on
            // frames the fallback would otherwise inline.
            let est = estimator(
                SearchKind::Diamond,
                Parallelism::with_threads(4).min_items(0).on_pool(fc_pool),
            );
            for round in 0..10 {
                for (i, reference) in fc_refs.iter().enumerate() {
                    assert_eq!(
                        fc_expect[i],
                        est.estimate(fc_current, reference),
                        "fc stage round {round}, pair {i}"
                    );
                }
            }
        });
        let slam_pool = Arc::clone(&pool);
        let (slam_current, slam_ref, slam_expect) = (&current, &references[0], &expect[0]);
        s.spawn(move || {
            let est = estimator(
                SearchKind::Diamond,
                Parallelism::with_threads(4).min_items(0).on_pool(slam_pool),
            );
            for round in 0..10 {
                assert_eq!(
                    *slam_expect,
                    est.estimate(slam_current, slam_ref),
                    "slam stage round {round}"
                );
            }
        });
    });
}
