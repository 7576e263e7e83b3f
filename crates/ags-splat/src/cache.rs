//! Epoch-delta projection cache.
//!
//! Projection (step ①) runs once per training iteration, and most of what it
//! computes was computed before. The cache keeps two layers, both refreshed
//! under one set of per-Gaussian change stamps:
//!
//! * **Terms** — what a projection needs of a Gaussian that no pose changes
//!   ([`SplatTerms`]: Σ3, peak opacity, largest scale), derived when a
//!   projection first asks for them and kept until the Gaussian's parameters
//!   change. Every pass projects from them, whatever the pose.
//! * **Pose slots** — during mapping the camera cycles through a handful of
//!   poses (current frame + key-frame window) while only a sparse subset of
//!   Gaussians moves per optimizer step, so a slot memoises per-splat
//!   outcomes keyed on the exact camera geometry and replays them for splats
//!   unchanged since the slot's last pass (LRU eviction).
//!
//! **Tracking takes no slot.** Under [`crate::backward::GradMode::Track`] the
//! pose is the variable being optimised: it never repeats, and a slot costs a
//! 64-byte `Option<Splat2d>` per Gaussian per new pose.
//! [`crate::train::train_pass`] therefore sends tracking passes through
//! [`ProjectionCache::project_unkeyed`], which uses the terms alone, and
//! everything else through [`ProjectionCache::project`].
//!
//! Whatever the path, a splat is projected by
//! [`crate::project::project_with_terms`] from terms that equal
//! `SplatTerms::of` its current parameters, which is exactly what
//! [`crate::project::project_gaussians`] does: the cached projection is
//! **bit-identical** to projecting from scratch; the cache only changes how
//! much work that takes. Debug builds check that contract on every pass:
//! each result is compared against projecting from scratch on the same inputs.
//!
//! Change tracking is epoch-based: a monotone counter stamps every pass,
//! [`ProjectionCache::mark_dirty`] records when a Gaussian last changed (and
//! drops its terms), and a slot refreshes exactly the splats whose change
//! stamp is at or after the slot's last pass. A prune hands its id remap to
//! [`ProjectionCache::remap`], which keeps terms and stamps under the new ids.
//!
//! The cache is transient: it is rebuilt cold after checkpoint restore
//! (projection results are derived state), which keeps durability formats
//! untouched while remaining result-identical.

use crate::compact::Remap;
use crate::gaussian::GaussianCloud;
#[cfg(any(test, debug_assertions))]
use crate::project::project_gaussians;
use crate::project::{project_cloud, project_with_terms, Projection, Splat2d, SplatTerms};
use ags_math::Se3;
use ags_scene::PinholeCamera;

/// Exact-geometry key of a cache slot: pose quaternion + translation and
/// camera intrinsics, compared bit-for-bit (any difference — even one ulp —
/// must miss, since projection is exact-arithmetic state).
type PoseKey = [u32; 13];

fn pose_key(camera: &PinholeCamera, pose: &Se3) -> PoseKey {
    [
        pose.rotation.w.to_bits(),
        pose.rotation.x.to_bits(),
        pose.rotation.y.to_bits(),
        pose.rotation.z.to_bits(),
        pose.translation.x.to_bits(),
        pose.translation.y.to_bits(),
        pose.translation.z.to_bits(),
        camera.fx.to_bits(),
        camera.fy.to_bits(),
        camera.cx.to_bits(),
        camera.cy.to_bits(),
        camera.width as u32,
        camera.height as u32,
    ]
}

/// One cached projection pass for a specific pose/camera.
struct CacheSlot {
    key: PoseKey,
    /// Epoch of the pass that last refreshed this slot (0 = never).
    stamp: u64,
    /// Epoch of the last use, for LRU eviction.
    last_used: u64,
    /// Per-Gaussian projection outcome (`None` = culled), indexed by id.
    cached: Vec<Option<Splat2d>>,
}

/// Memoises projection work across training iterations.
///
/// See the module docs for the two layers and the invalidation protocol.
/// Typical use:
///
/// * hand the cache to [`crate::train::train_pass`], or call
///   [`ProjectionCache::project`] instead of
///   [`crate::project::project_gaussians`];
/// * after an optimizer step, call [`ProjectionCache::mark_dirty`] for every
///   Gaussian whose parameters changed (appended Gaussians are tracked
///   automatically by length growth);
/// * call [`ProjectionCache::remap`] after a prune.
pub struct ProjectionCache {
    /// Monotone epoch counter, advanced once per pass.
    counter: u64,
    /// Per-Gaussian epoch of the last parameter change.
    changed_at: Vec<u64>,
    /// Per-Gaussian terms; `None` until a projection needs them and again
    /// once the Gaussian changes (36 bytes each).
    terms: Vec<Option<SplatTerms>>,
    slots: Vec<CacheSlot>,
    /// Maximum pose slots kept (mapping window + current frame headroom).
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl ProjectionCache {
    /// Creates a cache holding at most `capacity` pose slots (at least one).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            counter: 0,
            changed_at: Vec::new(),
            terms: Vec::new(),
            slots: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Marks Gaussian `id` dirty: its terms are re-derived and its cached
    /// projection (under every pose) refreshed on next use. Ids at or beyond
    /// the tracked length are ignored — growth is detected by length instead.
    pub fn mark_dirty(&mut self, id: usize) {
        if let Some(changed) = self.changed_at.get_mut(id) {
            *changed = self.counter;
            self.terms[id] = None;
        }
    }

    /// Follows a prune: surviving Gaussians keep their terms and change
    /// stamps under their new ids (the way [`crate::optim::Adam::remap`]
    /// keeps moments), so the next pass derives nothing it already had. Pose
    /// slots restart cold.
    pub fn remap(&mut self, remap: &Remap) {
        self.slots.clear();
        self.changed_at = remap.gather(&self.changed_at);
        self.terms = remap.gather(&self.terms);
    }

    /// Drops everything indexed by id; counters are kept.
    fn invalidate_all(&mut self) {
        self.slots.clear();
        self.changed_at.clear();
        self.terms.clear();
    }

    /// `(hits, misses)` — cumulative per-splat pose-slot outcomes. Terms and
    /// [`project_unkeyed`](Self::project_unkeyed) passes are not counted.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Opens a pass over a cloud of `n` Gaussians and returns its epoch.
    fn begin_pass(&mut self, n: usize) -> u64 {
        // A shrink nobody remapped means ids moved — nothing indexed by id
        // is valid.
        if n < self.changed_at.len() {
            self.invalidate_all();
        }
        // Appended Gaussians are stamped with the last completed pass's
        // epoch — like any mutation since that pass — so this pass projects
        // them and later passes reuse the result.
        self.changed_at.resize(n, self.counter);
        self.terms.resize(n, None);
        self.counter += 1;
        self.counter
    }

    /// Projects the cloud, reusing the pose's cached per-splat results where
    /// valid and the kept terms elsewhere. Bit-identical to
    /// [`crate::project::project_gaussians`] on the same inputs.
    pub fn project(
        &mut self,
        cloud: &GaussianCloud,
        camera: &PinholeCamera,
        pose: &Se3,
    ) -> Projection {
        let n = cloud.len();
        let stamp_now = self.begin_pass(n);

        let key = pose_key(camera, pose);
        let slot_idx = match self.slots.iter().position(|s| s.key == key) {
            Some(i) => i,
            None => {
                if self.slots.len() >= self.capacity {
                    // Evict the least recently used pose slot.
                    let lru = self
                        .slots
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    self.slots.swap_remove(lru);
                }
                self.slots.push(CacheSlot { key, stamp: 0, last_used: 0, cached: Vec::new() });
                self.slots.len() - 1
            }
        };

        let world_to_cam = pose.inverse();
        let rot_wc = world_to_cam.rotation_matrix();
        let slot = &mut self.slots[slot_idx];
        slot.cached.resize(n, None);

        let mut splats = Vec::with_capacity(n);
        let mut culled = 0usize;
        for (id, g) in cloud.gaussians().iter().enumerate() {
            // Stale iff the Gaussian changed at or after the slot's last
            // pass (a pass at epoch E sees parameters as of E; a change
            // stamped E may have happened after that pass within the same
            // epoch window, so >= keeps the test conservative).
            let stale = slot.stamp == 0 || self.changed_at[id] >= slot.stamp;
            if stale {
                self.misses += 1;
                let terms = &mut self.terms[id];
                let terms = || *terms.get_or_insert_with(|| SplatTerms::of(g));
                slot.cached[id] =
                    project_with_terms(g, terms, id as u32, camera, &world_to_cam, &rot_wc);
            } else {
                self.hits += 1;
            }
            match slot.cached[id] {
                Some(splat) => splats.push(splat),
                None => culled += 1,
            }
        }
        slot.stamp = stamp_now;
        slot.last_used = stamp_now;

        let projection = Projection { splats, culled, world_to_cam };
        #[cfg(debug_assertions)]
        assert_projection_eq(&project_gaussians(cloud, camera, pose), &projection);
        projection
    }

    /// [`project`](Self::project) for a pose that will not come back: every
    /// splat is projected from its kept terms and no pose slot is taken or
    /// consulted (the tracking rule of the module docs).
    pub fn project_unkeyed(
        &mut self,
        cloud: &GaussianCloud,
        camera: &PinholeCamera,
        pose: &Se3,
    ) -> Projection {
        self.begin_pass(cloud.len());
        let terms = &mut self.terms;
        let projection = project_cloud(cloud, camera, pose, |id, g| {
            *terms[id].get_or_insert_with(|| SplatTerms::of(g))
        });
        #[cfg(debug_assertions)]
        assert_projection_eq(&project_gaussians(cloud, camera, pose), &projection);
        projection
    }
}

/// Panics unless `got` equals the from-scratch projection `expect` exactly:
/// the same culled count and the same splats, field for field, in order.
#[cfg(any(test, debug_assertions))]
#[track_caller]
fn assert_projection_eq(expect: &Projection, got: &Projection) {
    assert_eq!(expect.culled, got.culled, "cached projection culled a different count");
    assert_eq!(expect.splats.len(), got.splats.len());
    for (e, g) in expect.splats.iter().zip(&got.splats) {
        assert_eq!(e, g, "cached projection differs from projecting from scratch");
    }
}

impl std::fmt::Debug for ProjectionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProjectionCache")
            .field("slots", &self.slots.len())
            .field("tracked", &self.changed_at.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian;
    use ags_math::{Pcg32, Vec3};

    fn random_cloud(rng: &mut Pcg32, n: usize) -> GaussianCloud {
        let mut cloud = GaussianCloud::new();
        for _ in 0..n {
            cloud.push(random_gaussian(rng));
        }
        cloud
    }

    fn random_gaussian(rng: &mut Pcg32) -> Gaussian {
        Gaussian::isotropic(
            Vec3::new(rng.range_f32(-1.5, 1.5), rng.range_f32(-1.5, 1.5), rng.range_f32(-0.5, 5.0)),
            rng.range_f32(0.02, 0.4),
            Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            rng.range_f32(0.05, 0.99),
        )
    }

    #[test]
    fn cached_projection_matches_fresh_projection() {
        let mut rng = Pcg32::seeded(11);
        let cloud = random_cloud(&mut rng, 200);
        let cam = PinholeCamera::from_fov(64, 48, 1.2);
        let pose = Se3::IDENTITY;
        let mut cache = ProjectionCache::with_capacity(4);

        let first = cache.project(&cloud, &cam, &pose);
        assert_projection_eq(&project_gaussians(&cloud, &cam, &pose), &first);
        let (h0, m0) = cache.stats();
        assert_eq!(h0, 0, "first pass is all misses");
        assert_eq!(m0, cloud.len() as u64);

        // Second pass with nothing dirty: all hits, identical output.
        let second = cache.project(&cloud, &cam, &pose);
        assert_projection_eq(&first, &second);
        let (h1, m1) = cache.stats();
        assert_eq!(h1, cloud.len() as u64);
        assert_eq!(m1, m0);
    }

    /// Randomised mutation walk: mutate random subsets, append, cycle poses,
    /// occasionally invalidate — cached output must equal a fresh projection
    /// exactly at every step.
    #[test]
    fn cache_is_exact_under_random_mutation() {
        let mut rng = Pcg32::seeded(23);
        let mut cloud = random_cloud(&mut rng, 120);
        let cam = PinholeCamera::from_fov(61, 45, 1.2);
        let poses = [
            Se3::IDENTITY,
            Se3::from_translation(Vec3::new(0.1, 0.0, 0.0)),
            Se3::from_translation(Vec3::new(0.0, -0.05, 0.02)),
        ];
        let mut cache = ProjectionCache::with_capacity(poses.len() + 1);

        for step in 0..60 {
            // Mutate a random subset and mark it dirty.
            let n_mut = (rng.next_u32() % 10) as usize;
            for _ in 0..n_mut {
                let id = (rng.next_u32() as usize) % cloud.len();
                let g = &mut cloud.gaussians_mut()[id];
                g.position.x += rng.range_f32(-0.1, 0.1);
                g.opacity_logit += rng.range_f32(-0.2, 0.2);
                cache.mark_dirty(id);
            }
            // Occasionally append (tracked by growth, no mark needed).
            if step % 7 == 3 {
                cloud.push(random_gaussian(&mut rng));
            }
            // Occasionally blow the whole cache away (remap stand-in).
            if step % 17 == 11 {
                cache.invalidate_all();
            }
            let pose = &poses[step % poses.len()];
            let got = cache.project(&cloud, &cam, pose);
            let expect = project_gaussians(&cloud, &cam, pose);
            assert_projection_eq(&expect, &got);
        }
        let (hits, misses) = cache.stats();
        assert!(hits > 0, "cycling poses with sparse mutations must produce hits");
        assert!(misses > 0);
    }

    /// An un-marked mutation is the caller's bug; this test documents that
    /// `mark_dirty` *is* the contract by showing a marked mutation refreshes
    /// while pose changes alone never reuse stale geometry.
    #[test]
    fn dirty_marking_refreshes_and_pose_changes_miss() {
        let mut rng = Pcg32::seeded(5);
        let mut cloud = random_cloud(&mut rng, 50);
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let mut cache = ProjectionCache::with_capacity(2);

        cache.project(&cloud, &cam, &Se3::IDENTITY);
        cloud.gaussians_mut()[7].position = Vec3::new(0.3, 0.2, 2.0);
        cache.mark_dirty(7);
        let got = cache.project(&cloud, &cam, &Se3::IDENTITY);
        assert_projection_eq(&project_gaussians(&cloud, &cam, &Se3::IDENTITY), &got);

        // A new pose key starts cold (all misses) — no stale reuse across
        // poses.
        let (_, m_before) = cache.stats();
        let pose = Se3::from_translation(Vec3::new(0.2, 0.0, 0.0));
        let got = cache.project(&cloud, &cam, &pose);
        assert_projection_eq(&project_gaussians(&cloud, &cam, &pose), &got);
        let (_, m_after) = cache.stats();
        assert_eq!(m_after - m_before, cloud.len() as u64);
    }

    /// The life of a map — Adam steps, densify growth, cold chunks snapping
    /// onto their grid, a prune with its remap — seen through a cache that
    /// cycles pose slots and one that follows a pose which never repeats.
    #[test]
    fn cache_is_exact_across_adam_growth_snaps_and_prunes() {
        use crate::backward::GradBuffers;
        use crate::compact::{prune_cloud, quantize_chunk_in_place, QUANT_CHUNK};
        use crate::optim::Adam;

        let mut rng = Pcg32::seeded(41);
        let mut cloud = random_cloud(&mut rng, 4 * QUANT_CHUNK);
        let cam = PinholeCamera::from_fov(61, 45, 1.2);
        let poses = [
            Se3::IDENTITY,
            Se3::from_translation(Vec3::new(0.1, 0.0, 0.0)),
            Se3::from_translation(Vec3::new(0.0, -0.05, 0.02)),
        ];
        let mut keyed = ProjectionCache::with_capacity(poses.len());
        let mut unkeyed = ProjectionCache::with_capacity(1);
        let mut adam = Adam::default();
        for step in 0..60 {
            match step % 6 {
                0 | 3 => {
                    let mut grads = GradBuffers::zeros(cloud.len());
                    for _ in 0..12 {
                        let id = rng.next_u32() as usize % cloud.len();
                        grads.touched[id] = true;
                        grads.position[id] = Vec3::new(rng.next_f32(), rng.next_f32(), 0.1);
                        grads.log_scale[id] = Vec3::splat(rng.range_f32(-1.0, 1.0));
                        grads.rotation[id] = [0.1, rng.next_f32(), -0.2, 0.3];
                        grads.opacity_logit[id] = rng.range_f32(-1.0, 1.0);
                    }
                    adam.step(&mut cloud, &grads);
                    for (id, _) in grads.touched.iter().enumerate().filter(|(_, &t)| t) {
                        keyed.mark_dirty(id);
                        unkeyed.mark_dirty(id);
                    }
                }
                1 => cloud.extend((0..9).map(|_| random_gaussian(&mut rng))),
                2 => {
                    let chunk = rng.next_u32() as usize % (cloud.len() / QUANT_CHUNK);
                    let ids = chunk * QUANT_CHUNK..(chunk + 1) * QUANT_CHUNK;
                    assert!(quantize_chunk_in_place(&mut cloud.gaussians_mut()[ids.clone()]));
                    for id in ids {
                        keyed.mark_dirty(id);
                        unkeyed.mark_dirty(id);
                    }
                }
                4 => {
                    let kept_terms = |cache: &ProjectionCache, keep: &dyn Fn(usize) -> bool| {
                        let kept = cache.terms.iter().enumerate();
                        kept.filter(|(id, terms)| keep(*id) && terms.is_some()).count()
                    };
                    let keep = |id: usize| id % 7 != step % 7;
                    let expect = (kept_terms(&keyed, &keep), kept_terms(&unkeyed, &keep));
                    let remap = prune_cloud(&mut cloud, |id, _| keep(id));
                    assert!(!remap.is_identity());
                    adam.remap(&remap);
                    keyed.remap(&remap);
                    unkeyed.remap(&remap);
                    // Survivors' terms came along: nothing to re-derive.
                    let all = |_| true;
                    assert_eq!((kept_terms(&keyed, &all), kept_terms(&unkeyed, &all)), expect);
                    assert!(expect.0 > 0 && expect.1 > 0);
                }
                _ => {}
            }
            let pose = &poses[step % poses.len()];
            let got = keyed.project(&cloud, &cam, pose);
            assert_projection_eq(&project_gaussians(&cloud, &cam, pose), &got);
            let moving = Se3::from_translation(Vec3::new(0.004 * step as f32, 0.01, -0.002));
            let expect = project_gaussians(&cloud, &cam, &moving);
            assert_projection_eq(&expect, &unkeyed.project_unkeyed(&cloud, &cam, &moving));
            // Both paths may share one cache; the unkeyed one leaves no slot.
            assert_projection_eq(&expect, &keyed.project_unkeyed(&cloud, &cam, &moving));
            assert!(keyed.slots.len() <= poses.len());
        }
        let (hits, misses) = keyed.stats();
        assert!(hits > 0 && misses > 0);
        assert_eq!(unkeyed.stats(), (0, 0), "only pose-slot outcomes are counted");
        assert!(unkeyed.slots.is_empty());
    }

    #[test]
    fn shrink_invalidates_and_lru_evicts() {
        let mut rng = Pcg32::seeded(9);
        let mut cloud = random_cloud(&mut rng, 40);
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let mut cache = ProjectionCache::with_capacity(2);

        cache.project(&cloud, &cam, &Se3::IDENTITY);
        // Shrinking the cloud (prune without remap bookkeeping) must not
        // reuse anything.
        cloud.retain(|id, _| id < 30);
        let (_, m_before) = cache.stats();
        let got = cache.project(&cloud, &cam, &Se3::IDENTITY);
        assert_projection_eq(&project_gaussians(&cloud, &cam, &Se3::IDENTITY), &got);
        let (_, m_after) = cache.stats();
        assert_eq!(m_after - m_before, cloud.len() as u64, "shrink must recompute everything");

        // Three distinct poses through a 2-slot cache: eviction, still exact.
        for i in 0..3 {
            let pose = Se3::from_translation(Vec3::new(i as f32 * 0.1, 0.0, 0.0));
            let got = cache.project(&cloud, &cam, &pose);
            assert_projection_eq(&project_gaussians(&cloud, &cam, &pose), &got);
        }
    }
}
