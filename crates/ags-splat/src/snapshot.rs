//! Epoch-tagged copy-on-write views of the Gaussian map.
//!
//! The Track ‖ Map pipeline axis needs tracking to read a *consistent* map
//! while mapping mutates it on another thread. [`SharedCloud`] is the
//! writer-side handle the mapping stage owns: the Gaussian slab sits behind
//! an [`Arc`], mutation goes through [`SharedCloud::make_mut`]
//! (copy-on-write: in place while no snapshot is outstanding, one slab copy
//! otherwise), and [`SharedCloud::publish`] hands out an immutable
//! [`CloudSnapshot`] — an `Arc` clone plus an epoch id, **O(1) refcounts,
//! never a parameter copy**.
//!
//! Epochs count published map steps: epoch `0` is the initial empty map,
//! epoch `e > 0` is the state after the `e`-th mapping frame. The pipeline's
//! deterministic staleness contract — Track(N+1) reads the snapshot
//! published by Map(N−`map_slack`) — is expressed over these ids;
//! [`SnapshotWindow`] keeps the bounded history of the last `slack + 1`
//! epochs a driver's tracking advanced through — the window a checkpoint
//! captures so a restored run replays the same staleness schedule.

use crate::gaussian::GaussianCloud;
use std::collections::VecDeque;
use std::sync::Arc;

/// An immutable, epoch-tagged view of a [`GaussianCloud`].
///
/// Cloning is a refcount bump; the underlying Gaussian slab is shared with
/// the writer until the writer's next mutation diverges it (copy-on-write).
#[derive(Debug, Clone)]
pub struct CloudSnapshot {
    cloud: Arc<GaussianCloud>,
    epoch: u64,
}

impl CloudSnapshot {
    /// The empty map at epoch `0` — what tracking reads before the first
    /// mapping result is published.
    pub fn empty() -> Self {
        Self { cloud: Arc::new(GaussianCloud::new()), epoch: 0 }
    }

    /// Reassembles a snapshot from a cloud and an explicit epoch id — the
    /// checkpoint/restore path materializing a persisted epoch.
    pub fn from_parts(cloud: Arc<GaussianCloud>, epoch: u64) -> Self {
        Self { cloud, epoch }
    }

    /// The snapshotted map.
    #[inline]
    pub fn cloud(&self) -> &GaussianCloud {
        &self.cloud
    }

    /// The shared slab handle itself (a refcount bump, never a copy) — what
    /// the restore path seeds a fresh [`SharedCloud`] writer from.
    pub fn cloud_arc(&self) -> Arc<GaussianCloud> {
        Arc::clone(&self.cloud)
    }

    /// Number of published map steps this snapshot reflects.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether two snapshots share one Gaussian slab (no copy between them).
    pub fn shares_slab(&self, other: &CloudSnapshot) -> bool {
        Arc::ptr_eq(&self.cloud, &other.cloud)
    }
}

impl Default for CloudSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

/// Writer-side handle of the copy-on-write Gaussian map.
#[derive(Debug)]
pub struct SharedCloud {
    cloud: Arc<GaussianCloud>,
    epoch: u64,
}

impl SharedCloud {
    /// An empty map at epoch `0`.
    pub fn new() -> Self {
        Self { cloud: Arc::new(GaussianCloud::new()), epoch: 0 }
    }

    /// Rebuilds a writer handle at an arbitrary epoch — restoring a stream
    /// from a checkpoint. The slab is shared with the snapshot it came from
    /// until the first mutation diverges it (normal copy-on-write).
    pub fn from_parts(cloud: Arc<GaussianCloud>, epoch: u64) -> Self {
        Self { cloud, epoch }
    }

    /// An unpublished snapshot of the live map stamped with an explicit
    /// epoch id. The zero-slack drivers never publish (their epoch counter
    /// stays 0), so the checkpoint path stamps the frame count instead.
    pub fn snapshot_at(&self, epoch: u64) -> CloudSnapshot {
        CloudSnapshot { cloud: Arc::clone(&self.cloud), epoch }
    }

    /// Read access to the live map (the state mapping last left it in,
    /// whether or not it has been published yet).
    #[inline]
    pub fn read(&self) -> &GaussianCloud {
        &self.cloud
    }

    /// Mutable access for the mapping stage. While a snapshot of the current
    /// epoch is still held elsewhere this pays **one** slab copy
    /// (copy-on-write); with no outstanding readers it mutates in place.
    #[inline]
    pub fn make_mut(&mut self) -> &mut GaussianCloud {
        Arc::make_mut(&mut self.cloud)
    }

    /// Epochs published so far.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch the *next* [`publish`](Self::publish) will stamp — the id
    /// under which in-progress mapping results (e.g. stored key frames)
    /// become visible to tracking.
    #[inline]
    pub fn next_epoch(&self) -> u64 {
        self.epoch + 1
    }

    /// Publishes the current map state under the next epoch id. This is a
    /// refcount bump — never a parameter copy (asserted by the unit tests
    /// via slab pointer equality).
    pub fn publish(&mut self) -> CloudSnapshot {
        self.epoch += 1;
        CloudSnapshot { cloud: Arc::clone(&self.cloud), epoch: self.epoch }
    }

    /// An unpublished snapshot of the live map at the *current* epoch.
    /// Used by the serial driver with zero slack: tracking borrows the live
    /// map for the duration of one frame and drops the handle before mapping
    /// mutates again, so no copy-on-write is ever triggered.
    pub fn peek(&self) -> CloudSnapshot {
        CloudSnapshot { cloud: Arc::clone(&self.cloud), epoch: self.epoch }
    }
}

impl Default for SharedCloud {
    fn default() -> Self {
        Self::new()
    }
}

/// Bounded history of the snapshots tracking advanced through.
///
/// A driver pushes each epoch when tracking advances to it; the window keeps
/// the last `slack + 1` of them, newest last. [`SnapshotWindow::latest`] is
/// the snapshot tracking reads, and the older entries are what a checkpoint
/// must persist so a restored run can re-seed the same window.
#[derive(Debug)]
pub struct SnapshotWindow {
    slack: usize,
    window: VecDeque<CloudSnapshot>,
}

impl SnapshotWindow {
    /// A window holding the initial empty snapshot (epoch `0`).
    pub fn new(slack: usize) -> Self {
        let mut window = VecDeque::with_capacity(slack + 2);
        window.push_back(CloudSnapshot::empty());
        Self { slack, window }
    }

    /// Re-seeds a window from persisted snapshots (ascending by epoch),
    /// keeping at most the newest `slack + 1` — the restore path.
    ///
    /// # Panics
    ///
    /// Panics when `snapshots` is empty (the window invariant is that it is
    /// never empty).
    pub fn from_snapshots(slack: usize, snapshots: Vec<CloudSnapshot>) -> Self {
        assert!(!snapshots.is_empty(), "snapshot window cannot be restored empty");
        debug_assert!(
            snapshots.windows(2).all(|p| p[0].epoch() < p[1].epoch()),
            "restored snapshots must ascend in epoch"
        );
        let mut window = Self { slack, window: VecDeque::with_capacity(slack + 2) };
        for snap in snapshots {
            window.window.push_back(snap);
            while window.window.len() > slack + 1 {
                window.window.pop_front();
            }
        }
        window
    }

    /// Iterates the held snapshots oldest → newest — what a checkpoint
    /// persists so a restored run can replay the exact staleness state.
    pub fn snapshots(&self) -> impl Iterator<Item = &CloudSnapshot> {
        self.window.iter()
    }

    /// Records a freshly published snapshot, dropping history older than
    /// `slack` epochs.
    pub fn push(&mut self, snapshot: CloudSnapshot) {
        self.window.push_back(snapshot);
        while self.window.len() > self.slack + 1 {
            self.window.pop_front();
        }
    }

    /// The newest snapshot pushed (the initial empty map before any).
    pub fn latest(&self) -> &CloudSnapshot {
        self.window.back().expect("window never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian;
    use ags_math::Vec3;

    fn push_one(shared: &mut SharedCloud, i: f32) {
        shared.make_mut().push(Gaussian::isotropic(Vec3::splat(i), 0.1, Vec3::ONE, 0.5));
    }

    #[test]
    fn publish_is_refcount_only_no_param_copy() {
        let mut shared = SharedCloud::new();
        for i in 0..100 {
            push_one(&mut shared, i as f32);
        }
        let before = Arc::strong_count(&shared.cloud);
        let live_slab = shared.read().gaussians().as_ptr();
        let snap = shared.publish();
        // O(1) refcounts: the snapshot holds the *same* allocation — same
        // Arc, same parameter slab — and only the count went up.
        assert_eq!(Arc::strong_count(&shared.cloud), before + 1);
        assert!(std::ptr::eq(snap.cloud().gaussians().as_ptr(), live_slab));
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.cloud().len(), 100);
        // Publishing again without mutation still shares the slab.
        let snap2 = shared.publish();
        assert!(snap.shares_slab(&snap2));
        assert_eq!(snap2.epoch(), 2);
    }

    #[test]
    fn mutation_with_outstanding_reader_diverges_once() {
        let mut shared = SharedCloud::new();
        push_one(&mut shared, 0.0);
        let snap = shared.publish();
        // Copy-on-write: the first mutation after publishing diverges the
        // slab; the snapshot keeps the old state.
        push_one(&mut shared, 1.0);
        assert!(!snap.shares_slab(&shared.peek()));
        assert_eq!(snap.cloud().len(), 1);
        assert_eq!(shared.read().len(), 2);
        // Further mutations stay in place (no second copy).
        let diverged = shared.read().gaussians().as_ptr();
        push_one(&mut shared, 2.0);
        assert_eq!(shared.read().len(), 3);
        let _ = diverged; // slab may reallocate on growth; content is what matters
    }

    #[test]
    fn mutation_without_readers_stays_in_place() {
        let mut shared = SharedCloud::new();
        for i in 0..8 {
            push_one(&mut shared, i as f32);
        }
        drop(shared.publish()); // reader immediately gone
        let slab = shared.read().gaussians().as_ptr();
        // Mutating existing parameters (no growth) must not reallocate:
        // refcount is back to one, so make_mut works in place.
        shared.make_mut().gaussians_mut()[0].opacity_logit = 3.0;
        assert!(std::ptr::eq(shared.read().gaussians().as_ptr(), slab));
    }

    #[test]
    fn peek_does_not_advance_the_epoch() {
        let mut shared = SharedCloud::new();
        push_one(&mut shared, 0.0);
        assert_eq!(shared.peek().epoch(), 0);
        assert_eq!(shared.next_epoch(), 1);
        let snap = shared.publish();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(shared.peek().epoch(), 1);
        assert_eq!(shared.next_epoch(), 2);
    }

    fn epochs(window: &SnapshotWindow) -> Vec<u64> {
        window.snapshots().map(CloudSnapshot::epoch).collect()
    }

    #[test]
    fn window_keeps_the_last_slack_plus_one_epochs() {
        let mut shared = SharedCloud::new();
        let mut window = SnapshotWindow::new(1);
        assert_eq!(epochs(&window), [0], "before any map: the empty snapshot");
        for f in 0..5u64 {
            push_one(&mut shared, f as f32);
            window.push(shared.publish());
            assert_eq!(epochs(&window), [f, f + 1], "after map({f})");
            assert_eq!(window.latest().epoch(), f + 1);
        }
    }

    #[test]
    fn window_slack_zero_is_the_classic_serial_semantics() {
        let mut shared = SharedCloud::new();
        let mut window = SnapshotWindow::new(0);
        for f in 0..3u64 {
            push_one(&mut shared, f as f32);
            window.push(shared.publish());
            // Zero slack: only the newest published map is kept.
            assert_eq!(epochs(&window), [f + 1]);
            assert!(window.latest().shares_slab(&shared.peek()));
        }
    }

    #[test]
    fn window_deep_slack_clamps_to_initial_empty() {
        let mut shared = SharedCloud::new();
        let mut window = SnapshotWindow::new(3);
        push_one(&mut shared, 0.0);
        window.push(shared.publish());
        // Only one epoch published, slack 3: the empty map is still held.
        assert_eq!(epochs(&window), [0, 1]);
        assert!(window.snapshots().next().unwrap().cloud().is_empty());
    }
}
