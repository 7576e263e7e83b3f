//! Stream checkpoint state and its binary codec.
//!
//! A durable checkpoint of one SLAM stream has two halves:
//!
//! * the **map** — the snapshot window, persisted incrementally through the
//!   epoch-delta log ([`ags_store::EpochStore`]), and
//! * the **auxiliary state** — everything else a bit-identical resume
//!   needs: trajectory, workload trace, CODEC reference pictures, tracker
//!   motion model, mapping tables/optimizer/key frames/RNG and the pipeline
//!   staleness state. [`StreamState`] carries it; [`encode_aux`] /
//!   [`decode_aux`] are its versioned byte codec, built on the same
//!   bounds-checked [`ByteWriter`]/[`ByteReader`] wire helpers as the store
//!   records (a truncated or bit-flipped payload decodes to a
//!   [`StoreError::Corrupt`], never a panic).
//!
//! Key frames deliberately serialize their full RGB-D images: mapping
//! re-renders stored key frames on every subsequent frame, so without them a
//! restored run would diverge immediately. Everything numeric round-trips
//! through IEEE-754 bit patterns — the restored stream's future output is
//! the uninterrupted stream's output to the last mantissa bit.

use crate::fc::FcDetectorState;
use crate::stages::MapStageState;
use crate::trace::{StageTimes, TraceFrame, WorkloadTrace};
use ags_codec::{LumaPlane, VideoCodecState};
use ags_image::{DepthImage, GrayImage, Image, RgbImage};
use ags_math::{Quat, Se3, Vec3};
use ags_slam::keyframes::StoredKeyframe;
use ags_slam::WorkUnits;
use ags_splat::render::TileWork;
use ags_splat::snapshot::CloudSnapshot;
use ags_splat::{BackendKind, IdSet};
use ags_store::{ByteReader, ByteWriter, StoreError};
use ags_track::coarse::{CoarseTrackerState, PreviousFrameState};
use std::sync::Arc;

/// Version tag of the auxiliary payload layout. Version 2 added the
/// compaction tracking (per-splat touch epochs and cold-tier chunk flags)
/// to the mapping-stage state; version 3 added the per-frame load-shedding
/// fields (`shed_level`, `dropped`) to the trace codec; version 4 dropped
/// the adaptive-slack stall samples.
const AUX_VERSION: u16 = 4;

/// Complete per-stream checkpoint state minus the map clouds (those travel
/// through the epoch-delta store; the window here holds the same snapshots
/// so capture/restore is one value).
#[derive(Debug, Clone)]
pub struct StreamState {
    /// Frames fully submitted to tracking so far.
    pub frame_count: usize,
    /// Estimated trajectory of all tracked frames.
    pub trajectory: Vec<Se3>,
    /// Workload trace of all completed frames.
    pub trace: WorkloadTrace,
    /// FC stage (CODEC reference pictures + counters).
    pub fc: FcDetectorState,
    /// Tracking stage (previous-frame reference + velocity model).
    pub track: CoarseTrackerState,
    /// Mapping stage (tables, optimizer, key frames, RNG, counters).
    pub map: MapStageState,
    /// Snapshot staleness the stream runs at.
    pub slack: usize,
    /// The snapshot window, ascending by epoch; the last entry is the
    /// newest map state. Zero-slack modes store exactly one snapshot.
    pub window: Vec<CloudSnapshot>,
}

// --- primitive codecs -----------------------------------------------------

fn put_vec3(w: &mut ByteWriter, v: &Vec3) {
    w.put_f32(v.x);
    w.put_f32(v.y);
    w.put_f32(v.z);
}

fn get_vec3(r: &mut ByteReader<'_>) -> Result<Vec3, StoreError> {
    Ok(Vec3 { x: r.get_f32()?, y: r.get_f32()?, z: r.get_f32()? })
}

fn put_se3(w: &mut ByteWriter, pose: &Se3) {
    w.put_f32(pose.rotation.w);
    w.put_f32(pose.rotation.x);
    w.put_f32(pose.rotation.y);
    w.put_f32(pose.rotation.z);
    put_vec3(w, &pose.translation);
}

fn get_se3(r: &mut ByteReader<'_>) -> Result<Se3, StoreError> {
    let rotation = Quat { w: r.get_f32()?, x: r.get_f32()?, y: r.get_f32()?, z: r.get_f32()? };
    Ok(Se3 { rotation, translation: get_vec3(r)? })
}

fn put_scalar_image(w: &mut ByteWriter, img: &Image<f32>) {
    w.put_usize(img.width());
    w.put_usize(img.height());
    for &p in img.pixels() {
        w.put_f32(p);
    }
}

fn get_scalar_image(r: &mut ByteReader<'_>) -> Result<Image<f32>, StoreError> {
    let width = r.get_usize()?;
    let height = r.get_usize()?;
    let n = width.checked_mul(height).ok_or_else(|| {
        StoreError::Corrupt(format!("image dimensions {width}x{height} overflow"))
    })?;
    if n.saturating_mul(4) > r.remaining() {
        return Err(StoreError::Corrupt(format!("image pixel count {n} exceeds payload")));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.get_f32()?);
    }
    Ok(Image::from_vec(width, height, data))
}

fn put_rgb_image(w: &mut ByteWriter, img: &RgbImage) {
    w.put_usize(img.width());
    w.put_usize(img.height());
    for p in img.pixels() {
        put_vec3(w, p);
    }
}

fn get_rgb_image(r: &mut ByteReader<'_>) -> Result<RgbImage, StoreError> {
    let width = r.get_usize()?;
    let height = r.get_usize()?;
    let n = width.checked_mul(height).ok_or_else(|| {
        StoreError::Corrupt(format!("image dimensions {width}x{height} overflow"))
    })?;
    if n.saturating_mul(12) > r.remaining() {
        return Err(StoreError::Corrupt(format!("image pixel count {n} exceeds payload")));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(get_vec3(r)?);
    }
    Ok(RgbImage::from_vec(width, height, data))
}

fn put_luma(w: &mut ByteWriter, plane: &LumaPlane) {
    w.put_usize(plane.width());
    w.put_usize(plane.height());
    w.put_bytes(plane.data());
}

fn get_luma(r: &mut ByteReader<'_>) -> Result<LumaPlane, StoreError> {
    let width = r.get_usize()?;
    let height = r.get_usize()?;
    let n = width.checked_mul(height).ok_or_else(|| {
        StoreError::Corrupt(format!("plane dimensions {width}x{height} overflow"))
    })?;
    let data = r.get_bytes(n)?.to_vec();
    Ok(LumaPlane::from_raw(width, height, data))
}

fn put_work(w: &mut ByteWriter, units: &WorkUnits) {
    w.put_u64(units.render_alpha);
    w.put_u64(units.render_blend);
    w.put_u64(units.pairs);
    w.put_u64(units.skipped_pairs);
    w.put_u64(units.grad_ops);
    w.put_u64(units.nn_macs);
    w.put_u64(units.sad_evals);
    w.put_u64(units.gn_rows);
    w.put_u32(units.iterations);
    w.put_u64(units.param_bytes);
    w.put_u64(units.table_bytes);
}

fn get_work(r: &mut ByteReader<'_>) -> Result<WorkUnits, StoreError> {
    Ok(WorkUnits {
        render_alpha: r.get_u64()?,
        render_blend: r.get_u64()?,
        pairs: r.get_u64()?,
        skipped_pairs: r.get_u64()?,
        grad_ops: r.get_u64()?,
        nn_macs: r.get_u64()?,
        sad_evals: r.get_u64()?,
        gn_rows: r.get_u64()?,
        iterations: r.get_u32()?,
        param_bytes: r.get_u64()?,
        table_bytes: r.get_u64()?,
    })
}

// --- trace ---------------------------------------------------------------

fn put_trace_frame(w: &mut ByteWriter, f: &TraceFrame) {
    w.put_usize(f.frame_index);
    w.put_opt_f32(f.fc_prev);
    w.put_opt_f32(f.fc_keyframe);
    w.put_u8(f.refined as u8);
    w.put_u8(f.is_keyframe as u8);
    put_work(w, &f.codec);
    put_work(w, &f.coarse);
    put_work(w, &f.refine);
    put_work(w, &f.mapping);
    w.put_usize(f.num_gaussians);
    w.put_usize(f.pruned);
    w.put_usize(f.quantized_splats);
    w.put_u64(f.map_bytes);
    w.put_usize(f.tile_work.len());
    for t in &f.tile_work {
        w.put_u32(t.tile);
        w.put_usize(t.per_pixel_evals.len());
        for &e in &t.per_pixel_evals {
            w.put_u16(e);
        }
        w.put_usize(t.per_pixel_blends.len());
        for &b in &t.per_pixel_blends {
            w.put_u16(b);
        }
    }
    w.put_opt_f32(f.fp_rate);
    w.put_u8(f.shed_level);
    w.put_u8(f.dropped as u8);
    // Stage times are observational (excluded from canonical_bytes), but
    // dropping them across a restore would make the restored trace's timing
    // totals lie about work that did happen — keep them.
    w.put_f64(f.stage_times.fc_s);
    w.put_f64(f.stage_times.track_s);
    w.put_f64(f.stage_times.map_s);
    w.put_f64(f.stage_times.stall_s);
    // Backend identity and cache counters are observational too, but kept
    // across restores for the same reason.
    w.put_u8(match BackendKind::from_name(f.backend) {
        Some(BackendKind::Reference) => 1,
        Some(BackendKind::Vectorized) => 2,
        None => 0,
    });
    w.put_u64(f.projection_cache_hits);
    w.put_u64(f.projection_cache_misses);
}

fn get_trace_frame(r: &mut ByteReader<'_>) -> Result<TraceFrame, StoreError> {
    let frame_index = r.get_usize()?;
    let fc_prev = r.get_opt_f32()?;
    let fc_keyframe = r.get_opt_f32()?;
    let refined = r.get_u8()? != 0;
    let is_keyframe = r.get_u8()? != 0;
    let codec = get_work(r)?;
    let coarse = get_work(r)?;
    let refine = get_work(r)?;
    let mapping = get_work(r)?;
    let num_gaussians = r.get_usize()?;
    let pruned = r.get_usize()?;
    let quantized_splats = r.get_usize()?;
    let map_bytes = r.get_u64()?;
    let n_tiles = r.get_count(4)?;
    let mut tile_work = Vec::with_capacity(n_tiles);
    for _ in 0..n_tiles {
        let tile = r.get_u32()?;
        let n_evals = r.get_count(2)?;
        let mut per_pixel_evals = Vec::with_capacity(n_evals);
        for _ in 0..n_evals {
            per_pixel_evals.push(r.get_u16()?);
        }
        let n_blends = r.get_count(2)?;
        let mut per_pixel_blends = Vec::with_capacity(n_blends);
        for _ in 0..n_blends {
            per_pixel_blends.push(r.get_u16()?);
        }
        tile_work.push(TileWork { tile, per_pixel_evals, per_pixel_blends });
    }
    let fp_rate = r.get_opt_f32()?;
    let shed_level = r.get_u8()?;
    let dropped = r.get_u8()? != 0;
    let stage_times = StageTimes {
        fc_s: r.get_f64()?,
        track_s: r.get_f64()?,
        map_s: r.get_f64()?,
        stall_s: r.get_f64()?,
    };
    let backend = match r.get_u8()? {
        1 => BackendKind::Reference.name(),
        2 => BackendKind::Vectorized.name(),
        _ => "",
    };
    let projection_cache_hits = r.get_u64()?;
    let projection_cache_misses = r.get_u64()?;
    Ok(TraceFrame {
        frame_index,
        fc_prev,
        fc_keyframe,
        refined,
        is_keyframe,
        codec,
        coarse,
        refine,
        mapping,
        num_gaussians,
        pruned,
        quantized_splats,
        map_bytes,
        tile_work,
        fp_rate,
        shed_level,
        dropped,
        stage_times,
        backend,
        projection_cache_hits,
        projection_cache_misses,
    })
}

// --- stage states --------------------------------------------------------

fn put_fc(w: &mut ByteWriter, fc: &FcDetectorState) {
    let VideoCodecState { previous, keyframes, frame_index, total_sad_evaluations } = &fc.codec;
    match previous {
        Some(p) => {
            w.put_u8(1);
            put_luma(w, p);
        }
        None => w.put_u8(0),
    }
    w.put_usize(keyframes.len());
    for (idx, plane) in keyframes {
        w.put_usize(*idx);
        put_luma(w, plane);
    }
    w.put_usize(*frame_index);
    w.put_u64(*total_sad_evaluations);
}

fn get_fc(r: &mut ByteReader<'_>) -> Result<FcDetectorState, StoreError> {
    let previous = match r.get_u8()? {
        0 => None,
        1 => Some(get_luma(r)?),
        b => return Err(StoreError::Corrupt(format!("invalid option tag {b}"))),
    };
    let n = r.get_count(16)?;
    let mut keyframes = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.get_usize()?;
        keyframes.push((idx, get_luma(r)?));
    }
    let frame_index = r.get_usize()?;
    let total_sad_evaluations = r.get_u64()?;
    Ok(FcDetectorState {
        codec: VideoCodecState { previous, keyframes, frame_index, total_sad_evaluations },
    })
}

fn put_track(w: &mut ByteWriter, track: &CoarseTrackerState) {
    match &track.previous {
        Some(p) => {
            w.put_u8(1);
            put_scalar_image(w, &p.gray);
            put_scalar_image(w, &p.depth);
            put_se3(w, &p.pose);
        }
        None => w.put_u8(0),
    }
    put_se3(w, &track.velocity);
}

fn get_track(r: &mut ByteReader<'_>) -> Result<CoarseTrackerState, StoreError> {
    let previous = match r.get_u8()? {
        0 => None,
        1 => {
            let gray: GrayImage = get_scalar_image(r)?;
            let depth: DepthImage = get_scalar_image(r)?;
            let pose = get_se3(r)?;
            Some(PreviousFrameState { gray, depth, pose })
        }
        b => return Err(StoreError::Corrupt(format!("invalid option tag {b}"))),
    };
    Ok(CoarseTrackerState { previous, velocity: get_se3(r)? })
}

fn put_idset(w: &mut ByteWriter, set: &IdSet) {
    w.put_usize(set.capacity());
    let ids: Vec<usize> = set.iter().collect();
    w.put_usize(ids.len());
    for id in ids {
        w.put_usize(id);
    }
}

fn get_idset(r: &mut ByteReader<'_>) -> Result<IdSet, StoreError> {
    let capacity = r.get_usize()?;
    let n = r.get_count(8)?;
    let mut set = IdSet::with_capacity(capacity);
    for _ in 0..n {
        let id = r.get_usize()?;
        if id >= capacity {
            return Err(StoreError::Corrupt(format!("id {id} outside capacity {capacity}")));
        }
        set.insert(id);
    }
    Ok(set)
}

fn put_f32_slice(w: &mut ByteWriter, v: &[f32]) {
    w.put_usize(v.len());
    for &x in v {
        w.put_f32(x);
    }
}

fn get_f32_vec(r: &mut ByteReader<'_>) -> Result<Vec<f32>, StoreError> {
    let n = r.get_count(4)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.get_f32()?);
    }
    Ok(v)
}

fn put_map(w: &mut ByteWriter, map: &MapStageState) {
    match &map.contribution.skip {
        Some(s) => {
            w.put_u8(1);
            put_idset(w, s);
        }
        None => w.put_u8(0),
    }
    w.put_usize(map.contribution.counts.len());
    for &c in &map.contribution.counts {
        w.put_u32(c);
    }
    w.put_usize(map.contribution.recorded_len);

    w.put_u64(map.adam.step_count);
    for moments in [
        &map.adam.position,
        &map.adam.log_scale,
        &map.adam.rotation,
        &map.adam.color,
        &map.adam.opacity,
    ] {
        put_f32_slice(w, &moments.m);
        put_f32_slice(w, &moments.v);
    }

    w.put_usize(map.keyframes.len());
    for kf in &map.keyframes {
        w.put_usize(kf.frame_index);
        put_se3(w, &kf.pose);
        w.put_u64(kf.epoch);
        put_rgb_image(w, &kf.rgb);
        put_scalar_image(w, &kf.depth);
    }

    w.put_u64(map.rng_state);
    w.put_u64(map.rng_inc);
    w.put_usize(map.keyframe_count);
    w.put_u64(map.frames_mapped);
    w.put_usize(map.trainable_from);

    w.put_usize(map.last_touched.len());
    for &epoch in &map.last_touched {
        w.put_u64(epoch);
    }
    w.put_usize(map.quantized_chunks.len());
    for &snapped in &map.quantized_chunks {
        w.put_u8(snapped as u8);
    }
}

fn get_map(r: &mut ByteReader<'_>) -> Result<MapStageState, StoreError> {
    let skip = match r.get_u8()? {
        0 => None,
        1 => Some(get_idset(r)?),
        b => return Err(StoreError::Corrupt(format!("invalid option tag {b}"))),
    };
    let n_counts = r.get_count(4)?;
    let mut counts = Vec::with_capacity(n_counts);
    for _ in 0..n_counts {
        counts.push(r.get_u32()?);
    }
    let recorded_len = r.get_usize()?;
    let contribution = crate::contribution::ContributionState { skip, counts, recorded_len };

    let step_count = r.get_u64()?;
    let mut moment_pairs = Vec::with_capacity(5);
    for _ in 0..5 {
        let m = get_f32_vec(r)?;
        let v = get_f32_vec(r)?;
        moment_pairs.push(ags_splat::optim::MomentState { m, v });
    }
    let mut it = moment_pairs.into_iter();
    let adam = ags_splat::optim::AdamState {
        step_count,
        position: it.next().expect("five moment slots"),
        log_scale: it.next().expect("five moment slots"),
        rotation: it.next().expect("five moment slots"),
        color: it.next().expect("five moment slots"),
        opacity: it.next().expect("five moment slots"),
    };

    let n_kf = r.get_count(8)?;
    let mut keyframes = Vec::with_capacity(n_kf);
    for _ in 0..n_kf {
        let frame_index = r.get_usize()?;
        let pose = get_se3(r)?;
        let epoch = r.get_u64()?;
        let rgb = Arc::new(get_rgb_image(r)?);
        let depth = Arc::new(get_scalar_image(r)?);
        keyframes.push(StoredKeyframe { frame_index, pose, epoch, rgb, depth });
    }

    let rng_state = r.get_u64()?;
    let rng_inc = r.get_u64()?;
    let keyframe_count = r.get_usize()?;
    let frames_mapped = r.get_u64()?;
    let trainable_from = r.get_usize()?;

    let n_touched = r.get_count(8)?;
    let mut last_touched = Vec::with_capacity(n_touched);
    for _ in 0..n_touched {
        last_touched.push(r.get_u64()?);
    }
    let n_chunks = r.get_count(1)?;
    let mut quantized_chunks = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        quantized_chunks.push(match r.get_u8()? {
            0 => false,
            1 => true,
            b => return Err(StoreError::Corrupt(format!("invalid chunk flag {b}"))),
        });
    }

    Ok(MapStageState {
        contribution,
        adam,
        keyframes,
        rng_state,
        rng_inc,
        keyframe_count,
        frames_mapped,
        trainable_from,
        last_touched,
        quantized_chunks,
    })
}

// --- top level -----------------------------------------------------------

/// Serializes everything in `state` **except** the window clouds (which the
/// epoch-delta store persists separately); the window's epoch ids are
/// included so [`decode_aux`] can verify the two halves belong together.
pub fn encode_aux(state: &StreamState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u16(AUX_VERSION);
    w.put_usize(state.frame_count);
    w.put_usize(state.trajectory.len());
    for pose in &state.trajectory {
        put_se3(&mut w, pose);
    }
    w.put_usize(state.trace.width);
    w.put_usize(state.trace.height);
    w.put_usize(state.trace.frames.len());
    for f in &state.trace.frames {
        put_trace_frame(&mut w, f);
    }
    put_fc(&mut w, &state.fc);
    put_track(&mut w, &state.track);
    put_map(&mut w, &state.map);
    w.put_usize(state.slack);
    w.put_usize(state.window.len());
    for snap in &state.window {
        w.put_u64(snap.epoch());
    }
    w.into_bytes()
}

/// Decodes an [`encode_aux`] payload and marries it to the snapshot
/// `window` restored from the epoch-delta store. Rejects version skew and
/// any mismatch between the persisted window epochs and the ones the aux
/// payload was captured against.
pub fn decode_aux(bytes: &[u8], window: Vec<CloudSnapshot>) -> Result<StreamState, StoreError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u16()?;
    if version != AUX_VERSION {
        return Err(StoreError::Corrupt(format!(
            "aux payload version {version}, expected {AUX_VERSION}"
        )));
    }
    let frame_count = r.get_usize()?;
    let n_poses = r.get_count(28)?;
    let mut trajectory = Vec::with_capacity(n_poses);
    for _ in 0..n_poses {
        trajectory.push(get_se3(&mut r)?);
    }
    let width = r.get_usize()?;
    let height = r.get_usize()?;
    let n_frames = r.get_count(8)?;
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        frames.push(get_trace_frame(&mut r)?);
    }
    let trace = WorkloadTrace { width, height, frames };
    let fc = get_fc(&mut r)?;
    let track = get_track(&mut r)?;
    let map = get_map(&mut r)?;
    let slack = r.get_usize()?;
    let n_epochs = r.get_count(8)?;
    let mut epochs = Vec::with_capacity(n_epochs);
    for _ in 0..n_epochs {
        epochs.push(r.get_u64()?);
    }
    r.finish()?;
    let restored: Vec<u64> = window.iter().map(|s| s.epoch()).collect();
    if restored != epochs {
        return Err(StoreError::Corrupt(format!(
            "aux window epochs {epochs:?} do not match restored window {restored:?}"
        )));
    }
    Ok(StreamState { frame_count, trajectory, trace, fc, track, map, slack, window })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_splat::optim::{AdamState, MomentState};
    use ags_splat::{Gaussian, GaussianCloud};

    fn sample_state() -> StreamState {
        let rgb = Arc::new(RgbImage::from_vec(
            2,
            2,
            vec![
                Vec3::new(0.1, 0.2, 0.3),
                Vec3::new(0.4, 0.5, 0.6),
                Vec3::new(0.7, 0.8, 0.9),
                Vec3::new(1.0, 0.0, 0.5),
            ],
        ));
        let depth = Arc::new(DepthImage::from_vec(2, 2, vec![1.0, 2.0, 0.0, 4.0]));
        let mut skip = IdSet::with_capacity(6);
        skip.insert(1);
        skip.insert(4);
        let moments = MomentState { m: vec![0.1, -0.2], v: vec![0.5, 0.25] };
        let cloud: GaussianCloud =
            std::iter::once(Gaussian::isotropic(Vec3::splat(1.0), 0.1, Vec3::splat(0.5), 0.7))
                .collect();
        let snap = CloudSnapshot::from_parts(Arc::new(cloud), 3);
        let pose = Se3 {
            rotation: Quat { w: 0.9, x: 0.1, y: -0.2, z: 0.3 },
            translation: Vec3::new(1.0, -2.0, 3.0),
        };
        let mut trace = WorkloadTrace::new(2, 2);
        trace.frames.push(TraceFrame {
            frame_index: 0,
            fc_prev: None,
            fc_keyframe: Some(0.75),
            refined: true,
            is_keyframe: true,
            codec: WorkUnits { sad_evals: 11, ..Default::default() },
            coarse: WorkUnits { nn_macs: 5, gn_rows: 2, ..Default::default() },
            refine: WorkUnits { iterations: 3, ..Default::default() },
            mapping: WorkUnits { pairs: 7, skipped_pairs: 2, ..Default::default() },
            num_gaussians: 42,
            pruned: 3,
            quantized_splats: 64,
            map_bytes: 42 * 56,
            tile_work: vec![TileWork {
                tile: 9,
                per_pixel_evals: vec![1, 2, 3],
                per_pixel_blends: vec![0, 1, 1],
            }],
            fp_rate: Some(0.125),
            shed_level: 1,
            dropped: true,
            stage_times: StageTimes { fc_s: 0.5, track_s: 1.5, map_s: 2.5, stall_s: 0.25 },
            backend: BackendKind::Vectorized.name(),
            projection_cache_hits: 17,
            projection_cache_misses: 4,
        });
        StreamState {
            frame_count: 4,
            trajectory: vec![Se3::IDENTITY, pose],
            trace,
            fc: FcDetectorState {
                codec: VideoCodecState {
                    previous: Some(LumaPlane::from_raw(2, 2, vec![0, 64, 128, 255])),
                    keyframes: vec![(0, LumaPlane::from_raw(2, 2, vec![1, 2, 3, 4]))],
                    frame_index: 4,
                    total_sad_evaluations: 99,
                },
            },
            track: CoarseTrackerState {
                previous: Some(PreviousFrameState {
                    gray: GrayImage::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
                    depth: DepthImage::from_vec(2, 2, vec![1.0, 0.0, 3.0, 4.0]),
                    pose,
                }),
                velocity: pose,
            },
            map: MapStageState {
                contribution: crate::contribution::ContributionState {
                    skip: Some(skip),
                    counts: vec![3, 1, 4],
                    recorded_len: 3,
                },
                adam: AdamState {
                    step_count: 17,
                    position: moments.clone(),
                    log_scale: moments.clone(),
                    rotation: moments.clone(),
                    color: moments.clone(),
                    opacity: moments,
                },
                keyframes: vec![StoredKeyframe { frame_index: 0, pose, epoch: 1, rgb, depth }],
                rng_state: 0xdead_beef,
                rng_inc: 0x1357,
                keyframe_count: 1,
                frames_mapped: 4,
                trainable_from: 2,
                last_touched: vec![3, 4, 4],
                quantized_chunks: vec![true, false],
            },
            slack: 2,
            window: vec![snap],
        }
    }

    #[test]
    fn aux_roundtrip_is_exact() {
        let state = sample_state();
        let bytes = encode_aux(&state);
        let restored = decode_aux(&bytes, state.window.clone()).unwrap();
        assert_eq!(restored.frame_count, state.frame_count);
        assert_eq!(restored.trajectory, state.trajectory);
        assert_eq!(restored.trace.canonical_bytes(), state.trace.canonical_bytes());
        assert_eq!(restored.trace.frames[0].stage_times, state.trace.frames[0].stage_times);
        assert_eq!(restored.fc, state.fc);
        assert_eq!(restored.track, state.track);
        assert_eq!(restored.map.contribution, state.map.contribution);
        assert_eq!(restored.map.adam, state.map.adam);
        assert_eq!(restored.map.keyframes.len(), 1);
        assert_eq!(restored.map.keyframes[0].rgb, state.map.keyframes[0].rgb);
        assert_eq!(restored.map.keyframes[0].depth, state.map.keyframes[0].depth);
        assert_eq!(
            (restored.map.rng_state, restored.map.rng_inc),
            (state.map.rng_state, state.map.rng_inc)
        );
        assert_eq!(restored.map.last_touched, state.map.last_touched);
        assert_eq!(restored.map.quantized_chunks, state.map.quantized_chunks);
        assert_eq!(restored.slack, state.slack);
        assert_eq!(restored.window.len(), 1);
    }

    #[test]
    fn truncated_aux_is_corrupt_not_a_panic() {
        let state = sample_state();
        let bytes = encode_aux(&state);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_aux(&bytes[..cut], state.window.clone());
            assert!(matches!(err, Err(StoreError::Corrupt(_))), "cut at {cut} must be rejected");
        }
    }

    #[test]
    fn window_epoch_mismatch_is_rejected() {
        let state = sample_state();
        let bytes = encode_aux(&state);
        let wrong = vec![CloudSnapshot::from_parts(Arc::new(GaussianCloud::default()), 7)];
        assert!(matches!(decode_aux(&bytes, wrong), Err(StoreError::Corrupt(_))));
        assert!(matches!(decode_aux(&bytes, Vec::new()), Err(StoreError::Corrupt(_))));
        // Version skew: a payload tagged with the previous layout version is
        // rejected before any field is read.
        let mut old = bytes;
        old[..2].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(decode_aux(&old, state.window), Err(StoreError::Corrupt(_))));
    }
}
