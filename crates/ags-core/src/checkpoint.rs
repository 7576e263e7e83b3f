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

use crate::config::MAX_MAP_SLACK;
use crate::stages::MapStageState;
use crate::trace::{StageTimes, TraceFrame, WorkloadTrace};
use ags_codec::{LumaPlane, VideoCodecState};
use ags_image::{DepthImage, GrayImage, Image, RgbImage};
use ags_math::{Quat, Se3, Vec3};
use ags_slam::keyframes::StoredKeyframe;
use ags_slam::WorkUnits;
use ags_splat::compact::QUANT_CHUNK;
use ags_splat::render::TileWork;
use ags_splat::snapshot::CloudSnapshot;
use ags_splat::IdSet;
use ags_store::{ByteReader, ByteWriter, StoreError};
use ags_track::coarse::{CoarseTrackerState, PreviousFrameState};
use std::sync::Arc;

/// Version tag of the auxiliary payload layout. Version 2 added the
/// compaction tracking (per-splat touch epochs and cold-tier chunk flags)
/// to the mapping-stage state; version 3 added two per-frame load-shedding
/// bytes (the shed level and a dropped flag) to the trace codec; version 4
/// dropped the adaptive-slack stall samples; version 5 dropped the two
/// load-shedding bytes again with the shed ladder; version 6 dropped the
/// sub-map freeze boundary and the key-frame counter (the stored key frames
/// count themselves) from the mapping-stage state and stores the CODEC's
/// single key-frame reference as a 0/1 option tag instead of a counted
/// window; version 7 dropped the CODEC's cumulative SAD-evaluation counter
/// (each trace frame keeps its own count); version 8 dropped the per-frame
/// render-backend byte (the pipeline runs one kernel).
const AUX_VERSION: u16 = 8;

// The least encoded size of each counted element. A count is checked
// against the bytes left at this size before its vector is reserved
// (`ByteReader::get_count`), so a count the payload cannot back is rejected
// instead of reserving up to the in-memory size for each element it claims.

/// An `Se3`: seven `f32`s.
const SE3_BYTES: usize = 7 * 4;
/// A `WorkUnits`: ten `u64`s and the `u32` iteration count.
const WORK_BYTES: usize = 10 * 8 + 4;
/// A trace frame with both FCs and the FP rate absent and no tile work: its
/// index, two option tags, two flags, four work records, four map counters,
/// the tile count, the FP rate's tag, four stage times and two cache
/// counters.
const TRACE_FRAME_MIN_BYTES: usize = 8 + 2 + 2 + 4 * WORK_BYTES + 4 * 8 + 8 + 1 + 4 * 8 + 2 * 8;
/// A tile's work with no pixels: the tile id and two counts.
const TILE_WORK_MIN_BYTES: usize = 4 + 2 * 8;
/// A stored key frame with empty images: its index, pose, epoch and the two
/// images' width and height.
const KEYFRAME_MIN_BYTES: usize = 8 + SE3_BYTES + 8 + 2 * 16;

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
    /// FC stage (CODEC reference pictures).
    pub fc: VideoCodecState,
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
    // Stage times are observational (excluded from canonical_bytes), but
    // dropping them across a restore would make the restored trace's timing
    // totals lie about work that did happen — keep them.
    w.put_f64(f.stage_times.fc_s);
    w.put_f64(f.stage_times.track_s);
    w.put_f64(f.stage_times.map_s);
    w.put_f64(f.stage_times.stall_s);
    // Cache counters are observational too, but kept across restores for
    // the same reason.
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
    let n_tiles = r.get_count(TILE_WORK_MIN_BYTES)?;
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
    let stage_times = StageTimes {
        fc_s: r.get_f64()?,
        track_s: r.get_f64()?,
        map_s: r.get_f64()?,
        stall_s: r.get_f64()?,
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
        dropped: false,
        stage_times,
        projection_cache_hits,
        projection_cache_misses,
    })
}

// --- stage states --------------------------------------------------------

fn put_fc(w: &mut ByteWriter, fc: &VideoCodecState) {
    let VideoCodecState { previous, keyframe, frame_index } = fc;
    match previous {
        Some(p) => {
            w.put_u8(1);
            put_luma(w, p);
        }
        None => w.put_u8(0),
    }
    match keyframe {
        Some((idx, plane)) => {
            w.put_u8(1);
            w.put_usize(*idx);
            put_luma(w, plane);
        }
        None => w.put_u8(0),
    }
    w.put_usize(*frame_index);
}

fn get_fc(r: &mut ByteReader<'_>) -> Result<VideoCodecState, StoreError> {
    let previous = match r.get_u8()? {
        0 => None,
        1 => Some(get_luma(r)?),
        b => return Err(StoreError::Corrupt(format!("invalid option tag {b}"))),
    };
    let keyframe = match r.get_u8()? {
        0 => None,
        1 => Some((r.get_usize()?, get_luma(r)?)),
        b => return Err(StoreError::Corrupt(format!("invalid option tag {b}"))),
    };
    let frame_index = r.get_usize()?;
    Ok(VideoCodecState { previous, keyframe, frame_index })
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

fn get_idset(r: &mut ByteReader<'_>, max_capacity: usize) -> Result<IdSet, StoreError> {
    // Checked before the set is allocated: its capacity is not bounded by
    // the bytes left, and an allocation too large aborts the process.
    let capacity = at_most(r.get_usize()?, max_capacity, "id set capacity")?;
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

/// `value`, or `Corrupt` when it exceeds `limit` — the splat count (or chunk
/// count) of the snapshot the field describes.
fn at_most(value: usize, limit: usize, what: &str) -> Result<usize, StoreError> {
    if value > limit {
        return Err(StoreError::Corrupt(format!("{what} {value} above the head map's {limit}")));
    }
    Ok(value)
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
    w.put_u64(map.frames_mapped);

    w.put_usize(map.last_touched.len());
    for &epoch in &map.last_touched {
        w.put_u64(epoch);
    }
    w.put_usize(map.quantized_chunks.len());
    for &snapped in &map.quantized_chunks {
        w.put_u8(snapped as u8);
    }
}

/// Reads a map state whose id-indexed fields describe a map of `splats`
/// splats, rejecting any field that indexes past it.
fn get_map(r: &mut ByteReader<'_>, splats: usize) -> Result<MapStageState, StoreError> {
    let skip = match r.get_u8()? {
        0 => None,
        1 => Some(get_idset(r, splats)?),
        b => return Err(StoreError::Corrupt(format!("invalid option tag {b}"))),
    };
    let n_counts = at_most(r.get_count(4)?, splats, "contribution counts")?;
    let mut counts = Vec::with_capacity(n_counts);
    for _ in 0..n_counts {
        counts.push(r.get_u32()?);
    }
    let recorded_len = at_most(r.get_usize()?, splats, "recorded length")?;
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

    let n_kf = r.get_count(KEYFRAME_MIN_BYTES)?;
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
    let frames_mapped = r.get_u64()?;

    let n_touched = at_most(r.get_count(8)?, splats, "last-touched epochs")?;
    let mut last_touched = Vec::with_capacity(n_touched);
    for _ in 0..n_touched {
        last_touched.push(r.get_u64()?);
    }
    let n_chunks = at_most(r.get_count(1)?, splats / QUANT_CHUNK, "quantized chunk flags")?;
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
        frames_mapped,
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
/// `window` restored from the epoch-delta store. Rejects version skew, any
/// mismatch between the persisted window epochs and the ones the aux
/// payload was captured against, a slack above `8` or a window that does
/// not hold the epoch the stream resumes at (`frame_count − slack`), and a
/// map state with an id-indexed field past the window head's splats (the
/// map the stream resumes from).
pub fn decode_aux(bytes: &[u8], window: Vec<CloudSnapshot>) -> Result<StreamState, StoreError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u16()?;
    if version != AUX_VERSION {
        return Err(StoreError::Corrupt(format!(
            "aux payload version {version}, expected {AUX_VERSION}"
        )));
    }
    let frame_count = r.get_usize()?;
    let n_poses = r.get_count(SE3_BYTES)?;
    let mut trajectory = Vec::with_capacity(n_poses);
    for _ in 0..n_poses {
        trajectory.push(get_se3(&mut r)?);
    }
    let width = r.get_usize()?;
    let height = r.get_usize()?;
    let n_frames = r.get_count(TRACE_FRAME_MIN_BYTES)?;
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        frames.push(get_trace_frame(&mut r)?);
    }
    let trace = WorkloadTrace { width, height, frames };
    let fc = get_fc(&mut r)?;
    let track = get_track(&mut r)?;
    let map = get_map(&mut r, window.last().map_or(0, |head| head.cloud().len()))?;
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
    // A CRC-valid payload can still describe a stream no driver could have
    // written: the driver resumes at epoch `frame_count − slack`, which an
    // ascending window must hold.
    if slack > MAX_MAP_SLACK {
        return Err(StoreError::Corrupt(format!("map slack {slack} above {MAX_MAP_SLACK}")));
    }
    let contract = frame_count.saturating_sub(slack) as u64;
    if !epochs.windows(2).all(|p| p[0] < p[1]) || !epochs.contains(&contract) {
        return Err(StoreError::Corrupt(format!(
            "window epochs {epochs:?} miss epoch {contract} (frame {frame_count}, slack {slack})"
        )));
    }
    Ok(StreamState { frame_count, trajectory, trace, fc, track, map, slack, window })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_splat::optim::{AdamState, MomentState};
    use ags_splat::{Gaussian, GaussianCloud};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

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
        // Two quantization chunks: room for every id-indexed field below.
        let splat = Gaussian::isotropic(Vec3::splat(1.0), 0.1, Vec3::splat(0.5), 0.7);
        let cloud: GaussianCloud = std::iter::repeat(splat).take(2 * QUANT_CHUNK).collect();
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
            dropped: false,
            stage_times: StageTimes { fc_s: 0.5, track_s: 1.5, map_s: 2.5, stall_s: 0.25 },
            projection_cache_hits: 17,
            projection_cache_misses: 4,
        });
        StreamState {
            frame_count: 4,
            trajectory: vec![Se3::IDENTITY, pose],
            trace,
            fc: VideoCodecState {
                previous: Some(LumaPlane::from_raw(2, 2, vec![0, 64, 128, 255])),
                keyframe: Some((0, LumaPlane::from_raw(2, 2, vec![1, 2, 3, 4]))),
                frame_index: 4,
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
                frames_mapped: 4,
                last_touched: vec![3, 4, 4],
                quantized_chunks: vec![true, false],
            },
            slack: 1,
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
        // The CODEC's key-frame reference is a 0/1 option tag; the first
        // byte where a payload without one differs from `bytes` is that tag.
        let mut without = state.clone();
        without.fc.keyframe = None;
        let at = encode_aux(&without)
            .iter()
            .zip(&bytes)
            .position(|(x, y)| x != y)
            .expect("the key-frame tag differs");
        assert_eq!(bytes[at], 1);
        for tag in [2, 0x80, 0xff] {
            let mut bad = bytes.clone();
            bad[at] = tag;
            let err = decode_aux(&bad, state.window.clone());
            assert!(matches!(err, Err(StoreError::Corrupt(_))), "tag {tag}: {err:?}");
        }
    }

    /// Records the largest single allocation request made on each thread,
    /// so a test can read back the biggest reservation a call made. It is
    /// the allocator of this crate's whole unit-test binary.
    struct LargestRequest;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note_request(size: usize) {
        // `try_with`: the allocator also runs while thread-locals are torn down.
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    }

    // SAFETY: both calls are forwarded to `System` unchanged; the only side
    // effect is a `Cell` update on a const-initialised thread-local, which
    // neither allocates nor unwinds. The trait's default `alloc_zeroed` and
    // `realloc` go through `alloc`, so they are recorded too.
    unsafe impl GlobalAlloc for LargestRequest {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note_request(layout.size());
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOCATOR: LargestRequest = LargestRequest;

    /// Runs `f`, returning its result and the largest single allocation it
    /// requested on this thread.
    fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|largest| largest.set(0));
        let out = f();
        (out, LARGEST.with(Cell::get))
    }

    /// Every prefix of a valid payload, and thousands of single-byte
    /// mutations of it, decode to `Ok` or `Err` — never a panic, and never
    /// a reservation the payload cannot back.
    #[test]
    fn truncated_or_mutated_aux_never_panics() {
        let state = sample_state();
        let bytes = encode_aux(&state);
        // Every counted element is checked against the bytes left at its
        // minimum encoded size before it is reserved, so a reservation is
        // at most the payload length times the largest in-memory over
        // encoded size ratio: 56 / 20 for a `TileWork`, under 2 for the
        // rest. On top of that come a rejection's message (a few dozen
        // bytes) and the skip set, whose capacity the trusted restored
        // window bounds instead of the payload (its head map's splats, one
        // bit each).
        let splats = state.window.last().unwrap().cloud().len();
        let bound = |len: usize| 3 * len + 256 + splats.div_ceil(64) * 8;
        // `Some(decoded)`, or `None` when the decoder panicked.
        let decode = |payload: &[u8]| {
            let window = state.window.clone();
            let (outcome, largest) = largest_request(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    decode_aux(payload, window).is_ok()
                }))
                .ok()
            });
            assert!(
                largest <= bound(payload.len()),
                "a {largest}-byte reservation from a {}-byte payload",
                payload.len()
            );
            outcome
        };
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), Some(false), "decoding the first {cut} bytes");
        }
        let mut rng = ags_math::Pcg32::seeded(0xa0c5);
        let mut decoded = 0;
        let mutations = 4_000;
        for i in 0..mutations {
            let mut mutated = bytes.clone();
            let at = rng.index(bytes.len());
            // A non-zero XOR mask always changes the byte.
            mutated[at] ^= 1 + rng.range_u32(255) as u8;
            let outcome = decode(&mutated);
            assert!(outcome.is_some(), "mutation {i} (byte {at} = {:#04x}) panicked", mutated[at]);
            decoded += usize::from(outcome == Some(true));
        }
        // Both outcomes occur, so the mutations reach past the header:
        // pixel and moment bytes decode, lengths and tags are rejected.
        assert!(0 < decoded && decoded < mutations, "{decoded} of {mutations} decoded");
    }

    /// The least element sizes `decode_aux` checks counts against are what
    /// the encoder writes for the smallest element.
    #[test]
    fn minimum_element_sizes_match_the_encoder() {
        let encoded = |put: &dyn Fn(&mut ByteWriter)| {
            let mut w = ByteWriter::new();
            put(&mut w);
            w.into_bytes().len()
        };
        assert_eq!(encoded(&|w| put_se3(w, &Se3::IDENTITY)), SE3_BYTES);
        assert_eq!(encoded(&|w| put_work(w, &WorkUnits::default())), WORK_BYTES);
        let mut frame = TraceFrame::default();
        assert_eq!(encoded(&|w| put_trace_frame(w, &frame)), TRACE_FRAME_MIN_BYTES);
        frame.tile_work.push(TileWork {
            tile: 0,
            per_pixel_evals: vec![],
            per_pixel_blends: vec![],
        });
        let with_tile = encoded(&|w| put_trace_frame(w, &frame));
        assert_eq!(with_tile, TRACE_FRAME_MIN_BYTES + TILE_WORK_MIN_BYTES);
        // Each stored key frame adds one element to the map record.
        let mut map = sample_state().map;
        map.keyframes.clear();
        let without = encoded(&|w| put_map(w, &map));
        map.keyframes.push(StoredKeyframe {
            frame_index: 0,
            pose: Se3::IDENTITY,
            epoch: 0,
            rgb: Arc::new(RgbImage::from_vec(0, 0, Vec::new())),
            depth: Arc::new(DepthImage::from_vec(0, 0, Vec::new())),
        });
        assert_eq!(encoded(&|w| put_map(w, &map)), without + KEYFRAME_MIN_BYTES);
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
        old[..2].copy_from_slice(&(AUX_VERSION - 1).to_le_bytes());
        assert!(matches!(decode_aux(&old, state.window), Err(StoreError::Corrupt(_))));
    }

    /// A map state indexing past the head snapshot's splats is one no driver
    /// wrote: every id-indexed field one past its bound is `Corrupt`.
    #[test]
    fn map_fields_past_the_head_map_are_rejected() {
        let state = sample_state();
        let splats = state.window.last().unwrap().cloud().len();
        let decode = |state: &StreamState| decode_aux(&encode_aux(state), state.window.clone());
        assert!(decode(&state).is_ok());
        let mut at_bound = state.clone();
        at_bound.map.contribution.skip = Some(IdSet::with_capacity(splats));
        at_bound.map.quantized_chunks = vec![false; splats / QUANT_CHUNK];
        assert!(decode(&at_bound).is_ok());
        type Corruption = fn(&mut MapStageState, usize);
        let past: [(&str, Corruption); 5] = [
            ("skip capacity", |m, n| m.contribution.skip = Some(IdSet::with_capacity(n + 1))),
            ("recorded length", |m, n| m.contribution.recorded_len = n + 1),
            ("counts", |m, n| m.contribution.counts = vec![0; n + 1]),
            ("last touched", |m, n| m.last_touched = vec![0; n + 1]),
            ("chunk flags", |m, n| m.quantized_chunks = vec![false; n / QUANT_CHUNK + 1]),
        ];
        for (what, corrupt) in past {
            let mut state = state.clone();
            corrupt(&mut state.map, splats);
            assert!(matches!(decode(&state), Err(StoreError::Corrupt(_))), "{what}");
        }
    }

    /// A skip set claiming 2⁴⁶ ids once aborted the process allocating its
    /// 8 TiB of words; it is rejected before anything is allocated.
    #[test]
    fn a_huge_skip_set_capacity_is_corrupt_not_an_abort() {
        let state = sample_state();
        let with_capacity = |capacity: usize| {
            let mut state = state.clone();
            state.map.contribution.skip = Some(IdSet::with_capacity(capacity));
            encode_aux(&state)
        };
        // The capacity field is where two encodings of different capacities
        // start to differ (little-endian: its low byte).
        let (a, b) = (with_capacity(1), with_capacity(2));
        let at = a.iter().zip(&b).position(|(x, y)| x != y).expect("capacities differ");
        let mut bytes = a;
        bytes[at..at + 8].copy_from_slice(&(1u64 << 46).to_le_bytes());
        let err = decode_aux(&bytes, state.window);
        assert!(matches!(err, Err(StoreError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn slack_or_window_no_driver_resumes_from_is_rejected() {
        // Frame 4 at slack 1 resumes at epoch 3, the window's only entry.
        // Any other slack moves the contract off the window; an empty
        // window holds no contract at all.
        let state = sample_state();
        for slack in [0, 2, MAX_MAP_SLACK + 1, usize::MAX] {
            let bytes = encode_aux(&StreamState { slack, ..state.clone() });
            let err = decode_aux(&bytes, state.window.clone());
            assert!(matches!(err, Err(StoreError::Corrupt(_))), "slack {slack}: {err:?}");
        }
        let empty = encode_aux(&StreamState { window: Vec::new(), ..state });
        assert!(matches!(decode_aux(&empty, Vec::new()), Err(StoreError::Corrupt(_))));
    }
}
