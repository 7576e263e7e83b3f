//! Workload traces consumed by the hardware cost models.

use ags_slam::baseline::FrameRecord;
use ags_slam::WorkUnits;
use ags_splat::render::TileWork;

/// Measured wall-clock seconds per pipeline stage for one frame.
///
/// Purely observational: stage times depend on the machine and on whether
/// the FC stage ran overlapped, so they are **excluded** from
/// [`WorkloadTrace::canonical_bytes`] — serial and overlapped runs of the
/// same stream compare equal on everything semantic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// CODEC FC detection (push + covisibility + keyframe marking).
    pub fc_s: f64,
    /// Movement-adaptive tracking (coarse + conditional refinement).
    pub track_s: f64,
    /// Mapping (densify + selective mapping + contribution/audit).
    pub map_s: f64,
    /// Time the driver spent blocked on pipeline backpressure for this
    /// frame: waiting for the contractual map snapshot (Track ‖ Map
    /// overlap) **plus** waiting on the FC result channel (both overlapped
    /// modes). Always `0` in the serial drivers. High stall times mean an
    /// upstream stage — mapping or FC — is the bottleneck, which is what
    /// the multi-stream server's stats aggregate to locate shared-pool
    /// contention.
    pub stall_s: f64,
}

impl StageTimes {
    /// Sum of the compute stage times (excludes [`StageTimes::stall_s`],
    /// which is waiting, not work).
    pub fn total_s(&self) -> f64 {
        self.fc_s + self.track_s + self.map_s
    }

    /// Accumulates another frame's stage times.
    pub fn merge(&mut self, other: &StageTimes) {
        self.fc_s += other.fc_s;
        self.track_s += other.track_s;
        self.map_s += other.map_s;
        self.stall_s += other.stall_s;
    }

    /// Keeps the field-wise maximum of `self` and `other` — the per-stage
    /// worst case across a set of streams.
    pub fn merge_max(&mut self, other: &StageTimes) {
        self.fc_s = self.fc_s.max(other.fc_s);
        self.track_s = self.track_s.max(other.track_s);
        self.map_s = self.map_s.max(other.map_s);
        self.stall_s = self.stall_s.max(other.stall_s);
    }
}

/// Per-frame workload and covisibility record.
#[derive(Debug, Clone, Default)]
pub struct TraceFrame {
    /// Stream index.
    pub frame_index: usize,
    /// FC against the previous frame (`None` on the first frame).
    pub fc_prev: Option<f32>,
    /// FC against the last key frame.
    pub fc_keyframe: Option<f32>,
    /// Whether fine pose refinement ran (AGS) / full tracking (baseline).
    pub refined: bool,
    /// Whether this frame ran full mapping as a key frame.
    pub is_keyframe: bool,
    /// CODEC work (SAD evaluations).
    pub codec: WorkUnits,
    /// Coarse-tracking work (NN MACs + GN rows); empty for the baseline.
    pub coarse: WorkUnits,
    /// 3DGS tracking / refinement work.
    pub refine: WorkUnits,
    /// Mapping work (includes densification renders).
    pub mapping: WorkUnits,
    /// Map size after the frame.
    pub num_gaussians: usize,
    /// Splats removed by compaction this frame.
    pub pruned: usize,
    /// Splats resident in the cold quantized tier after the frame.
    pub quantized_splats: usize,
    /// Estimated resident map parameter bytes after the frame.
    pub map_bytes: u64,
    /// Sampled per-tile rasterization workload (empty unless sampled).
    pub tile_work: Vec<TileWork>,
    /// Measured false-positive rate of the skip prediction, when audited.
    pub fp_rate: Option<f32>,
    /// Always `false`: no frame skips tracking and mapping. Only reader:
    /// `benchmark/src/sut.rs:901`; kept out of the canonical bytes and the
    /// checkpoint codec until the next `benchmark` PR drops it there
    /// (`benchmark/` may not be edited).
    #[doc(hidden)]
    pub dropped: bool,
    /// Measured per-stage wall time (observational; not part of the
    /// canonical byte encoding).
    pub stage_times: StageTimes,
    /// Render backend the frame's kernels ran on (observational, like
    /// [`StageTimes`]: every backend is bit-identical, so the canonical
    /// bytes ignore it).
    pub backend: &'static str,
    /// Cumulative projection-cache hits after this frame (observational).
    pub projection_cache_hits: u64,
    /// Cumulative projection-cache misses after this frame (observational).
    pub projection_cache_misses: u64,
}

impl TraceFrame {
    /// Total work of the frame across phases.
    pub fn total(&self) -> WorkUnits {
        let mut w = WorkUnits::default();
        w.merge(&self.codec);
        w.merge(&self.coarse);
        w.merge(&self.refine);
        w.merge(&self.mapping);
        w
    }
}

/// A full-run workload trace.
#[derive(Debug, Clone, Default)]
pub struct WorkloadTrace {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Per-frame records in stream order.
    pub frames: Vec<TraceFrame>,
}

impl WorkloadTrace {
    /// Creates an empty trace for the given resolution.
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height, frames: Vec::new() }
    }

    /// Builds a trace from baseline SLAM records (no codec/coarse phases;
    /// full-budget tracking mapped to the `refine` slot).
    pub fn from_baseline(records: &[FrameRecord], width: usize, height: usize) -> Self {
        let frames = records
            .iter()
            .map(|r| TraceFrame {
                frame_index: r.frame_index,
                fc_prev: None,
                fc_keyframe: None,
                refined: !r.tracking.is_empty(),
                is_keyframe: r.is_keyframe,
                codec: WorkUnits::default(),
                coarse: WorkUnits::default(),
                refine: r.tracking,
                mapping: r.mapping,
                num_gaussians: r.num_gaussians,
                pruned: 0,
                quantized_splats: 0,
                map_bytes: r.num_gaussians as u64 * ags_splat::compact::FULL_SPLAT_BYTES,
                tile_work: r.tile_work.clone(),
                fp_rate: None,
                dropped: false,
                stage_times: StageTimes::default(),
                backend: "",
                projection_cache_hits: 0,
                projection_cache_misses: 0,
            })
            .collect();
        Self { width, height, frames }
    }

    /// Canonical byte encoding of everything *semantic* in the trace: frame
    /// decisions, workload counters, covisibility values, tile work and map
    /// sizes — but **not** the measured [`StageTimes`], which legitimately
    /// vary between runs and between the serial and overlapped drivers.
    ///
    /// Two runs of the same frame stream are equivalent iff their canonical
    /// bytes are equal; the pipelined-driver determinism tests assert exactly
    /// this.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        fn push_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn push_opt_f32(out: &mut Vec<u8>, v: Option<f32>) {
            match v {
                Some(x) => {
                    out.push(1);
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                None => out.push(0),
            }
        }
        fn push_work(out: &mut Vec<u8>, w: &WorkUnits) {
            for v in [
                w.render_alpha,
                w.render_blend,
                w.pairs,
                w.skipped_pairs,
                w.grad_ops,
                w.nn_macs,
                w.sad_evals,
                w.gn_rows,
                w.iterations as u64,
                w.param_bytes,
                w.table_bytes,
            ] {
                push_u64(out, v);
            }
        }
        let mut out = Vec::new();
        push_u64(&mut out, self.width as u64);
        push_u64(&mut out, self.height as u64);
        push_u64(&mut out, self.frames.len() as u64);
        for f in &self.frames {
            push_u64(&mut out, f.frame_index as u64);
            push_opt_f32(&mut out, f.fc_prev);
            push_opt_f32(&mut out, f.fc_keyframe);
            out.push(f.refined as u8);
            out.push(f.is_keyframe as u8);
            push_work(&mut out, &f.codec);
            push_work(&mut out, &f.coarse);
            push_work(&mut out, &f.refine);
            push_work(&mut out, &f.mapping);
            push_u64(&mut out, f.num_gaussians as u64);
            push_u64(&mut out, f.pruned as u64);
            push_u64(&mut out, f.quantized_splats as u64);
            push_u64(&mut out, f.map_bytes);
            push_u64(&mut out, f.tile_work.len() as u64);
            for t in &f.tile_work {
                push_u64(&mut out, t.tile as u64);
                push_u64(&mut out, t.per_pixel_evals.len() as u64);
                for &e in &t.per_pixel_evals {
                    out.extend_from_slice(&e.to_le_bytes());
                }
                for &b in &t.per_pixel_blends {
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
            push_opt_f32(&mut out, f.fp_rate);
        }
        out
    }

    /// Sum of the measured per-stage wall times across all frames.
    pub fn stage_time_totals(&self) -> StageTimes {
        let mut total = StageTimes::default();
        for f in &self.frames {
            total.merge(&f.stage_times);
        }
        total
    }

    /// Sum of all frames' work.
    pub fn total(&self) -> WorkUnits {
        let mut w = WorkUnits::default();
        for f in &self.frames {
            w.merge(&f.total());
        }
        w
    }

    /// Fraction of frames that skipped fine refinement.
    pub fn refinement_skip_rate(&self) -> f32 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().filter(|f| !f.refined).count() as f32 / self.frames.len() as f32
    }

    /// Fraction of mapping (splat, tile) pairs skipped by selective mapping.
    pub fn pair_skip_rate(&self) -> f32 {
        let total = self.total();
        let denom = total.mapping_pairs_with_skips();
        if denom == 0 {
            0.0
        } else {
            total.skipped_pairs as f32 / denom as f32
        }
    }
}

/// Extension used by [`WorkloadTrace::pair_skip_rate`].
trait PairExt {
    fn mapping_pairs_with_skips(&self) -> u64;
}

impl PairExt for WorkUnits {
    fn mapping_pairs_with_skips(&self) -> u64 {
        self.pairs + self.skipped_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(refined: bool, key: bool, alpha: u64, skipped: u64) -> TraceFrame {
        TraceFrame {
            refined,
            is_keyframe: key,
            refine: WorkUnits { render_alpha: alpha, ..Default::default() },
            mapping: WorkUnits { pairs: 10, skipped_pairs: skipped, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut trace = WorkloadTrace::new(64, 48);
        trace.frames.push(frame(true, true, 100, 0));
        trace.frames.push(frame(false, false, 0, 5));
        let total = trace.total();
        assert_eq!(total.render_alpha, 100);
        assert_eq!(total.pairs, 20);
        assert_eq!(total.skipped_pairs, 5);
    }

    #[test]
    fn rates() {
        let mut trace = WorkloadTrace::new(64, 48);
        trace.frames.push(frame(true, true, 100, 0));
        trace.frames.push(frame(false, false, 0, 5));
        trace.frames.push(frame(false, false, 0, 5));
        assert!((trace.refinement_skip_rate() - 2.0 / 3.0).abs() < 1e-6);
        assert!((trace.pair_skip_rate() - 10.0 / 40.0).abs() < 1e-6);
    }

    #[test]
    fn empty_trace_rates_are_zero() {
        let trace = WorkloadTrace::new(8, 8);
        assert_eq!(trace.refinement_skip_rate(), 0.0);
        assert_eq!(trace.pair_skip_rate(), 0.0);
    }

    #[test]
    fn canonical_bytes_ignore_stage_times_but_catch_semantic_changes() {
        let mut a = WorkloadTrace::new(64, 48);
        a.frames.push(frame(true, true, 100, 0));
        let mut b = a.clone();
        // Different wall times: still canonically equal.
        b.frames[0].stage_times = StageTimes { fc_s: 1.0, track_s: 2.0, map_s: 3.0, stall_s: 0.5 };
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        // Backend identity and cache hit rates are observational too: a
        // vectorized + cached run must compare canonically equal to the
        // scalar reference.
        b.frames[0].backend = "vectorized";
        b.frames[0].projection_cache_hits = 99;
        b.frames[0].projection_cache_misses = 7;
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        // Any semantic change shows up.
        b.frames[0].mapping.pairs += 1;
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        let mut c = a.clone();
        c.frames[0].fc_prev = Some(0.5);
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
        let mut d = a.clone();
        d.frames[0].is_keyframe = false;
        assert_ne!(a.canonical_bytes(), d.canonical_bytes());
    }

    #[test]
    fn stage_time_totals_accumulate() {
        let mut trace = WorkloadTrace::new(8, 8);
        let mut f0 = frame(true, true, 1, 0);
        f0.stage_times = StageTimes { fc_s: 0.5, track_s: 1.0, map_s: 2.0, stall_s: 0.25 };
        let mut f1 = frame(false, false, 1, 0);
        f1.stage_times = StageTimes { fc_s: 0.25, track_s: 0.5, map_s: 1.0, stall_s: 0.25 };
        trace.frames.push(f0);
        trace.frames.push(f1);
        let total = trace.stage_time_totals();
        assert_eq!(total.fc_s, 0.75);
        assert_eq!(total.track_s, 1.5);
        assert_eq!(total.map_s, 3.0);
        assert_eq!(total.stall_s, 0.5);
        assert_eq!(total.total_s(), 5.25, "stall time is waiting, not work");
    }
}
