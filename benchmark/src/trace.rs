//! The traced run: one pass per workload with spans around every public
//! call into a layer, counting stores on both sides of the socket, and a
//! kernel replay on map states captured every tenth frame. It yields the
//! per-layer metrics; the end-to-end metrics never see any of it.
//!
//! * Serial workloads: after each `push_frame` the same frame also goes
//!   through a benchmark-owned composition of the program's public stage
//!   types (`fc.stage` → `track.stage` → `map.stage` → `map.publish` under a
//!   `frame` span). Its trajectory and map must equal the server's, and its
//!   stage spans are compared with the stage times the program reports.
//! * Overlapped workloads: an untraced pass first, then the traced pass;
//!   the two must agree bit for bit and their loop times give the tracing
//!   overhead.

use crate::calib::{with_exponent, HostClock};
use crate::driver::{run_pass, OpKind, PassOutcome, Tracing};
use crate::proc;
use crate::report::{cross_check, WorkloadReport};
use crate::span::Tracer;
use crate::stats::{cv, median};
use crate::sut::{self, EncodeTotals, ProbeSide, ReplayPoint, Server, StageRig, StoreOp};
use crate::workload::{self, Pipeline, Workload};
use std::collections::HashMap;
use std::path::Path;

/// A map state is captured after every frame whose index is `9 mod 10`.
const REPLAY_EVERY: usize = 10;

/// Runs the traced pass of every workload in `workloads`, writes
/// `trace-<workload>.json` into `out_dir` and returns the per-layer reports.
pub fn run(
    workloads: &[Workload],
    seed: u64,
    out_dir: &Path,
) -> Result<Vec<WorkloadReport>, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut clock = HostClock::new();
    let mut reports = Vec::new();
    for w in workloads {
        let (report, tracer) = trace_workload(w, seed, &mut clock);
        let path = out_dir.join(format!("trace-{}.json", w.name));
        let doc = tracer.to_json(w.name, seed, &with_exponent(&clock.scales(), w.host_exponent));
        std::fs::write(&path, doc.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {} spans written to {}", tracer.spans().len(), path.display());
        reports.push(report);
    }
    Ok(reports)
}

fn trace_workload(w: &Workload, seed: u64, clock: &mut HostClock) -> (WorkloadReport, Tracer) {
    let serial = w.pipeline == Pipeline::Serial;
    // What this workload must reproduce, and the untraced twin of the
    // traced pass (serial workloads carry their twin inside the pass).
    let reference = w
        .must_equal
        .and_then(workload::by_name)
        .map(|reference| run_pass(&reference, seed, clock, false, None));
    let untraced = (!serial).then(|| run_pass(w, seed, clock, false, None));

    let mut tracer = Tracer::new();
    let mut rig = serial.then(|| StageRig::new(w));
    let mut points: Vec<ReplayPoint> = Vec::new();
    let mut after_push = |server: &Server,
                          inputs: &[sut::InputStream],
                          (stream, frame): (usize, usize),
                          clock: &mut HostClock,
                          tracer: &mut Tracer| {
        if let Some(rig) = rig.as_mut() {
            let cal = clock.tick();
            tracer.scoped("frame", stream as u32, frame as u32, cal, |t| {
                rig.step(&inputs[stream], frame, t);
            });
        }
        if frame % REPLAY_EVERY == REPLAY_EVERY - 1 {
            points.extend(server.capture(stream));
        }
    };
    let traced = run_pass(
        w,
        seed,
        clock,
        true,
        Some(Tracing { tracer: &mut tracer, after_push: &mut after_push }),
    );

    // Kernel replay on the captured states, after the pass.
    let inputs = sut::synthesize_all(w, seed);
    let encode = sut::replay_kernels(w, &inputs, points, clock, &mut tracer);

    // Correctness: the traced pass against itself, its untraced twin, the
    // benchmark-owned composition and the workload it must reproduce.
    let mut passes: Vec<&PassOutcome> = vec![&traced];
    passes.extend(&untraced);
    let mut failures = cross_check(w, &passes, reference.as_ref().map(|r| r.outputs.as_slice()));
    if let Some(reference) = &reference {
        failures.extend(reference.failures.iter().map(|f| format!("reference: {f}")));
    }
    if let (Some(rig), Some(output)) = (&rig, traced.outputs.first()) {
        if rig.fingerprint() != output.fingerprint()[1..] {
            failures.push(format!(
                "benchmark-owned stage composition {:x?} differs from the server {:x?}",
                rig.fingerprint(),
                &output.fingerprint()[1..]
            ));
        }
    }

    let plain = clock.scales();
    let scales = with_exponent(&plain, w.host_exponent);
    let values =
        per_layer(w, &traced, untraced.as_ref(), &tracer, clock, (&scales, &plain), encode);
    let report = WorkloadReport {
        workload: w.name,
        passes: 1,
        latency_samples: w.unique_frames(),
        attempted: traced.attempted + untraced.as_ref().map_or(0, |p| p.attempted),
        failed: failures.len() as u64,
        failures,
        values,
        notes: Vec::new(),
    };
    (report, tracer)
}

/// Scaled milliseconds of the store operations in `ops`.
fn store_ms(ops: &[StoreOp], clock: &HostClock, scales: &[f64]) -> Vec<f64> {
    ops.iter()
        .map(|&(at, seconds)| {
            seconds * 1e3 * scales.get(clock.sample_before(at)).copied().unwrap_or(1.0)
        })
        .collect()
}

fn total_s(side: &ProbeSide) -> f64 {
    side.put_ops.iter().chain(&side.get_ops).map(|&(_, s)| s).sum()
}

/// Computes every per-layer metric of one workload.
fn per_layer(
    w: &Workload,
    traced: &PassOutcome,
    untraced: Option<&PassOutcome>,
    tracer: &Tracer,
    clock: &HostClock,
    (scales, replay_scales): (&[f64], &[f64]),
    encode: EncodeTotals,
) -> Vec<(&'static str, f64)> {
    // `scales` carry the workload's host exponent; the kernel replay runs
    // alone on the driver thread whatever the workload, so its spans take
    // the plain factors.
    let scale = |cal: usize| scales.get(cal).copied().unwrap_or(1.0);
    let serial = w.pipeline == Pipeline::Serial;
    let frames = traced.counts.frames.max(1) as f64;
    let c = &traced.counts;

    // Per-frame stage times in scaled ms: from the benchmark's own spans
    // where it composes the stages itself, else from the program's records.
    let from_records = |stage: usize| -> Vec<f64> {
        traced.records.iter().map(|(_, r, cal)| r.stage_s[stage] * 1e3 * scale(*cal)).collect()
    };
    let (fc_ms, track_ms, map_ms) = if serial {
        (
            tracer.scaled_ms("fc.stage", scales),
            tracer.scaled_ms("track.stage", scales),
            tracer.scaled_ms("map.stage", scales),
        )
    } else {
        (from_records(0), from_records(1), from_records(2))
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let busy = (sum(&fc_ms) + sum(&track_ms) + sum(&map_ms)).max(f64::MIN_POSITIVE);
    let replay = |name: &str| median(&tracer.scaled_ms(name, replay_scales));

    // Driver-thread time of a push that is not stage work: the frame a push
    // processes is the pushed one (serial) or the one `depth` behind it.
    let by_frame: HashMap<(usize, usize), [f64; 4]> =
        traced.records.iter().map(|(s, r, _)| ((*s, r.frame), r.stage_s)).collect();
    let (lag, inline_map) = match w.pipeline {
        Pipeline::Serial => (0, true),
        Pipeline::Overlapped(depth) => (depth.clamp(1, 8), true),
        Pipeline::MapOverlapped(depth, _) => (depth.clamp(1, 8), false),
    };
    let mut overhead_ms = Vec::new();
    let mut push_ms = Vec::new();
    let mut commit_push_ms = Vec::new();
    let mut recover_ms = Vec::new();
    for (i, kind) in traced.op_kind.iter().enumerate() {
        let ms = traced.op_raw_s[i] * 1e3 * scale(traced.op_cal[i]);
        match kind {
            OpKind::Push => push_ms.push(ms),
            OpKind::CommitPush => commit_push_ms.push(ms),
            OpKind::Recover => recover_ms.push(ms),
            OpKind::Finish => {}
        }
        if *kind != OpKind::Push {
            continue;
        }
        let Some((stream, frame)) = traced.op_target[i] else { continue };
        let Some(stage_s) = frame.checked_sub(lag).and_then(|f| by_frame.get(&(stream, f))) else {
            continue;
        };
        let [fc, track, map, stall] = *stage_s;
        let busy_s = if serial {
            fc + track + map
        } else {
            stall + track + if inline_map { map } else { 0.0 }
        };
        overhead_ms.push(ms - busy_s * 1e3 * scale(traced.op_cal[i]));
    }

    // Benchmark-owned stage spans against the stage times the program
    // reports for the same frame, pushed a moment earlier on the same
    // thread: the largest relative gap between the two totals over the
    // stages that are at least 1 % of the frame (FC is tens of microseconds
    // per frame; a span's own two clock reads are percents of that).
    let stage_gap_pct = if serial {
        [(0usize, &fc_ms), (1, &track_ms), (2, &map_ms)]
            .iter()
            .filter(|(_, ours)| sum(ours) >= 0.01 * busy)
            .map(|(stage, ours)| {
                let theirs = sum(&from_records(*stage));
                if theirs > 0.0 {
                    (sum(ours) / theirs - 1.0).abs() * 100.0
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    let scaled_loop =
        |p: &PassOutcome| p.op_raw_s.iter().zip(&p.op_cal).map(|(s, c)| s * scale(*c)).sum::<f64>();
    let overhead_pct = match untraced {
        Some(untraced) => (scaled_loop(traced) / scaled_loop(untraced) - 1.0) * 100.0,
        None => {
            let composed = sum(&tracer.scaled_ms("frame", scales));
            let pushed = sum(&tracer.scaled_ms("op.push", scales));
            (composed / pushed.max(f64::MIN_POSITIVE) - 1.0) * 100.0
        }
    };
    // Driver-thread wall time of the traced loop without what the hook did
    // between operations.
    let traced_loop: f64 = traced.op_raw_s.iter().sum();
    let plain = untraced.unwrap_or(traced);
    let plain_loop: f64 = plain.op_raw_s.iter().sum();

    let store = traced.store.clone().unwrap_or_default();
    let store_ops = (store.client.puts + store.client.gets).max(1) as f64;
    let mib = 1024.0 * 1024.0;
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let stage_wall: f64 =
        traced.records.iter().map(|(_, r, _)| r.stage_s[0] + r.stage_s[1] + r.stage_s[2]).sum();

    vec![
        ("fc.stage_ms", median(&fc_ms)),
        ("fc.me_ms", replay("replay.fc.me")),
        ("fc.sad_evals", c.sad_evals as f64),
        ("fc.refine_rate", c.refined_frames as f64 / frames),
        ("fc.keyframe_rate", c.keyframes as f64 / frames),
        ("track.stage_ms", median(&track_ms)),
        ("track.share", sum(&track_ms) / busy),
        ("track.coarse_ms", replay("replay.track.coarse")),
        ("track.refine_ms", replay("replay.track.refine")),
        ("track.refine_iters", c.refine_iters as f64),
        ("track.nn_macs", c.nn_macs as f64),
        ("track.grad_ops", c.track_grad_ops as f64),
        ("map.stage_ms", median(&map_ms)),
        ("map.share", sum(&map_ms) / busy),
        ("map.project_ms", replay("replay.map.project")),
        ("map.bin_ms", replay("replay.map.bin")),
        ("map.forward_ms", replay("replay.map.forward")),
        ("map.backward_ms", replay("replay.map.backward")),
        ("map.adam_ms", replay("replay.map.adam")),
        ("map.densify_ms", replay("replay.map.densify")),
        ("map.compact_ms", replay("replay.map.compact")),
        ("map.cow_copy_ms", replay("replay.map.cow_copy")),
        ("map.alpha_ops", c.alpha_ops as f64),
        ("map.blend_ops", c.blend_ops as f64),
        ("map.grad_ops", c.map_grad_ops as f64),
        ("map.pairs", c.pairs as f64),
        ("map.param_bytes", c.param_bytes as f64),
        ("map.skip_ratio", ratio(c.skipped_pairs, c.pairs + c.skipped_pairs)),
        ("map.proj_cache_hit_ratio", ratio(c.cache_hits, c.cache_hits + c.cache_misses)),
        ("map.splats", c.splats as f64),
        ("map.quantized_splats", c.quantized_splats as f64),
        ("map.pruned_splats", c.pruned_splats as f64),
        ("pipeline.overhead_ms", median(&overhead_ms)),
        ("pipeline.stall_ms", sum(&from_records(3)) / frames),
        ("pipeline.overlap", stage_wall / traced_loop.max(f64::MIN_POSITIVE)),
        ("pipeline.cpu_util", traced.loop_cpu_s / traced.loop_wall_s.max(f64::MIN_POSITIVE)),
        ("pipeline.inflight_frames", traced.mean_inflight),
        ("pipeline.dropped_frames", c.dropped_frames as f64),
        ("pipeline.rejected_pushes", c.rejected_pushes as f64),
        ("store.puts", store.client.puts as f64),
        ("store.put_bytes", store.client.put_bytes as f64),
        ("store.put_ms", median(&store_ms(&store.client.put_ops, clock, scales))),
        ("store.gets", store.client.gets as f64),
        ("store.get_bytes", store.client.get_bytes as f64),
        ("store.get_ms", median(&store_ms(&store.client.get_ops, clock, scales))),
        ("store.net_ms", (total_s(&store.client) - total_s(&store.server)) * 1e3 / store_ops),
        (
            "store.commit_ms",
            if commit_push_ms.is_empty() {
                0.0
            } else {
                median(&commit_push_ms) - median(&push_ms)
            },
        ),
        ("store.recover_ms", median(&recover_ms)),
        ("store.replayed_frames", traced.replayed_frames as f64),
        ("store.delta_bytes_per_epoch", ratio(store.delta_bytes, store.delta_records)),
        ("store.base_bytes", store.base_bytes as f64),
        (
            "store.encode_mib_s",
            if encode.seconds > 0.0 { encode.bytes as f64 / mib / encode.seconds } else { 0.0 },
        ),
        ("store.sink_dropped", store.sink_dropped as f64),
        ("store.commit_top_ups", store.commit_top_ups as f64),
        ("store.write_retries", store.write_retries as f64),
        ("store.remote_retries", store.remote_retries as f64),
        ("store.ckpt_mib", store.client.put_bytes as f64 / mib),
        ("proc.peak_rss_mib", proc::peak_rss_mib()),
        ("proc.cpu_s", proc::cpu_s()),
        ("host.cal_ms", median(clock.samples_ms())),
        ("host.cal_cv", cv(clock.samples_ms())),
        (
            "host.raw_frames_per_s",
            if plain_loop > 0.0 { w.unique_frames() as f64 / plain_loop } else { 0.0 },
        ),
        ("host.raw_setup_s", median(&plain.setup_raw_s)),
        ("trace.overhead_pct", overhead_pct),
        ("trace.stage_gap_pct", stage_gap_pct),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn every_per_layer_metric_is_computed_once_and_in_table_order() {
        let w = &workload::all()[0];
        let values = per_layer(
            w,
            &PassOutcome::default(),
            None,
            &Tracer::new(),
            &HostClock::new(),
            (&[], &[]),
            EncodeTotals::default(),
        );
        let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, table);
        // An empty pass yields numbers, not NaNs, for everything but the
        // process readings (which are whatever the test process used).
        for (name, value) in &values {
            assert!(value.is_finite(), "{name} = {value}");
        }
    }
}
