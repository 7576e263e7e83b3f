//! Metric definitions and the reduction of passes to reported numbers.
//!
//! The tables here are the benchmark's statement of its metrics;
//! `BENCHMARK.json` repeats them for the driver, and a unit test keeps the
//! two identical.

use crate::calib::{normalise, with_exponent};
use crate::driver::PassOutcome;
use crate::json::Value;
use crate::stats::{median, median_of_passes, percentile, samples_beyond};
use crate::sut::StreamOutput;
use crate::workload::Workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen before a change is a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, the same on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("frames_per_s", "frames/s", Higher, 0.20),
    e2e("frame_ms_p50", "ms", Lower, 0.25),
    e2e("frame_ms_p90", "ms", Lower, 0.25),
    e2e("ate_rmse_cm", "cm", Lower, 0.05),
    e2e("psnr_db", "dB", Higher, 0.05),
    e2e("map_mib", "MiB", Lower, 0.05),
];

/// The per-layer metrics of the traced run (layers = modules).
pub const PER_LAYER: &[MetricDef] = &[
    // fc: ags-codec, ags-core::fc / FcStage
    layer("fc.stage_ms", "ms", Lower),
    layer("fc.me_ms", "ms", Lower),
    layer("fc.sad_evals", "count", Lower),
    layer("fc.refine_rate", "ratio", Lower),
    layer("fc.keyframe_rate", "ratio", Lower),
    // track: ags-track, ags-neural, TrackStage
    layer("track.stage_ms", "ms", Lower),
    layer("track.share", "ratio", Lower),
    layer("track.coarse_ms", "ms", Lower),
    layer("track.refine_ms", "ms", Lower),
    layer("track.refine_iters", "count", Lower),
    layer("track.nn_macs", "count", Lower),
    layer("track.grad_ops", "count", Lower),
    // map: ags-splat, ags-slam keyframes, MapStage
    layer("map.stage_ms", "ms", Lower),
    layer("map.share", "ratio", Lower),
    layer("map.project_ms", "ms", Lower),
    layer("map.bin_ms", "ms", Lower),
    layer("map.forward_ms", "ms", Lower),
    layer("map.backward_ms", "ms", Lower),
    layer("map.adam_ms", "ms", Lower),
    layer("map.densify_ms", "ms", Lower),
    layer("map.compact_ms", "ms", Lower),
    layer("map.cow_copy_ms", "ms", Lower),
    layer("map.alpha_ops", "count", Lower),
    layer("map.blend_ops", "count", Lower),
    layer("map.grad_ops", "count", Lower),
    layer("map.pairs", "count", Lower),
    layer("map.param_bytes", "bytes", Lower),
    layer("map.skip_ratio", "ratio", Higher),
    layer("map.proj_cache_hit_ratio", "ratio", Higher),
    layer("map.splats", "count", Lower),
    layer("map.quantized_splats", "count", Higher),
    layer("map.pruned_splats", "count", Higher),
    // pipeline: ags-core::{pipeline, pipelined, server}, ags-math::parallel
    layer("pipeline.overhead_ms", "ms", Lower),
    layer("pipeline.stall_ms", "ms", Lower),
    layer("pipeline.overlap", "ratio", Higher),
    layer("pipeline.cpu_util", "ratio", Higher),
    layer("pipeline.inflight_frames", "count", Lower),
    layer("pipeline.dropped_frames", "count", Lower),
    layer("pipeline.rejected_pushes", "count", Lower),
    // store: ags-store, ags-core::checkpoint
    layer("store.puts", "count", Lower),
    layer("store.put_bytes", "bytes", Lower),
    layer("store.put_ms", "ms", Lower),
    layer("store.gets", "count", Lower),
    layer("store.get_bytes", "bytes", Lower),
    layer("store.get_ms", "ms", Lower),
    layer("store.net_ms", "ms", Lower),
    layer("store.commit_ms", "ms", Lower),
    layer("store.recover_ms", "ms", Lower),
    layer("store.replayed_frames", "count", Lower),
    layer("store.delta_bytes_per_epoch", "bytes", Lower),
    layer("store.base_bytes", "bytes", Lower),
    layer("store.encode_mib_s", "MiB/s", Higher),
    layer("store.sink_dropped", "count", Lower),
    layer("store.commit_top_ups", "count", Lower),
    layer("store.write_retries", "count", Lower),
    layer("store.remote_retries", "count", Lower),
    layer("store.ckpt_mib", "MiB", Lower),
    // process, host and the tracer itself
    layer("proc.peak_rss_mib", "MiB", Lower),
    layer("proc.cpu_s", "s", Lower),
    layer("host.cal_ms", "ms", Lower),
    layer("host.cal_cv", "ratio", Lower),
    layer("host.raw_frames_per_s", "frames/s", Higher),
    layer("host.raw_setup_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.stage_gap_pct", "%", Lower),
];

/// Measured values of one workload, in table order.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: &'static str,
    /// Passes measured.
    pub passes: usize,
    /// Latency samples per pass (unique frames).
    pub latency_samples: usize,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed over all passes (bit-mismatches included).
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// `(name, value)` for every metric of the table the run reports.
    pub values: Vec<(&'static str, f64)>,
    /// Extra readings printed but not part of the result line.
    pub notes: Vec<(String, f64, &'static str)>,
}

impl WorkloadReport {
    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Whether every operation succeeded and every output matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The `metrics` object of the result line, names optionally prefixed.
    pub fn metrics_json(&self, table: &[MetricDef], prefix: &str) -> Vec<(String, Value)> {
        table
            .iter()
            .map(|def| {
                let value = self.value(def.name).unwrap_or(f64::NAN);
                (
                    format!("{prefix}{}", def.name),
                    Value::obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(def.unit.into())),
                    ]),
                )
            })
            .collect()
    }

    /// Prints every metric by name and unit.
    pub fn print(&self, table: &[MetricDef]) {
        println!(
            "workload {}  passes={} latency_samples_per_pass={} ops_attempted={} ops_failed={}",
            self.workload, self.passes, self.latency_samples, self.attempted, self.failed
        );
        for def in table {
            let value = self.value(def.name).unwrap_or(f64::NAN);
            let bound =
                def.bound.map_or(String::new(), |b| format!("  (bound {:.0} %)", b * 100.0));
            println!(
                "  {:<28} {:>16.6} {:<9} {} is better{}",
                def.name,
                value,
                def.unit,
                def.better.as_str(),
                bound
            );
        }
        for (name, value, unit) in &self.notes {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

/// Timing figures of a set of passes, from per-operation medians.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timings {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Sum of per-operation medians: the loop time of a typical pass.
    pub loop_s: f64,
    /// Unique frames ÷ `loop_s`.
    pub frames_per_s: f64,
    /// Median of per-frame median latencies, milliseconds.
    pub p50_ms: f64,
    /// p90 of per-frame median latencies, milliseconds.
    pub p90_ms: f64,
}

/// Reduces `passes` to [`Timings`]. With `scales`, every span is first
/// converted to reference-host time; without, the raw spans are used.
pub fn timings(passes: &[PassOutcome], unique_frames: usize, scales: Option<&[f64]>) -> Timings {
    let scaled = |raw: &[f64], cal: &[usize]| match scales {
        Some(scales) => normalise(raw, cal, scales),
        None => raw.to_vec(),
    };
    let setups: Vec<f64> =
        passes.iter().flat_map(|p| scaled(&p.setup_raw_s, &p.setup_cal)).collect();
    let ops: Vec<Vec<f64>> = passes.iter().map(|p| scaled(&p.op_raw_s, &p.op_cal)).collect();
    let latencies: Vec<Vec<f64>> =
        passes.iter().map(|p| scaled(&p.latency_raw_s, &p.latency_cal)).collect();
    let loop_s: f64 = median_of_passes(&ops).iter().sum();
    let latency_ms: Vec<f64> = median_of_passes(&latencies).iter().map(|s| s * 1e3).collect();
    Timings {
        setup_s: median(&setups),
        loop_s,
        frames_per_s: if loop_s > 0.0 { unique_frames as f64 / loop_s } else { 0.0 },
        p50_ms: median(&latency_ms),
        p90_ms: percentile(&latency_ms, 0.9),
    }
}

/// Checks the passes of one workload against each other (and against
/// `reference`, the outputs of the workload this one must reproduce) and
/// returns the failures. Identical fingerprints are also what makes the
/// per-operation median meaningful: operation `j` did the same work in
/// every pass.
pub fn cross_check(
    workload: &Workload,
    passes: &[&PassOutcome],
    reference: Option<&[StreamOutput]>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(first) = passes.first() else {
        return vec!["no pass ran".into()];
    };
    for (k, pass) in passes.iter().enumerate() {
        failures.extend(pass.failures.iter().map(|f| format!("pass {k}: {f}")));
        if pass.op_raw_s.len() != first.op_raw_s.len() {
            failures.push(format!(
                "pass {k}: {} timed operations, pass 0 had {}",
                pass.op_raw_s.len(),
                first.op_raw_s.len()
            ));
        }
        if pass.outputs.len() != first.outputs.len() {
            failures.push(format!("pass {k}: {} stream outputs", pass.outputs.len()));
            continue;
        }
        for (s, (a, b)) in first.outputs.iter().zip(&pass.outputs).enumerate() {
            if a.fingerprint() != b.fingerprint() {
                failures.push(format!(
                    "pass {k} stream {s}: trace/trajectory/map {:x?} differ from pass 0 {:x?}",
                    b.fingerprint(),
                    a.fingerprint()
                ));
            }
        }
    }
    if let (Some(reference), Some(name)) = (reference, workload.must_equal) {
        if reference.len() != first.outputs.len() {
            failures.push(format!("{name} has {} streams", reference.len()));
        }
        for (s, (a, b)) in reference.iter().zip(&first.outputs).enumerate() {
            if a.fingerprint() != b.fingerprint() {
                failures.push(format!(
                    "stream {s}: trace/trajectory/map {:x?} differ from {name}'s {:x?}",
                    b.fingerprint(),
                    a.fingerprint()
                ));
            }
        }
    }
    if let Some(d) = &workload.durability {
        if first.recoveries != d.crash_after.len() as u64 {
            failures.push(format!(
                "{} recoveries, {} scheduled",
                first.recoveries,
                d.crash_after.len()
            ));
        }
    }
    failures
}

/// The end-to-end report of one workload from its `K` passes.
pub fn end_to_end(
    workload: &Workload,
    passes: &[PassOutcome],
    scales: &[f64],
    reference: Option<&[StreamOutput]>,
) -> WorkloadReport {
    let failures = cross_check(workload, &passes.iter().collect::<Vec<_>>(), reference);
    let frames = workload.unique_frames();
    let scales = with_exponent(scales, workload.host_exponent);
    let scaled = timings(passes, frames, Some(&scales));
    let raw = timings(passes, frames, None);
    let outputs: &[StreamOutput] = passes.first().map_or(&[], |p| &p.outputs);
    let streams = outputs.len().max(1) as f64;
    let mean = |f: fn(&StreamOutput) -> f64| outputs.iter().map(f).sum::<f64>() / streams;
    let map_mib = outputs.iter().map(|o| o.map_bytes as f64).sum::<f64>() / (1024.0 * 1024.0);
    let values = vec![
        ("setup_s", scaled.setup_s),
        ("frames_per_s", scaled.frames_per_s),
        ("frame_ms_p50", scaled.p50_ms),
        ("frame_ms_p90", scaled.p90_ms),
        ("ate_rmse_cm", mean(|o| o.ate_cm)),
        ("psnr_db", mean(|o| o.psnr_db)),
        ("map_mib", map_mib),
    ];
    let wall: Vec<f64> = passes.iter().map(|p| p.loop_wall_s).collect();
    let notes = vec![
        ("host.raw_setup_s".to_string(), raw.setup_s, "s"),
        ("host.raw_frames_per_s".to_string(), raw.frames_per_s, "frames/s"),
        ("host.raw_frame_ms_p50".to_string(), raw.p50_ms, "ms"),
        ("host.raw_frame_ms_p90".to_string(), raw.p90_ms, "ms"),
        ("host.pass_wall_s_median".to_string(), median(&wall), "s"),
        ("p90.samples_beyond".to_string(), samples_beyond(frames, 0.9) as f64, "count"),
        (
            "records_lost_with_server".to_string(),
            passes.first().map_or(0, |p| p.unreported_frames) as f64,
            "count",
        ),
    ];
    WorkloadReport {
        workload: workload.name,
        passes: passes.len(),
        latency_samples: frames,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: failures.len() as u64,
        failures,
        values,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn pass(ops: &[f64], latencies: &[f64], setup: f64) -> PassOutcome {
        PassOutcome {
            setup_raw_s: vec![setup],
            setup_cal: vec![0],
            op_raw_s: ops.to_vec(),
            op_cal: vec![0; ops.len()],
            latency_raw_s: latencies.to_vec(),
            latency_cal: vec![0; latencies.len()],
            ..PassOutcome::default()
        }
    }

    #[test]
    fn timings_come_from_per_operation_medians() {
        // Op 1 stalls in pass 0 only: the median pass is 0.1 + 0.2 + 0.1.
        let passes = [
            pass(&[0.1, 0.9, 0.1], &[0.1, 0.9], 0.5),
            pass(&[0.1, 0.2, 0.1], &[0.1, 0.2], 0.3),
            pass(&[0.1, 0.2, 0.1], &[0.1, 0.2], 0.4),
        ];
        let t = timings(&passes, 2, None);
        assert!((t.loop_s - 0.4).abs() < 1e-12);
        assert!((t.frames_per_s - 5.0).abs() < 1e-9);
        assert_eq!(t.setup_s, 0.4);
        assert!((t.p50_ms - 150.0).abs() < 1e-9);
        assert!((t.p90_ms - 100.0).abs() < 1e-9, "lower-rule p90 of two samples is the first");
        // A host running at half speed (scale 0.5) halves every span.
        let half = timings(&passes, 2, Some(&[0.5]));
        assert!((half.loop_s - 0.2).abs() < 1e-12);
        assert_eq!(half.setup_s, 0.2);
    }

    #[test]
    fn tables_are_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique across both tables");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert_eq!(def.bound.is_some(), END_TO_END.contains(def));
            assert!(def.bound.map_or(true, |b| b > 0.0 && b <= 0.25), "{}", def.name);
        }
    }

    /// `BENCHMARK.json` (one directory up) must state exactly these tables
    /// and workloads. The file is outside the package, so the test passes
    /// vacuously where the package was copied out on its own.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("{path} not found; skipping");
            return;
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &doc {
            Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
            "exactly the contract's keys"
        );
        let check = |key: &str, table: &[MetricDef]| {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (item, def) in listed.iter().zip(table) {
                assert_eq!(item.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(
                    item.get("unit").and_then(Value::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    item.get("better").and_then(Value::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(item.get("bound").and_then(Value::as_f64), def.bound, "{}", def.name);
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let suite = crate::workload::all();
        let listed = doc.get("workloads").unwrap().items();
        assert_eq!(listed.len(), suite.len());
        for (item, w) in listed.iter().zip(&suite) {
            assert_eq!(item.get("name").and_then(Value::as_str), Some(w.name));
            assert_eq!(item.get("why").and_then(Value::as_str), Some(w.why));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(f64::from(crate::DEFAULT_SECONDS))
        );
    }
}
