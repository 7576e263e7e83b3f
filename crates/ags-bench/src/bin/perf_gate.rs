//! CI perf gate: compares the freshly generated `BENCH_kernels.json`
//! against the committed baseline and fails on end-to-end throughput
//! regressions.
//!
//! Usage: `perf_gate <baseline.json> <current.json> [max-regression]`
//!
//! `max-regression` is a fraction (default `0.25`): the gate fails when any
//! gated metric of the current run falls below
//! `baseline * (1 - max_regression)`. Gated metrics are the end-to-end
//! `process_frame` frame rates plus the batched window-ME throughput — the
//! numbers the ROADMAP tracks per PR:
//!
//! * `serial_frames_per_s`
//! * `parallel_frames_per_s`
//! * `overlapped_frames_per_s`
//! * `batched_pairs_per_s` (the one-submission keyframe-window ME path)
//! * `map_overlapped_frames_per_s` (the Track ‖ Map axis on the map-heavy
//!   configuration)
//! * `s2_aggregate_frames_per_s` (the two-stream `MultiStreamServer`
//!   aggregate on the shared worker pool)
//! * `compacted_frames_per_s` (the map-heavy serial driver with compaction
//!   on — pruning and quantization must not cost throughput)
//! * `backbone_gmac_s` (multiply-accumulate rate of one coarse-tracking
//!   `DroidBackbone::run` — the convolution kernel every frame pays for)
//!
//! Some metrics are gated against an **absolute ceiling** instead of the
//! baseline — the committed baseline is irrelevant to that contract:
//! `compacted_map_bytes` (the steady-state resident map of the compacted
//! map-heavy run, deterministic on any hardware) must stay under its
//! ceiling so compaction never quietly stops pulling its weight, and
//! `migration_gap_ms` (the cut-over gap of a live cross-server stream
//! hand-off through a loopback remote store — final source checkpoint to
//! destination restored) must stay under a generous wall-clock ceiling so
//! a migration never quietly turns from a gap into an outage.
//!
//! Lower-is-better metrics gated as a **regression** against the baseline
//! (fail when the current value exceeds `baseline * (1 + max_regression)`):
//! `compaction_delta_bytes_per_epoch` (the epoch-delta log bytes of the
//! compacted run — quantization churn rewrites snapped chunks through the
//! delta log) and `restore_bytes` (the store bytes an attach + restore
//! fetches over a multi-generation chain).
//!
//! Four same-host ratios are gated against an **absolute floor** (higher is
//! better, no baseline needed; the hardware class mostly cancels out of
//! them). `vectorized_map_speedup` — the map-stage speedup of the
//! vectorized backend plus projection cache over the scalar reference — must
//! stay ≥ 2.0: committed files have read 2.2–3.5 across hosts and runs, with
//! a per-sample spread recorded beside it (`vectorized_map_speedup_min` /
//! `_max`, 0.6–0.8 wide on the bench host), so 2.0 sits under the current
//! reading by more than that spread and far above the 1.10 it replaces,
//! which would have let the SoA kernels lose two thirds of their win
//! unnoticed. `taped_speedup` — the `train_iteration` entry's stand-alone
//! forward + backward over the taped training pass, median over median —
//! must stay ≥ 1.10: it has read 1.26–2.06 over four runs on the (shared,
//! two-core) bench host and falls to 1.0 the moment backward walks the
//! tiles again instead of consuming the forward pass's tape, so the floor
//! sits between the effect and its absence. `taped_speedup_min` beside it is
//! the pessimistic pairing (fastest stand-alone sample over slowest taped
//! sample, 1.07–1.34 on that host) — recorded, not gated. `bin_speedup` —
//! the `bin` entry's table build plus every tile's historical per-tile sort
//! over the sort-once build alone, median over median on a late-stream map —
//! must stay ≥ 2.5: it read 3.6 and 3.9 on the bench host (`bin_speedup_min`,
//! the pessimistic pairing, 3.3 and 3.4) and reads 2.9–3.0 (2.7) since the
//! build counts in a first pass — that scene's projection is cache-resident,
//! where the two-pass build does not pay — and falls to about 2.0 if the
//! build sorts every tile again (the canonical tables then pay that sort a
//! second time), so the floor still sits between the two.
//! `terms_speedup` — the `front_end` entry's `project_gaussians` (terms
//! derived on the fly) over a projection from terms the cache kept, at a
//! pose it has not seen, median over median on a late-stream-shaped map —
//! must stay ≥ 1.3: it has read 1.9–2.6 across the bench host's fast and slow
//! phases (`terms_speedup_min` ≥ 1.7) and is 1.0 by construction the moment
//! tracking iterations derive Σ3 and the opacity again.
//!
//! Improvements and new metrics never fail the gate; a metric missing from
//! the *current* file does (the bench must keep emitting what the gate
//! checks).
//!
//! The comparison assumes baseline and current numbers come from the same
//! hardware class: wall-clock frames/s on a much slower (or faster) host
//! would gate the machine, not the code. The generous 25 % default budget
//! absorbs runner-to-runner noise within one class; whoever regenerates the
//! committed `BENCH_kernels.json` on exotic hardware should expect the next
//! CI run to re-baseline it.

use std::process::ExitCode;

/// The gated metrics: end-to-end frames/s and batched-ME pairs/s (higher is
/// better). Note `overlapped_frames_per_s` resolves to its **first**
/// occurrence — the main `end_to_end` entry, not `map_heavy`'s nested copy.
const GATED_KEYS: [&str; 8] = [
    "serial_frames_per_s",
    "parallel_frames_per_s",
    "overlapped_frames_per_s",
    "batched_pairs_per_s",
    "map_overlapped_frames_per_s",
    "s2_aggregate_frames_per_s",
    "compacted_frames_per_s",
    "backbone_gmac_s",
];

/// Metrics with a hardware-independent ceiling (lower is better): the gate
/// fails when the *current* value exceeds the ceiling, no baseline needed.
/// A key absent from both files is skipped (pre-metric baselines and
/// current files predating the bench entry); absent from the current file
/// only, it fails like any dropped gated metric. The `compacted_map_bytes`
/// ceiling sits ~20 % above the deterministic steady-state value of the
/// compacted map-heavy bench run (351 960 B at the time of writing) —
/// map growth past it means compaction stopped earning its keep.
/// `shed_overhead_pct` bounds what an installed-but-idle QoS controller
/// may cost the hot path. The `migration_gap_ms` ceiling sits an order of
/// magnitude above the loopback cut-over gap measured at the time of
/// writing (~540 ms: source quiesce + final synchronous remote commit +
/// restore) — wall-clock enough to absorb runner noise, tight enough
/// that a hand-off degenerating into an outage trips it.
const CEILING_KEYS: [(&str, f64); 3] =
    [("compacted_map_bytes", 420_000.0), ("shed_overhead_pct", 5.0), ("migration_gap_ms", 5_000.0)];

/// Lower-is-better metrics gated against the baseline: the gate fails when
/// the current value exceeds `baseline * (1 + max_regression)`. Same
/// missing-key rules as the floors: no baseline skips, a dropped current
/// value fails.
const REGRESSION_CEILING_KEYS: [&str; 2] = ["compaction_delta_bytes_per_epoch", "restore_bytes"];

/// Metrics with a hardware-independent floor (higher is better): the gate
/// fails when the *current* value falls below the floor. Same missing-key
/// rules as [`CEILING_KEYS`]: absent from both files is skipped, dropped
/// from the current file only fails. All are same-host ratios within one
/// bench run (vectorized + projection-cache map stage vs the scalar
/// reference; stand-alone forward + backward vs the taped training pass;
/// table build plus per-tile sorts vs the sort-once build; projection with
/// terms derived on the fly vs kept), so the floors travel across hardware
/// classes. Each sits below the committed reading by more than the spread
/// recorded beside it (see module docs).
const FLOOR_KEYS: [(&str, f64); 4] = [
    ("vectorized_map_speedup", 2.0),
    ("taped_speedup", 1.10),
    ("bin_speedup", 2.5),
    ("terms_speedup", 1.3),
];

/// Extracts the first `"key": <number>` value from a JSON document.
///
/// The bench writes flat, machine-generated JSON with unique metric names,
/// so a scanner is enough — no JSON dependency needed in CI.
fn extract_metric(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let colon = rest.find(':')?;
    let value = rest[colon + 1..].trim_start();
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

fn run(
    baseline_json: &str,
    current_json: &str,
    max_regression: f64,
) -> Result<Vec<String>, String> {
    let mut report = Vec::new();
    for key in GATED_KEYS {
        let Some(base) = extract_metric(baseline_json, key) else {
            // Baseline predates this metric: nothing to gate against.
            report.push(format!("{key}: no baseline, skipped"));
            continue;
        };
        let Some(current) = extract_metric(current_json, key) else {
            return Err(format!("{key}: missing from the current bench output"));
        };
        let floor = base * (1.0 - max_regression);
        let delta = (current / base - 1.0) * 100.0;
        if current < floor {
            return Err(format!(
                "{key}: {current:.3} is below the allowed floor {floor:.3} \
                 (baseline {base:.3}, {delta:+.1}%)"
            ));
        }
        report.push(format!("{key}: {current:.3} vs baseline {base:.3} ({delta:+.1}%) ok"));
    }
    for (key, ceiling) in CEILING_KEYS {
        let current = match (extract_metric(current_json, key), extract_metric(baseline_json, key))
        {
            (Some(current), _) => current,
            (None, None) => {
                report.push(format!("{key}: not emitted, skipped"));
                continue;
            }
            (None, Some(_)) => {
                return Err(format!("{key}: missing from the current bench output"));
            }
        };
        if current > ceiling {
            return Err(format!("{key}: {current:.3} exceeds the absolute ceiling {ceiling:.3}"));
        }
        report.push(format!("{key}: {current:.3} within ceiling {ceiling:.3} ok"));
    }
    for (key, floor) in FLOOR_KEYS {
        let current = match (extract_metric(current_json, key), extract_metric(baseline_json, key))
        {
            (Some(current), _) => current,
            (None, None) => {
                report.push(format!("{key}: not emitted, skipped"));
                continue;
            }
            (None, Some(_)) => {
                return Err(format!("{key}: missing from the current bench output"));
            }
        };
        if current < floor {
            return Err(format!("{key}: {current:.3} is below the absolute floor {floor:.3}"));
        }
        report.push(format!("{key}: {current:.3} above floor {floor:.3} ok"));
    }
    for key in REGRESSION_CEILING_KEYS {
        let Some(base) = extract_metric(baseline_json, key) else {
            report.push(format!("{key}: no baseline, skipped"));
            continue;
        };
        let Some(current) = extract_metric(current_json, key) else {
            return Err(format!("{key}: missing from the current bench output"));
        };
        let ceiling = base * (1.0 + max_regression);
        let delta = (current / base - 1.0) * 100.0;
        if current > ceiling {
            return Err(format!(
                "{key}: {current:.3} is above the allowed ceiling {ceiling:.3} \
                 (baseline {base:.3}, {delta:+.1}%)"
            ));
        }
        report.push(format!("{key}: {current:.3} vs baseline {base:.3} ({delta:+.1}%) ok"));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: perf_gate <baseline.json> <current.json> [max-regression]");
        return ExitCode::from(2);
    }
    let max_regression: f64 = args.get(3).map(|s| s.parse().expect("fraction")).unwrap_or(0.25);
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let baseline = read(&args[1]);
    let current = read(&args[2]);
    match run(&baseline, &current, max_regression) {
        Ok(report) => {
            println!("perf gate passed (max allowed regression {:.0}%):", max_regression * 100.0);
            for line in report {
                println!("  {line}");
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perf gate FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(serial: f64, parallel: f64, overlapped: f64) -> String {
        format!(
            r#"{{ "batched_window": {{ "batched_pairs_per_s": 100.0 }},
                 "end_to_end": {{ "serial_frames_per_s": {serial},
                 "parallel_frames_per_s": {parallel},
                 "overlapped_frames_per_s": {overlapped},
                 "map_heavy": {{ "overlapped_frames_per_s": 1.0,
                 "map_overlapped_frames_per_s": 50.0 }} }},
                 "multi_stream": {{ "s1_aggregate_frames_per_s": 10.0,
                 "s2_aggregate_frames_per_s": 20.0 }} }}"#
        )
    }

    #[test]
    fn overlapped_key_resolves_to_main_entry_not_map_heavy() {
        // `map_heavy` nests its own `overlapped_frames_per_s`; the gated key
        // must keep reading the first (main end-to-end) occurrence, and the
        // map-overlap key must find the nested metric.
        let json = doc(7.0, 8.0, 9.0);
        assert_eq!(extract_metric(&json, "overlapped_frames_per_s"), Some(9.0));
        assert_eq!(extract_metric(&json, "map_overlapped_frames_per_s"), Some(50.0));
    }

    #[test]
    fn gates_map_overlapped_regressions() {
        let baseline = doc(10.0, 10.0, 10.0);
        let mut current = doc(10.0, 10.0, 10.0);
        current = current.replace(
            "\"map_overlapped_frames_per_s\": 50.0",
            "\"map_overlapped_frames_per_s\": 10.0",
        );
        let err = run(&baseline, &current, 0.25).unwrap_err();
        assert!(err.contains("map_overlapped_frames_per_s"), "{err}");
    }

    #[test]
    fn gates_multi_stream_aggregate_regressions() {
        // Only the S=2 aggregate is gated; the S=1 sibling key must not
        // shadow it in the scanner.
        let json = doc(1.0, 1.0, 1.0);
        assert_eq!(extract_metric(&json, "s2_aggregate_frames_per_s"), Some(20.0));
        let baseline = doc(10.0, 10.0, 10.0);
        let current = doc(10.0, 10.0, 10.0)
            .replace("\"s2_aggregate_frames_per_s\": 20.0", "\"s2_aggregate_frames_per_s\": 5.0");
        let err = run(&baseline, &current, 0.25).unwrap_err();
        assert!(err.contains("s2_aggregate_frames_per_s"), "{err}");
    }

    #[test]
    fn extracts_numbers_by_key() {
        let json = doc(7.5, 8.25, 7.9);
        assert_eq!(extract_metric(&json, "serial_frames_per_s"), Some(7.5));
        assert_eq!(extract_metric(&json, "parallel_frames_per_s"), Some(8.25));
        assert_eq!(extract_metric(&json, "missing"), None);
    }

    #[test]
    fn passes_within_threshold_and_on_improvement() {
        let baseline = doc(10.0, 10.0, 10.0);
        // -20% is inside the 25% budget; improvements always pass.
        let current = doc(8.0, 12.0, 10.0);
        assert!(run(&baseline, &current, 0.25).is_ok());
    }

    #[test]
    fn fails_beyond_threshold() {
        let baseline = doc(10.0, 10.0, 10.0);
        let current = doc(7.0, 10.0, 10.0); // -30%
        let err = run(&baseline, &current, 0.25).unwrap_err();
        assert!(err.contains("serial_frames_per_s"), "{err}");
    }

    #[test]
    fn fails_when_current_drops_a_metric() {
        let baseline = doc(10.0, 10.0, 10.0);
        let current = r#"{ "end_to_end": { "serial_frames_per_s": 10.0 } }"#;
        let err = run(&baseline, current, 0.25).unwrap_err();
        assert!(err.contains("parallel_frames_per_s"), "{err}");
    }

    #[test]
    fn skips_metrics_absent_from_baseline() {
        let baseline = r#"{ "bench": "kernels" }"#; // pre-gate baseline
        let current = doc(1.0, 1.0, 1.0);
        let report = run(baseline, &current, 0.25).unwrap();
        assert!(report.iter().all(|l| l.contains("skipped")));
    }

    /// Appends a `compaction` entry to a `doc()` document.
    fn with_compaction(fps: f64, map_bytes: f64, delta: f64) -> String {
        let d = doc(10.0, 10.0, 10.0);
        format!(
            r#"{}, "compaction": {{ "uncompacted_frames_per_s": 99.0,
               "compacted_frames_per_s": {fps},
               "compacted_map_bytes": {map_bytes},
               "compaction_delta_bytes_per_epoch": {delta} }} }}"#,
            &d[..d.rfind('}').unwrap()]
        )
    }

    #[test]
    fn compaction_keys_do_not_alias_their_longer_siblings() {
        // `"compacted_frames_per_s"` must skip past `uncompacted_frames_per_s`
        // (listed first in the real bench JSON), and the checkpoint entry's
        // `delta_bytes_per_epoch` must not match inside
        // `compaction_delta_bytes_per_epoch` or vice versa.
        let json = format!(
            r#"{{ "delta_bytes_per_epoch": 1.0, {} "#,
            &with_compaction(42.0, 300000.0, 7.0)[1..]
        );
        assert_eq!(extract_metric(&json, "compacted_frames_per_s"), Some(42.0));
        assert_eq!(extract_metric(&json, "uncompacted_frames_per_s"), Some(99.0));
        assert_eq!(extract_metric(&json, "delta_bytes_per_epoch"), Some(1.0));
        assert_eq!(extract_metric(&json, "compaction_delta_bytes_per_epoch"), Some(7.0));
    }

    #[test]
    fn gates_compacted_throughput_regressions() {
        let baseline = with_compaction(10.0, 300000.0, 1000.0);
        // -20% is inside the budget.
        assert!(run(&baseline, &with_compaction(8.0, 300000.0, 1000.0), 0.25).is_ok());
        let err = run(&baseline, &with_compaction(7.0, 300000.0, 1000.0), 0.25).unwrap_err();
        assert!(err.contains("compacted_frames_per_s"), "{err}");
    }

    #[test]
    fn gates_compacted_map_bytes_against_the_absolute_ceiling() {
        let baseline = with_compaction(10.0, 300000.0, 1000.0);
        assert!(run(&baseline, &with_compaction(10.0, 419999.0, 1000.0), 0.25).is_ok());
        // Above the ceiling fails even though the baseline never saw it.
        let err = run(&baseline, &with_compaction(10.0, 500000.0, 1000.0), 0.25).unwrap_err();
        assert!(err.contains("compacted_map_bytes"), "{err}");
    }

    #[test]
    fn gates_compaction_delta_bytes_lower_is_better() {
        let baseline = with_compaction(10.0, 300000.0, 1000.0);
        // Shrinking the delta log always passes; +20% is inside the budget.
        assert!(run(&baseline, &with_compaction(10.0, 300000.0, 500.0), 0.25).is_ok());
        assert!(run(&baseline, &with_compaction(10.0, 300000.0, 1200.0), 0.25).is_ok());
        // +30% churn fails.
        let err = run(&baseline, &with_compaction(10.0, 300000.0, 1300.0), 0.25).unwrap_err();
        assert!(err.contains("compaction_delta_bytes_per_epoch"), "{err}");
        assert!(err.contains("above the allowed ceiling"), "{err}");
        // Dropped from the current output while the baseline had it: fails.
        let d = doc(10.0, 10.0, 10.0);
        let no_delta = format!(
            r#"{}, "compaction": {{ "compacted_frames_per_s": 10.0,
               "compacted_map_bytes": 300000.0 }} }}"#,
            &d[..d.rfind('}').unwrap()]
        );
        let err = run(&baseline, &no_delta, 0.25).unwrap_err();
        assert!(err.contains("compaction_delta_bytes_per_epoch"), "{err}");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_backbone_mac_rate_regressions() {
        let with_backbone = |gmac_s: f64| {
            let d = doc(10.0, 10.0, 10.0);
            format!(
                r#"{}, "backbone": {{ "backbone_ms": 1.8, "backbone_ms_min": 1.7,
                   "backbone_gmac_s": {gmac_s} }} }}"#,
                &d[..d.rfind('}').unwrap()]
            )
        };
        let baseline = with_backbone(8.0);
        // -20% is inside the budget; a faster kernel always passes.
        assert!(run(&baseline, &with_backbone(6.4), 0.25).is_ok());
        assert!(run(&baseline, &with_backbone(12.0), 0.25).is_ok());
        // Falling back towards the scalar loop's 0.6 GMAC/s fails.
        let err = run(&baseline, &with_backbone(0.6), 0.25).unwrap_err();
        assert!(err.contains("backbone_gmac_s"), "{err}");
        // Dropped from the current output while the baseline had it: fails.
        let err = run(&baseline, &doc(10.0, 10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("backbone_gmac_s") && err.contains("missing"), "{err}");
    }

    /// Appends a `vectorized_map_speedup` entry to a `doc()` document.
    fn with_vectorized_speedup(speedup: f64) -> String {
        let d = doc(10.0, 10.0, 10.0);
        format!(r#"{}, "vectorized_map_speedup": {speedup} }}"#, &d[..d.rfind('}').unwrap()])
    }

    #[test]
    fn gates_vectorized_map_speedup_against_the_absolute_floor() {
        let baseline = with_vectorized_speedup(2.5);
        // Above the floor passes regardless of the baseline's value.
        assert!(run(&baseline, &with_vectorized_speedup(2.01), 0.25).is_ok());
        assert!(run(&with_vectorized_speedup(4.0), &with_vectorized_speedup(2.2), 0.25).is_ok());
        // Below the floor fails even when it beats the baseline — and the
        // old 1.10 floor's "barely faster than scalar" no longer passes.
        let err =
            run(&with_vectorized_speedup(0.9), &with_vectorized_speedup(1.5), 0.25).unwrap_err();
        assert!(err.contains("vectorized_map_speedup"), "{err}");
        assert!(err.contains("below the absolute floor"), "{err}");
        // Absent from both files: skipped (pre-metric baselines).
        let report = run(&doc(10.0, 10.0, 10.0), &doc(10.0, 10.0, 10.0), 0.25).unwrap();
        assert!(report
            .iter()
            .any(|l| l.contains("vectorized_map_speedup") && l.contains("skipped")));
        // Dropped from the current output while the baseline had it: fails.
        let err = run(&baseline, &doc(10.0, 10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("vectorized_map_speedup"), "{err}");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_taped_speedup_against_the_absolute_floor() {
        let with_taped = |speedup: f64| {
            let d = doc(10.0, 10.0, 10.0);
            format!(
                r#"{}, "train_iteration": {{ "taped_ms": 13.9, "taped_speedup_min": 0.5,
                   "taped_speedup": {speedup} }} }}"#,
                &d[..d.rfind('}').unwrap()]
            )
        };
        // The sibling `_min` key must not shadow the gated one.
        assert_eq!(extract_metric(&with_taped(1.4), "taped_speedup"), Some(1.4));
        assert!(run(&with_taped(1.4), &with_taped(1.15), 0.25).is_ok());
        // A backward that walks the tiles again reads 1.0 and trips the gate.
        let err = run(&with_taped(1.4), &with_taped(1.0), 0.25).unwrap_err();
        assert!(err.contains("taped_speedup") && err.contains("below the absolute floor"), "{err}");
        // Dropping the entry from the bench output fails too.
        let err = run(&with_taped(1.4), &doc(10.0, 10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("taped_speedup") && err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_bin_speedup_against_the_absolute_floor() {
        let with_bin = |speedup: f64| {
            let d = doc(10.0, 10.0, 10.0);
            format!(
                r#"{}, "bin": {{ "build_ms": 0.25, "bin_speedup_min": 0.5,
                   "bin_speedup": {speedup} }} }}"#,
                &d[..d.rfind('}').unwrap()]
            )
        };
        // The sibling `_min` key must not shadow the gated one.
        assert_eq!(extract_metric(&with_bin(3.4), "bin_speedup"), Some(3.4));
        assert!(run(&with_bin(3.4), &with_bin(2.55), 0.25).is_ok());
        // A build that sorts every tile again reads about 2.0 and trips the
        // gate, whatever the baseline read.
        let err = run(&with_bin(1.5), &with_bin(2.0), 0.25).unwrap_err();
        assert!(err.contains("bin_speedup") && err.contains("below the absolute floor"), "{err}");
        // Dropping the entry from the bench output fails too.
        let err = run(&with_bin(3.4), &doc(10.0, 10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("bin_speedup") && err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_terms_speedup_against_the_absolute_floor() {
        let with_front_end = |speedup: f64| {
            let d = doc(10.0, 10.0, 10.0);
            format!(
                r#"{}, "front_end": {{ "project_warm_ms": 0.85, "terms_speedup_min": 0.9,
                   "terms_speedup": {speedup} }} }}"#,
                &d[..d.rfind('}').unwrap()]
            )
        };
        // The sibling `_min` key must not shadow the gated one.
        assert_eq!(extract_metric(&with_front_end(2.1), "terms_speedup"), Some(2.1));
        assert!(run(&with_front_end(2.1), &with_front_end(1.35), 0.25).is_ok());
        // Terms derived every pass again read 1.0, whatever the baseline read.
        let err = run(&with_front_end(1.0), &with_front_end(1.05), 0.25).unwrap_err();
        assert!(err.contains("terms_speedup") && err.contains("below the absolute floor"), "{err}");
        let err = run(&with_front_end(2.1), &doc(10.0, 10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("terms_speedup") && err.contains("missing"), "{err}");
    }

    /// Appends a `migration` entry to a `doc()` document.
    fn with_migration(gap_ms: f64, restore_bytes: f64) -> String {
        let d = doc(10.0, 10.0, 10.0);
        format!(
            r#"{}, "migration": {{ "migration_gap_ms": {gap_ms},
               "restore_bytes": {restore_bytes} }} }}"#,
            &d[..d.rfind('}').unwrap()]
        )
    }

    #[test]
    fn gates_migration_gap_against_the_absolute_ceiling() {
        let baseline = with_migration(500.0, 20000.0);
        // Within the ceiling: passes regardless of the baseline's value.
        assert!(run(&baseline, &with_migration(4999.0, 20000.0), 0.25).is_ok());
        // Above the ceiling: fails even though the baseline never saw it.
        let err = run(&baseline, &with_migration(6000.0, 20000.0), 0.25).unwrap_err();
        assert!(err.contains("migration_gap_ms"), "{err}");
        assert!(err.contains("exceeds the absolute ceiling"), "{err}");
        // Absent from both files: skipped (pre-metric baselines).
        let report = run(&doc(10.0, 10.0, 10.0), &doc(10.0, 10.0, 10.0), 0.25).unwrap();
        assert!(report.iter().any(|l| l.contains("migration_gap_ms") && l.contains("skipped")));
        // Dropped from the current output while the baseline had it: fails.
        let err = run(&baseline, &doc(10.0, 10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("migration_gap_ms"), "{err}");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_restore_bytes_lower_is_better() {
        let baseline = with_migration(12.0, 20000.0);
        // Fetching less always passes; +20% is inside the budget.
        assert!(run(&baseline, &with_migration(12.0, 15000.0), 0.25).is_ok());
        assert!(run(&baseline, &with_migration(12.0, 24000.0), 0.25).is_ok());
        // +30% fails against the baseline regression ceiling.
        let err = run(&baseline, &with_migration(12.0, 26000.0), 0.25).unwrap_err();
        assert!(err.contains("restore_bytes"), "{err}");
        assert!(err.contains("above the allowed ceiling"), "{err}");
    }

    #[test]
    fn parses_scientific_and_negative_numbers() {
        let json = r#"{"serial_frames_per_s": 1.5e2, "parallel_frames_per_s": -3}"#;
        assert_eq!(extract_metric(json, "serial_frames_per_s"), Some(150.0));
        assert_eq!(extract_metric(json, "parallel_frames_per_s"), Some(-3.0));
    }
}
