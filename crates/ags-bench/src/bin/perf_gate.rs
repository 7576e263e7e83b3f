//! CI perf gate: compares the freshly generated `BENCH_kernels.json`
//! against the committed baseline and fails on kernel regressions.
//!
//! Usage: `perf_gate <baseline.json> <current.json> [max-regression]`
//!
//! `max-regression` is a fraction (default `0.25`): the gate fails when any
//! gated metric of the current run falls below
//! `baseline * (1 - max_regression)`. Gated against the baseline:
//!
//! * `looped_pairs_per_s` (per-pair CODEC motion estimation at SLAM frame
//!   scale: one 128×96 frame against 8 references, one `estimate` each;
//!   best of 10 samples). On a shared 2-vCPU host it spreads about as wide
//!   as the 25 % budget: six alternating stand-alone runs of the same loop
//!   read 7 614 … 11 210 pairs/s, and kernel-bench runs read 6 940 and
//!   7 950 against a committed 13 920. The bench records the run's own
//!   spread beside it as `looped_pairs_per_s_median` and
//!   `looped_pairs_per_s_worst` (not gated).
//! * `backbone_gmac_s` (multiply-accumulate rate of one coarse-tracking
//!   `DroidBackbone::run` — the convolution kernel every frame pays for)
//!
//! End-to-end frames/s, frame-time percentiles, resident map size and the
//! restore path of the configuration that ships are gated by the repo's
//! benchmark (`BENCHMARK.json`), not here.
//!
//! `migration_gap_ms` (the cut-over gap of a live cross-server stream
//! hand-off through a loopback remote store — final source checkpoint to
//! destination restored) is gated against an **absolute ceiling** instead
//! of the baseline: it must stay under a generous wall-clock ceiling so a
//! migration never quietly turns from a gap into an outage.
//!
//! `restore_bytes` (the store bytes an attach + restore fetches over a
//! multi-generation chain) is lower-is-better and gated as a **regression**
//! against the baseline (fail when the current value exceeds
//! `baseline * (1 + max_regression)`).
//!
//! Five same-host ratios are gated against an **absolute floor** (higher is
//! better, no baseline needed; the hardware class mostly cancels out of
//! them). `vectorized_speedup` — the `train_iteration` entry's taped
//! training pass on the scalar reference backend over the same pass on the
//! vectorized backend, median of the interleaved sample pairs' ratios —
//! must stay ≥ 3.2: five runs on the (shared, two-core) bench host read
//! 4.18, 4.21, 4.40, 4.43 and 4.60, with per-pair spreads
//! (`vectorized_speedup_min` / `_max`) of 3.61–4.59, 3.97–4.49, 3.50–5.50,
//! 3.79–5.74 and 3.98–5.24. The floor sits below the lowest `_min` (3.50)
//! and above 1.0 by more than the widest spread (2.0): a vectorized kernel
//! that loses about a third of its lead over the scalar oracle trips it.
//! `taped_speedup` — the same entry's stand-alone forward + backward over
//! the taped training pass, median over median —
//! must stay ≥ 1.10: it has read 1.26–2.06 over four runs on the (shared,
//! two-core) bench host and falls to 1.0 the moment backward walks the
//! tiles again instead of consuming the forward pass's tape, so the floor
//! sits between the effect and its absence. `taped_speedup_min` beside it is
//! the pessimistic pairing (fastest stand-alone sample over slowest taped
//! sample, 1.07–1.34 on that host) — recorded, not gated. `bin_speedup` —
//! the `bin` entry's complete table build plus every tile's historical
//! per-tile sort over the complete sort-once build alone, median over median
//! on a late-stream map — must stay ≥ 2.5: it read 3.6 and 3.9 on the bench
//! host (`bin_speedup_min`, the pessimistic pairing, 3.3 and 3.4), 2.9–3.0
//! (2.7) once the build counted in a first pass, and 3.3–3.9 (2.7–3.5) over
//! four runs since that pass counts through a difference grid; it falls to about 2.0 if the build
//! sorts every tile again (the canonical tables then pay that sort a second
//! time), so the floor still sits between the two. `prefix_speedup` — the
//! same entry's complete build over the build that stops filling a tile at
//! its prefix, median over median — must stay ≥ 1.2: it read 1.59–1.85 over
//! four runs (`prefix_speedup_min` 1.39–1.78) on the bench host, whose scene
//! fills every prefix a quarter of the way down its tables, and is 1.0 by
//! construction the moment the scatter fills whole tables again.
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

/// The metrics gated against the baseline (higher is better).
const GATED_KEYS: [&str; 2] = ["looped_pairs_per_s", "backbone_gmac_s"];

/// Metrics with a hardware-independent ceiling (lower is better): the gate
/// fails when the *current* value exceeds the ceiling, no baseline needed.
/// A key absent from both files is skipped (pre-metric baselines and
/// current files predating the bench entry); absent from the current file
/// only, it fails like any dropped gated metric. The `migration_gap_ms`
/// ceiling sits an order of magnitude above the loopback cut-over gap
/// measured at the time of writing (~540 ms: source quiesce + final
/// synchronous remote commit + restore) — wall-clock enough to absorb
/// runner noise, tight enough that a hand-off degenerating into an outage
/// trips it.
const CEILING_KEYS: [(&str, f64); 1] = [("migration_gap_ms", 5_000.0)];

/// Lower-is-better metrics gated against the baseline: the gate fails when
/// the current value exceeds `baseline * (1 + max_regression)`. Same
/// missing-key rules as the floors: no baseline skips, a dropped current
/// value fails.
const REGRESSION_CEILING_KEYS: [&str; 1] = ["restore_bytes"];

/// Metrics with a hardware-independent floor (higher is better): the gate
/// fails when the *current* value falls below the floor. Same missing-key
/// rules as [`CEILING_KEYS`]: absent from both files is skipped, dropped
/// from the current file only fails. All are same-host ratios within one
/// bench run (the training pass on the scalar reference backend vs the
/// vectorized one; stand-alone forward + backward vs the taped training
/// pass; table build plus per-tile sorts vs the sort-once build; the
/// complete build vs the prefix build; projection with terms derived on the
/// fly vs kept), so the floors travel across hardware classes. Each sits
/// below the committed reading by more than the spread recorded beside it
/// (see module docs).
const FLOOR_KEYS: [(&str, f64); 5] = [
    ("vectorized_speedup", 3.2),
    ("taped_speedup", 1.10),
    ("bin_speedup", 2.5),
    ("prefix_speedup", 1.2),
    ("terms_speedup", 1.3),
];

/// Extracts the first `"key": <number>` value from a JSON document.
///
/// The bench writes machine-generated JSON in which every checked metric
/// name occurs once (a test holds the committed file to that), so a scanner
/// is enough — no JSON dependency needed in CI.
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

    /// A bench document holding the two baseline-gated metrics.
    fn doc(looped: f64, gmac: f64) -> String {
        format!(
            r#"{{ "batched_window": {{ "pairs": 8, "looped_pairs_per_s": {looped} }},
                 "backbone": {{ "backbone_ms": 1.8, "backbone_gmac_s": {gmac} }} }}"#
        )
    }

    /// Appends `entry` (a `"name": {...}` member) to a `doc()` document.
    fn with(entry: &str) -> String {
        let d = doc(10.0, 10.0);
        format!("{}, {entry} }}", &d[..d.rfind('}').unwrap()])
    }

    #[test]
    fn committed_file_has_every_checked_key_once() {
        // The scanner reads a key's first occurrence: a second one (a nested
        // entry reusing a name) would be read in its place unnoticed.
        let committed = include_str!("../../../../BENCH_kernels.json");
        let keys = GATED_KEYS
            .iter()
            .chain(&REGRESSION_CEILING_KEYS)
            .copied()
            .chain(CEILING_KEYS.iter().chain(&FLOOR_KEYS).map(|&(key, _)| key));
        for key in keys {
            assert_eq!(committed.matches(&format!("\"{key}\"")).count(), 1, "{key}");
            assert!(extract_metric(committed, key).is_some(), "{key} does not parse");
        }
    }

    #[test]
    fn overlapped_key_resolves_to_main_entry_not_map_heavy() {
        // A nested entry reusing a key must not shadow the first (main)
        // occurrence, and a key that ends with another key's name must
        // find its own value.
        let json = r#"{ "end_to_end": { "overlapped_frames_per_s": 9.0 },
            "map_heavy": { "overlapped_frames_per_s": 1.0,
                           "map_overlapped_frames_per_s": 50.0 } }"#;
        assert_eq!(extract_metric(json, "overlapped_frames_per_s"), Some(9.0));
        assert_eq!(extract_metric(json, "map_overlapped_frames_per_s"), Some(50.0));
    }

    #[test]
    fn compaction_keys_do_not_alias_their_longer_siblings() {
        // `"compacted_frames_per_s"` must skip past `uncompacted_frames_per_s`
        // (listed first), and `delta_bytes_per_epoch` must not match inside
        // `compaction_delta_bytes_per_epoch` or vice versa.
        let json = r#"{ "delta_bytes_per_epoch": 1.0,
            "compaction": { "uncompacted_frames_per_s": 99.0,
                            "compacted_frames_per_s": 42.0,
                            "compaction_delta_bytes_per_epoch": 7.0 } }"#;
        assert_eq!(extract_metric(json, "compacted_frames_per_s"), Some(42.0));
        assert_eq!(extract_metric(json, "uncompacted_frames_per_s"), Some(99.0));
        assert_eq!(extract_metric(json, "delta_bytes_per_epoch"), Some(1.0));
        assert_eq!(extract_metric(json, "compaction_delta_bytes_per_epoch"), Some(7.0));
    }

    #[test]
    fn extracts_numbers_by_key() {
        let json = doc(7.5, 8.25);
        assert_eq!(extract_metric(&json, "looped_pairs_per_s"), Some(7.5));
        assert_eq!(extract_metric(&json, "backbone_gmac_s"), Some(8.25));
        assert_eq!(extract_metric(&json, "missing"), None);
    }

    #[test]
    fn passes_within_threshold_and_on_improvement() {
        // -20% is inside the 25% budget; improvements always pass.
        assert!(run(&doc(10.0, 10.0), &doc(8.0, 12.0), 0.25).is_ok());
    }

    #[test]
    fn fails_beyond_threshold() {
        let err = run(&doc(10.0, 10.0), &doc(7.0, 10.0), 0.25).unwrap_err(); // -30%
        assert!(err.contains("looped_pairs_per_s"), "{err}");
    }

    #[test]
    fn fails_when_current_drops_a_metric() {
        let current = r#"{ "batched_window": { "looped_pairs_per_s": 10.0 } }"#;
        let err = run(&doc(10.0, 10.0), current, 0.25).unwrap_err();
        assert!(err.contains("backbone_gmac_s"), "{err}");
    }

    #[test]
    fn skips_metrics_absent_from_baseline() {
        let baseline = r#"{ "bench": "kernels" }"#; // pre-gate baseline
        let report = run(baseline, &doc(1.0, 1.0), 0.25).unwrap();
        assert!(report.iter().all(|l| l.contains("skipped")));
    }

    #[test]
    fn gates_backbone_mac_rate_regressions() {
        let baseline = doc(10.0, 8.0);
        // -20% is inside the budget; a faster kernel always passes.
        assert!(run(&baseline, &doc(10.0, 6.4), 0.25).is_ok());
        assert!(run(&baseline, &doc(10.0, 12.0), 0.25).is_ok());
        // Falling back towards the scalar loop's 0.6 GMAC/s fails.
        let err = run(&baseline, &doc(10.0, 0.6), 0.25).unwrap_err();
        assert!(err.contains("backbone_gmac_s"), "{err}");
    }

    /// A `doc()` document with a `train_iteration` entry.
    fn with_train(taped: f64, vectorized: f64) -> String {
        with(&format!(
            r#""train_iteration": {{ "taped_ms": 13.9, "taped_speedup_min": 0.5,
               "taped_speedup": {taped}, "vectorized_speedup": {vectorized},
               "vectorized_speedup_min": 0.5, "vectorized_speedup_max": 9.0 }}"#
        ))
    }

    #[test]
    fn gates_vectorized_speedup_against_the_absolute_floor() {
        let floor = FLOOR_KEYS[0].1;
        // The sibling `_min` / `_max` keys must not shadow the gated one.
        assert_eq!(extract_metric(&with_train(1.4, 3.5), "vectorized_speedup"), Some(3.5));
        // Above the floor passes regardless of the baseline's value.
        assert!(run(&with_train(1.4, 5.0), &with_train(1.4, floor + 0.01), 0.25).is_ok());
        // Below the floor fails even when it beats the baseline: a vectorized
        // kernel barely faster than the scalar oracle no longer passes.
        let err = run(&with_train(1.4, 0.9), &with_train(1.4, 1.2), 0.25).unwrap_err();
        assert!(err.contains("vectorized_speedup"), "{err}");
        assert!(err.contains("below the absolute floor"), "{err}");
        // Absent from both files: skipped (pre-metric baselines).
        let report = run(&doc(10.0, 10.0), &doc(10.0, 10.0), 0.25).unwrap();
        assert!(report.iter().any(|l| l.contains("vectorized_speedup") && l.contains("skipped")));
        // Dropped from the current output while the baseline had it: fails.
        let err = run(&with_train(1.4, 3.5), &doc(10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("vectorized_speedup") && err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_taped_speedup_against_the_absolute_floor() {
        let vectorized = FLOOR_KEYS[0].1 + 1.0;
        let with_taped = |speedup: f64| with_train(speedup, vectorized);
        // The sibling `_min` key must not shadow the gated one.
        assert_eq!(extract_metric(&with_taped(1.4), "taped_speedup"), Some(1.4));
        assert!(run(&with_taped(1.4), &with_taped(1.15), 0.25).is_ok());
        // A backward that walks the tiles again reads 1.0 and trips the gate.
        let err = run(&with_taped(1.4), &with_taped(1.0), 0.25).unwrap_err();
        assert!(err.contains("taped_speedup") && err.contains("below the absolute floor"), "{err}");
        // Dropping it from the bench output fails too.
        let dropped = with_taped(1.4).replace(r#""taped_speedup": 1.4,"#, "");
        let err = run(&with_taped(1.4), &dropped, 0.25).unwrap_err();
        assert!(err.contains("taped_speedup") && err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_bin_speedup_against_the_absolute_floor() {
        let with_bin = |speedup: f64| {
            with(&format!(
                r#""bin": {{ "build_ms": 0.25, "bin_speedup_min": 0.5,
                   "bin_speedup": {speedup} }}"#
            ))
        };
        // The sibling `_min` key must not shadow the gated one.
        assert_eq!(extract_metric(&with_bin(3.4), "bin_speedup"), Some(3.4));
        assert!(run(&with_bin(3.4), &with_bin(2.55), 0.25).is_ok());
        // A build that sorts every tile again reads about 2.0 and trips the
        // gate, whatever the baseline read.
        let err = run(&with_bin(1.5), &with_bin(2.0), 0.25).unwrap_err();
        assert!(err.contains("bin_speedup") && err.contains("below the absolute floor"), "{err}");
        // Dropping the entry from the bench output fails too.
        let err = run(&with_bin(3.4), &doc(10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("bin_speedup") && err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_prefix_speedup_against_the_absolute_floor() {
        let with_prefix = |speedup: f64| {
            with(&format!(
                r#""bin": {{ "build_ms": 0.26, "prefix_speedup": {speedup},
                   "prefix_speedup_min": 0.5, "bin_speedup": 3.4 }}"#
            ))
        };
        // The sibling `_min` key must not shadow the gated one.
        assert_eq!(extract_metric(&with_prefix(1.6), "prefix_speedup"), Some(1.6));
        assert!(run(&with_prefix(1.6), &with_prefix(1.25), 0.25).is_ok());
        // A scatter that fills whole tables again reads 1.0.
        let err = run(&with_prefix(1.6), &with_prefix(1.0), 0.25).unwrap_err();
        assert!(
            err.contains("prefix_speedup") && err.contains("below the absolute floor"),
            "{err}"
        );
        // Dropping it from the bench output fails too.
        let dropped = with_prefix(1.6).replace(r#""prefix_speedup": 1.6,"#, "");
        let err = run(&with_prefix(1.6), &dropped, 0.25).unwrap_err();
        assert!(err.contains("prefix_speedup") && err.contains("missing"), "{err}");
    }

    #[test]
    fn gates_terms_speedup_against_the_absolute_floor() {
        let with_front_end = |speedup: f64| {
            with(&format!(
                r#""front_end": {{ "project_warm_ms": 0.85, "terms_speedup_min": 0.9,
                   "terms_speedup": {speedup} }}"#
            ))
        };
        // The sibling `_min` key must not shadow the gated one.
        assert_eq!(extract_metric(&with_front_end(2.1), "terms_speedup"), Some(2.1));
        assert!(run(&with_front_end(2.1), &with_front_end(1.35), 0.25).is_ok());
        // Terms derived every pass again read 1.0, whatever the baseline read.
        let err = run(&with_front_end(1.0), &with_front_end(1.05), 0.25).unwrap_err();
        assert!(err.contains("terms_speedup") && err.contains("below the absolute floor"), "{err}");
        let err = run(&with_front_end(2.1), &doc(10.0, 10.0), 0.25).unwrap_err();
        assert!(err.contains("terms_speedup") && err.contains("missing"), "{err}");
    }

    /// A `doc()` document with a `migration` entry.
    fn with_migration(gap_ms: f64, restore_bytes: f64) -> String {
        with(&format!(
            r#""migration": {{ "migration_gap_ms": {gap_ms},
               "restore_bytes": {restore_bytes} }}"#
        ))
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
        let report = run(&doc(10.0, 10.0), &doc(10.0, 10.0), 0.25).unwrap();
        assert!(report.iter().any(|l| l.contains("migration_gap_ms") && l.contains("skipped")));
        // Dropped from the current output while the baseline had it: fails.
        let err = run(&baseline, &doc(10.0, 10.0), 0.25).unwrap_err();
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
        // Dropped from the current output while the baseline had it: fails.
        let dropped = with(r#""migration": { "migration_gap_ms": 12.0 }"#);
        let err = run(&baseline, &dropped, 0.25).unwrap_err();
        assert!(err.contains("restore_bytes") && err.contains("missing"), "{err}");
    }

    #[test]
    fn parses_scientific_and_negative_numbers() {
        let json = r#"{"looped_pairs_per_s": 1.5e2, "backbone_gmac_s": -3}"#;
        assert_eq!(extract_metric(json, "looped_pairs_per_s"), Some(150.0));
        assert_eq!(extract_metric(json, "backbone_gmac_s"), Some(-3.0));
    }
}
