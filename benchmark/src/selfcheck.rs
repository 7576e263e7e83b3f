//! `selfcheck`: does the benchmark repeat itself within its own bounds?
//!
//! The suite is run as two interleaved sets (A B A B …) of `R` runs each,
//! run `i` of both sets on seed `seed + i` — the same code twice, the way a
//! later change will be compared with its parent. For every workload ×
//! end-to-end metric it prints both medians, the quartiles, the spread
//! (interquartile range ÷ median, which must stay within the metric's
//! bound) and the gap between the two medians in the metric's bad direction
//! (likewise). Metrics that do not depend on time must be bit-equal between
//! run `i` of A and run `i` of B.

use crate::json::{self, Value};
use crate::report::{Better, MetricDef, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};
use crate::workload::Workload;

/// End-to-end metrics that are a function of the inputs alone.
const DETERMINISTIC: &[&str] = &["ate_rmse_cm", "psnr_db", "map_mib"];

/// Reads the end-to-end table (with its bounds) from `BENCHMARK.json`, in
/// the current directory or its parent.
fn bounds_from_file() -> Result<Vec<MetricDef>, String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in . or ..; run selfcheck from the repo root")?;
    parse_bounds(&json::parse(&text)?)
}

/// The end-to-end table of a parsed `BENCHMARK.json`: every metric the
/// benchmark reports, with the bound the file states for it.
fn parse_bounds(doc: &Value) -> Result<Vec<MetricDef>, String> {
    let listed = doc.get("end_to_end").ok_or("BENCHMARK.json has no end_to_end")?.items();
    END_TO_END
        .iter()
        .map(|def| {
            let item = listed
                .iter()
                .find(|item| item.get("name").and_then(Value::as_str) == Some(def.name))
                .ok_or_else(|| format!("BENCHMARK.json does not list {}", def.name))?;
            let bound = item
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| *b > 0.0)
                .ok_or_else(|| format!("BENCHMARK.json gives {} no bound", def.name))?;
            Ok(MetricDef { bound: Some(bound), ..*def })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Runs the check; `Ok(true)` when every spread and gap is within bounds.
pub fn run(workloads: &[Workload], seed: u64, seconds: f64, runs: usize) -> Result<bool, String> {
    let table = bounds_from_file()?;
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); table.len()]; workloads.len()]; 2];
    let mut ok = true;
    for run in 0..runs {
        for (set, name) in ["A", "B"].iter().enumerate() {
            let run_seed = seed + run as u64;
            let measured = crate::measure(workloads, run_seed, seconds);
            for (w, report) in measured.iter().enumerate() {
                println!(
                    "# set {name} run {run} seed {run_seed} {}: passes={} failed={} {}",
                    report.workload,
                    report.passes,
                    report.failed,
                    table
                        .iter()
                        .map(|d| format!(
                            "{}={:.4}",
                            d.name,
                            report.value(d.name).unwrap_or(f64::NAN)
                        ))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                for failure in &report.failures {
                    println!("FAILED {} : {failure}", report.workload);
                }
                ok &= report.correct();
                for (m, def) in table.iter().enumerate() {
                    values[set][w][m].push(report.value(def.name).unwrap_or(f64::NAN));
                }
            }
        }
    }

    println!(
        "\n{:<17} {:<13} {:>11} {:>11} {:>7} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "iqr A%", "iqr B%", "gap %", "bound%"
    );
    for (w, workload) in workloads.iter().enumerate() {
        for (m, def) in table.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let bound = def.bound.unwrap_or(0.0);
            let (med_a, med_b) = (median(a), median(b));
            let (spread_a, spread_b) = (iqr_share(a), iqr_share(b));
            let gap = worsening(def, med_a, med_b).max(worsening(def, med_b, med_a));
            let mut verdict = Vec::new();
            // setup_s is exempt from the spread rule (it is a sub-second
            // span), not from the gap rule.
            if def.name != "setup_s" && spread_a.max(spread_b) > bound {
                verdict.push("SPREAD OVER BOUND");
            } else if def.name != "setup_s" && spread_a.max(spread_b) > bound / 3.0 {
                verdict.push("spread over a third of the bound");
            }
            if gap > bound {
                verdict.push("GAP OVER BOUND");
            }
            if DETERMINISTIC.contains(&def.name)
                && a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
            {
                verdict.push("NOT BIT-EQUAL BETWEEN SETS");
            }
            ok &= !verdict.iter().any(|v| v.chars().next().is_some_and(char::is_uppercase));
            println!(
                "{:<17} {:<13} {:>11.4} {:>11.4} {:>7.2} {:>7.2} {:>7.2} {:>6.1}  {}",
                workload.name,
                def.name,
                med_a,
                med_b,
                spread_a * 100.0,
                spread_b * 100.0,
                gap * 100.0,
                bound * 100.0,
                if verdict.is_empty() { "ok".to_string() } else { verdict.join("; ") }
            );
            let (q1a, _, q3a) = quartiles(a);
            let (q1b, _, q3b) = quartiles(b);
            println!(
                "{:<17} {:<13} quartiles A [{q1a:.4}, {q3a:.4}]  B [{q1b:.4}, {q3b:.4}]",
                "", ""
            );
        }
    }
    println!("\nselfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let lower = END_TO_END.iter().find(|d| d.name == "frame_ms_p50").unwrap();
        let higher = END_TO_END.iter().find(|d| d.name == "frames_per_s").unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(higher, 20.0, 18.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 20.0, 22.0) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn bounds_come_from_the_file_not_from_the_source() {
        let doc = json::parse(
            r#"{"end_to_end":[
                {"name":"map_mib","unit":"MiB","better":"lower","bound":0.07},
                {"name":"setup_s","unit":"s","better":"lower","bound":0.2},
                {"name":"frames_per_s","unit":"frames/s","better":"higher","bound":0.1},
                {"name":"frame_ms_p50","unit":"ms","better":"lower","bound":0.1},
                {"name":"frame_ms_p90","unit":"ms","better":"lower","bound":0.1},
                {"name":"ate_rmse_cm","unit":"cm","better":"lower","bound":0.05},
                {"name":"psnr_db","unit":"dB","better":"higher","bound":0.03}]}"#,
        )
        .unwrap();
        let table = parse_bounds(&doc).unwrap();
        assert_eq!(table.len(), END_TO_END.len());
        assert_eq!(table[0].name, "setup_s", "table order is the benchmark's, not the file's");
        assert_eq!(table[0].bound, Some(0.2));
        assert_eq!(table.iter().find(|d| d.name == "map_mib").unwrap().bound, Some(0.07));
        // A file that drops a metric or a bound is an error, not a default.
        let missing = json::parse(r#"{"end_to_end":[{"name":"setup_s","bound":0.2}]}"#).unwrap();
        assert!(parse_bounds(&missing).is_err());
        assert!(parse_bounds(&json::parse("{}").unwrap()).is_err());
    }
}
