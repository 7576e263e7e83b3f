//! Regenerates every table and figure of the AGS paper.
//!
//! Run all experiments:      `cargo bench -p ags-bench --bench paper`
//! Run a subset by id:       `cargo bench -p ags-bench --bench paper -- table2 fig15`
//!
//! Each experiment prints its paper-shaped rows and writes
//! `target/ags-experiments/<id>.md`.

use ags_bench::{experiments, BenchProfile, Context, Table};
use std::path::PathBuf;
use std::time::Instant;

fn out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("ags-experiments");
    }
    // Benches run with the package as CWD; anchor at the workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.join("../../target/ags-experiments")
}

fn emit(table: Table) {
    println!("{}", table.to_markdown());
    if let Err(e) = table.write_to(&out_dir()) {
        eprintln!("warning: could not write {}: {e}", table.id);
    }
}

fn main() {
    let filters: Vec<String> =
        std::env::args().skip(1).filter(|a| !a.starts_with('-') && a != "bench").collect();
    let wants = |id: &str| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str()));

    let profile = BenchProfile::default();
    let mut ctx = Context::new(profile);
    let started = Instant::now();

    // Cheap static table first.
    if wants("table3") {
        emit(experiments::table3());
    }

    // Core multi-scene experiments share the context cache.
    if wants("table1") {
        emit(experiments::table1(&mut ctx));
    }
    if wants("table2") {
        emit(experiments::table2(&mut ctx));
    }
    if wants("fig03") {
        emit(experiments::fig03(&mut ctx));
    }
    if wants("fig05") {
        emit(experiments::fig05(&mut ctx));
    }
    if wants("fig06") {
        emit(experiments::fig06(&mut ctx));
    }
    if wants("fig14") {
        emit(experiments::fig14(&mut ctx));
    }
    if wants("fig15") {
        emit(experiments::fig15(&mut ctx));
    }
    if wants("fig16") {
        emit(experiments::fig16(&mut ctx));
    }
    if wants("fig17") {
        emit(experiments::fig17(&mut ctx));
    }
    if wants("fig18") {
        emit(experiments::fig18(&mut ctx));
    }
    if wants("fig22") {
        emit(experiments::fig22(&mut ctx));
    }
    if wants("fp_rate") {
        emit(experiments::fp_rate(&mut ctx));
    }
    if wants("table4") {
        emit(experiments::table4(&mut ctx));
    }

    // Sweeps (their own scaled-down runs).
    if wants("fig04") {
        emit(experiments::fig04(&profile));
    }
    if wants("fig19") || wants("fig20") || wants("fig21") {
        let (t19, t20, t21) = experiments::fig19_21(&profile);
        if wants("fig19") {
            emit(t19);
        }
        if wants("fig20") {
            emit(t20);
        }
        if wants("fig21") {
            emit(t21);
        }
    }

    println!(
        "all experiments regenerated in {:.1}s — markdown in {}",
        started.elapsed().as_secs_f64(),
        out_dir().display()
    );
}
