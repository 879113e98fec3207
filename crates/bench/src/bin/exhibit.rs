//! The one exhibit binary: runs entries of [`cohort_bench::exhibits::ALL`]
//! by name.
//!
//! ```text
//! exhibit <name>…   run the named exhibits, in order
//! exhibit all       run every exhibit
//! ```
//!
//! After each exhibit it prints `exhibit <name>: ok` or `exhibit <name>:
//! FAILED`; it exits 1 when any exhibit failed a self-check, and 2 —
//! before running anything — when a name is not in the table or a set
//! `LBENCH_*` / `KV_*` variable is not in [`KNOBS`].

use cohort_bench::exhibits::ALL;
use cohort_bench::KNOBS;

fn main() {
    let names = std::env::vars_os().filter_map(|(k, _)| k.into_string().ok());
    for knob in names.filter(|k| k.starts_with("LBENCH_") || k.starts_with("KV_")) {
        if !KNOBS.contains(&knob.as_str()) {
            eprintln!(
                "error: unknown env knob {knob} (knobs: {})",
                KNOBS.join(" ")
            );
            std::process::exit(2);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Vec::new();
    for arg in &args {
        if arg == "all" {
            run.extend(ALL);
        } else if let Some(entry) = ALL.iter().find(|(name, _)| name == arg) {
            run.push(entry);
        } else {
            usage(&format!("unknown exhibit {arg:?}"));
        }
    }
    if run.is_empty() {
        usage("no exhibit named");
    }
    let mut ok = true;
    for (name, exhibit) in run {
        let passed = exhibit();
        println!("exhibit {name}: {}", if passed { "ok" } else { "FAILED" });
        ok &= passed;
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// Exits 2 with `problem` and every exhibit name.
fn usage(problem: &str) -> ! {
    let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "error: {problem}\nusage: exhibit <name>… | all\nexhibits: {}",
        names.join(" ")
    );
    std::process::exit(2)
}
