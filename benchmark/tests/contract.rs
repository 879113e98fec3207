//! Holds `BENCHMARK.json`, the program and the manifests to each other:
//! the file stays inside the driver's limits, a smoke run of every
//! workload emits exactly the metrics the file lists, the simulated cell
//! is deterministic and matches its golden file, and the benchmark
//! builds the crates with the profile the root workspace uses.

use benchmark::json::Json;
use benchmark::spec::Spec;
use benchmark::workloads::des;
use numa_topology::probe;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_within_the_contract_limits() {
    let text = repo_file("BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let root = Json::parse(&text).unwrap();
    let keys: Vec<&str> = root
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let list = |key: &str| root.get(key).unwrap().as_arr().unwrap();
    let str_of = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
    let member_keys = |item: &Json| -> Vec<String> {
        item.as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };

    assert!((2..=8).contains(&list("workloads").len()));
    assert!((1..=16).contains(&list("end_to_end").len()));
    assert!((1..=128).contains(&list("per_layer").len()));

    let mut names = BTreeSet::new();
    for w in list("workloads") {
        assert_eq!(member_keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        assert!(names.insert(str_of(w, "name")), "name used twice");
    }
    for m in list("end_to_end") {
        assert_eq!(member_keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    for m in list("per_layer") {
        assert_eq!(member_keys(m), ["name", "unit", "better"]);
    }
    for m in list("end_to_end").iter().chain(list("per_layer")) {
        let name = str_of(m, "name");
        assert!(is_name(&name), "bad metric name {name}");
        assert!(is_unit(&str_of(m, "unit")), "bad unit on {name}");
        assert!(["higher", "lower"].contains(&str_of(m, "better").as_str()));
        assert!(names.insert(name.clone()), "{name} used twice");
    }
    assert!(names.iter().all(|n| is_name(n)));

    let setup = list("end_to_end")
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is required");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s".to_string(), "lower".to_string())
    );

    let command: Vec<String> = list("command")
        .iter()
        .map(|c| c.as_str().unwrap().to_string())
        .collect();
    assert!(command.len() <= 32);
    assert!(command
        .iter()
        .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains("..")));
    let paths: Vec<&str> = list("paths").iter().map(|p| p.as_str().unwrap()).collect();
    assert_eq!(paths, ["benchmark"]);

    // The driver makes 4 + 22 × workloads runs and allows 3420 s for all
    // of them with two builds. An untraced run takes run_seconds plus
    // warm-up and set-up; a traced run up to twice that.
    let run_seconds = root.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    let runs = (4 + 22 * list("workloads").len()) as f64;
    assert!(
        runs * (2.0 * run_seconds + 3.0) + 2.0 * 120.0 <= 3420.0,
        "run_seconds {run_seconds} does not fit the driver's total time"
    );

    // The compiled-in copy is this file.
    let spec = Spec::parse(&text).unwrap();
    let compiled = Spec::load();
    assert_eq!(spec.workloads, compiled.workloads);
    assert_eq!(spec.per_layer.len(), compiled.per_layer.len());
}

/// The non-comment lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_equals_the_root_manifests() {
    assert_eq!(
        release_profile(&repo_file("benchmark/Cargo.toml")),
        release_profile(&repo_file("Cargo.toml")),
        "the benchmark must build the crates the way the root workspace does"
    );
}

#[test]
fn des_cells_are_twins_and_match_the_golden_file() {
    let (a, b) = (des::cell(), des::cell());
    assert_eq!(a.first_divergence(&b), None);
    let golden = Json::parse(&repo_file("benchmark/golden/des_4096.json")).unwrap();
    assert_eq!(des::golden_stats(&a), golden);
}

/// One `--smoke` run; the last line of its standard output, or its exit
/// code when it refused.
fn smoke(workload: &str, trace: &str) -> Result<Json, i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary starts");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        return Err(out.status.code().unwrap_or(-1));
    }
    let stdout = String::from_utf8(out.stdout).unwrap();
    Ok(Json::parse(stdout.lines().last().expect("a result line")).unwrap())
}

/// Every name in `BENCHMARK.json` is emitted by a smoke run and the
/// other way round, with the listed unit. All runs are in one test, one
/// after another: they pin to the same CPUs.
#[test]
fn smoke_runs_emit_exactly_the_listed_metrics() {
    let spec = Spec::load();
    let cpus = probe::online_cpus().len();
    for workload in &spec.workloads {
        for (trace, listed) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let needs_two =
                trace == "1" || ["lock_handover", "kv_zipf_get90"].contains(&&**workload);
            let result = match smoke(workload, trace) {
                Ok(result) => result,
                Err(code) => {
                    // Degrading loudly: a host without two CPUs gets a
                    // refusal, never a number.
                    assert!(
                        needs_two && cpus < 2,
                        "{workload} --trace {trace} exited {code}"
                    );
                    assert_eq!(code, 3);
                    continue;
                }
            };
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));

            let metrics = result.get("metrics").unwrap().as_obj().unwrap();
            let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: BTreeSet<&str> = listed.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, expected, "{workload} --trace {trace}");
            for m in listed {
                let got = &metrics.iter().find(|(k, _)| *k == m.name).unwrap().1;
                assert_eq!(got.get("unit").unwrap().as_str(), Some(m.unit.as_str()));
                assert!(got.get("value").unwrap().as_f64().unwrap().is_finite());
            }
        }
    }
}
