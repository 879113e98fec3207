//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload <name>
//! [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]`
//! runs one workload in this process and prints every metric by name,
//! then one JSON result line. `--compare A.json B.json` compares two
//! result sets; `--regen-golden` rewrites the DES golden file.

use benchmark::json::Json;
use benchmark::spec::{Emitter, Spec};
use benchmark::{compare, host, layers, workloads, Args};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--out FILE]\n       benchmark --compare A.json B.json\n       benchmark --regen-golden";

/// Exit codes: 0 a correct result, 1 an incorrect result or a
/// regression found by `--compare`, 2 bad usage or incomparable files,
/// 3 a refusal (the host cannot produce a meaningful result).
const INCORRECT: u8 = 1;
const USAGE_ERROR: u8 = 2;
const REFUSED: u8 = 3;

enum Command {
    Run(Args, Option<PathBuf>),
    Compare(PathBuf, PathBuf),
    RegenGolden,
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        traced: false,
        smoke: false,
    };
    let mut out = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.traced = match it.next_if(|v| *v == "0" || *v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                return Ok(Command::Compare(
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            "--regen-golden" => return Ok(Command::RegenGolden),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.smoke {
        args.seconds = 0.2;
    }
    Ok(Command::Run(args, out))
}

fn run(args: &Args, out: Option<PathBuf>, spec: &Spec) -> Result<ExitCode, (u8, String)> {
    if !spec.workloads.contains(&args.workload) {
        return Err((
            USAGE_ERROR,
            format!(
                "unknown workload `{}`; BENCHMARK.json lists {}",
                args.workload,
                spec.workloads.join(", ")
            ),
        ));
    }
    let commit = host::commit();
    println!(
        "workload {} seed {} seconds {} traced {} commit {commit}",
        args.workload, args.seed, args.seconds, args.traced
    );
    let refused = |why| (REFUSED, why);
    let mut em = Emitter::new(spec, args.traced);
    let mut verdict = workloads::run(args, &mut em).map_err(refused)?;
    if args.traced {
        verdict.add(layers::run_all(args, &mut em).map_err(refused)?);
    } else {
        let rss = host::peak_rss_mb()
            .ok_or_else(|| refused("no VmHWM in /proc/self/status".to_string()))?;
        em.emit("peak_rss_mb", rss);
    }
    let metrics = em.finish().map_err(refused)?;
    let fingerprint = host::fingerprint(verdict.pinned);
    println!("fingerprint {fingerprint}");

    let correct = verdict.failed == 0;
    let result = [
        ("correct", Json::from(correct)),
        ("attempted", verdict.attempted.into()),
        ("failed", verdict.failed.into()),
        ("metrics", metrics),
    ];
    if let Some(path) = out {
        let mut record = vec![
            ("workload", Json::from(args.workload.as_str())),
            ("traced", args.traced.into()),
            ("seed", args.seed.into()),
            ("seconds", args.seconds.into()),
            ("commit", Json::Str(commit)),
        ];
        record.extend(result.iter().cloned());
        compare::append_run(&path, &fingerprint, Json::obj(record))
            .map_err(|e| (USAGE_ERROR, e))?;
    }
    println!("{}", Json::obj(result));
    if correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "INCORRECT: {} of {} checked operations failed",
            verdict.failed, verdict.attempted
        );
        Ok(ExitCode::from(INCORRECT))
    }
}

fn main() -> ExitCode {
    // A panic on any thread ends the process at once: a worker that died
    // would otherwise leave the others waiting at a barrier.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(101);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&argv) {
        Err(why) => Err((USAGE_ERROR, format!("{why}\n{USAGE}"))),
        Ok(Command::RegenGolden) => workloads::des::regen_golden()
            .map(|()| ExitCode::SUCCESS)
            .map_err(|e| (USAGE_ERROR, e)),
        Ok(Command::Compare(a, b)) => match compare::compare(&Spec::load(), &a, &b) {
            Ok(compare::Comparison::Within) => Ok(ExitCode::SUCCESS),
            Ok(compare::Comparison::Regressed) => Ok(ExitCode::from(INCORRECT)),
            Err(why) => Err((USAGE_ERROR, why)),
        },
        Ok(Command::Run(args, out)) => run(&args, out, &Spec::load()),
    };
    outcome.unwrap_or_else(|(code, why)| {
        eprintln!("benchmark: {why}");
        ExitCode::from(code)
    })
}
