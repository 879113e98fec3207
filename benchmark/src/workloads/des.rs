//! `des_4096`: the modelled substrate at 4096 logical threads — no
//! worker threads, no lock ever called; all host time is the
//! discrete-event simulation and the coherence model under it.
//!
//! One operation is one simulated acquisition. Every cell is the same
//! simulation, so every cell must reproduce the first cell bit for bit
//! and the committed golden statistics exactly: a simulator speed-up
//! has to leave every simulated number where it was.

use super::{emit_end_to_end, emit_trace, SEGMENTS};
use crate::driver::{Outcome, Segment};
use crate::json::Json;
use crate::spec::Emitter;
use crate::trace::Recorder;
use crate::{host, Args, Verdict};
use coherence_sim::CostModel;
use lbench::{run_scenario, AnyLockKind, LBenchConfig, LockKind, Scenario, ScenarioResult};
use std::time::Instant;

const GOLDEN: &str = include_str!("../../golden/des_4096.json");

/// Logical threads of the cell: deep in the regime where the per-waiter
/// work of each grant dominates (the same cell at 64 threads simulates
/// ~45× more acquisitions per host second).
pub const THREADS: usize = 4096;
/// Virtual nanoseconds per cell. 1 ms is ~90 ms of host time here, which
/// gives a 10 s run about a hundred timing samples.
pub const WINDOW_NS: u64 = 1_000_000;

/// The scenario and engine configuration of one cell at `threads`
/// logical threads over `window_ns` of virtual time.
pub fn cell_config(threads: usize, window_ns: u64) -> (Scenario, LBenchConfig) {
    (
        Scenario::steady().modelled(CostModel::disaggregated()),
        LBenchConfig {
            threads,
            clusters: 4,
            window_ns,
            noncs_max_ns: 0,
            ..Default::default()
        },
    )
}

/// Simulates one cell of this workload.
pub fn cell() -> ScenarioResult {
    let (scenario, cfg) = cell_config(THREADS, WINDOW_NS);
    run_scenario(AnyLockKind::Excl(LockKind::CBoMcs), &scenario, &cfg)
}

/// The simulated statistics the golden file pins.
pub fn golden_stats(r: &ScenarioResult) -> Json {
    Json::obj([
        ("kind", Json::from(r.kind.name())),
        ("threads", (r.threads as u64).into()),
        ("window_ns", WINDOW_NS.into()),
        ("acquisitions", r.acquisitions.into()),
        ("migrations", r.migrations.into()),
        ("total_ops", r.total_ops.into()),
        ("succ_transitions", r.succ_transitions.into()),
    ])
}

/// `--regen-golden`: simulates the cell and rewrites
/// `benchmark/golden/des_4096.json` (the next build compiles it in).
pub fn regen_golden() -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/des_4096.json");
    std::fs::write(&path, golden_stats(&cell()).pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `None` when `cell` matches the reference cell bit for bit and the
/// golden statistics exactly; otherwise what differs.
fn divergence(cell: &ScenarioResult, reference: &ScenarioResult, golden: &Json) -> Option<String> {
    if let Some(field) = cell.first_divergence(reference) {
        return Some(format!("differs from the first cell in {field}"));
    }
    let stats = golden_stats(cell);
    (stats != *golden).then(|| format!("golden file has {golden}, the cell produced {stats}"))
}

/// Runs `des_4096` on the calling thread, pinned to the first CPU.
pub fn run(args: &Args, em: &mut Emitter) -> Result<Verdict, String> {
    let on_cpu = host::OnFirstCpu::enter();
    if !on_cpu.pinned {
        eprintln!("warning: pinning failed; continuing unpinned");
    }

    // Set-up is everything before the first warm-up cell: parse the
    // golden file and simulate the reference cell every later cell is
    // compared with.
    let mut setups = Vec::new();
    let (golden, reference) = loop {
        let t0 = Instant::now();
        let golden = Json::parse(GOLDEN).map_err(|e| format!("golden/des_4096.json: {e}"))?;
        let reference = cell();
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() >= args.setup_reps(9) {
            break (golden, reference);
        }
    };
    let mut verdict = Verdict {
        attempted: 0,
        failed: 0,
        pinned: on_cpu.pinned,
    };
    let mut check = |cell: &ScenarioResult| {
        verdict.attempted += cell.acquisitions;
        if let Some(why) = divergence(cell, &reference, &golden) {
            eprintln!("des_4096: cell {why}");
            verdict.failed += cell.acquisitions;
        }
    };
    check(&reference);

    let base = measure(args, false, &mut check);
    if args.traced {
        let traced = measure(args, true, &mut check);
        emit_trace(
            args,
            em,
            &traced.spans,
            base.ops_per_s(),
            traced.ops_per_s(),
        )?;
    } else {
        emit_end_to_end(em, &base, &setups);
    }
    Ok(verdict)
}

/// Warm-up, then back-to-back cells for the measured time, cut into
/// segments of a [`SEGMENTS`]-th of it (about three cells each; a
/// boundary falls where the cell crossing it ends). A timing sample is
/// one cell's host ns per simulated acquisition. With `traced`, every
/// cell records a root span with the simulation and the check as
/// children.
fn measure(args: &Args, traced: bool, check: &mut impl FnMut(&ScenarioResult)) -> Outcome {
    let (warm, seg) = (args.warm(), args.measure() / SEGMENTS as u32);
    let mut rec = Recorder::new(0);
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut samples = Vec::new();
    let mut ops = 0u64;
    let start = Instant::now();
    let mut last = start;
    // Where the open segment began; `None` during the warm-up.
    let mut open: Option<(Instant, u64)> = None;
    let mut boundary = warm;
    // At least one segment, however long a cell takes.
    while segments.is_empty() || boundary <= warm + args.measure() {
        let result = if traced {
            rec.op("bench.des_cell", |op| {
                let r = op.span("lbench.run_scenario", cell);
                op.span("bench.check", || check(&r));
                r
            })
        } else {
            let r = cell();
            check(&r);
            r
        };
        ops += result.acquisitions;
        let now = Instant::now();
        samples.push((now - last).as_nanos() as f64 / result.acquisitions.max(1) as f64);
        last = now;
        if now - start >= boundary {
            if let Some((since, ops_then)) = open {
                samples.sort_by(f64::total_cmp);
                segments.push(Segment {
                    ops: ops - ops_then,
                    gauge: 0,
                    ops_per_s: (ops - ops_then) as f64 / (now - since).as_secs_f64(),
                    samples: std::mem::take(&mut samples),
                });
            }
            samples.clear();
            open = Some((now, ops));
            while boundary <= now - start {
                boundary += seg;
            }
        }
    }
    Outcome {
        segments,
        ops,
        spans: rec.into_spans(),
    }
}
