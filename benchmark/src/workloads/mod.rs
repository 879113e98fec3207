//! The four workloads, and the phases the threaded ones share.

pub mod des;
pub mod kv;
pub mod lock;

use crate::driver::{with_pool, Body, Outcome, Plan, Segment};
use crate::spec::Emitter;
use crate::{host, trace, Args, Verdict};
use numa_topology::probe;
use std::time::Instant;

/// Measured segments per run. Every timing metric is read off each
/// segment and reported at the decile on the fast side (see
/// [`Outcome::ops_per_s`](crate::driver::Outcome::ops_per_s)): of fifty
/// segments, the fifth best.
pub const SEGMENTS: usize = 50;

/// Runs the workload `args` names. `Err` is a refusal: the host or the
/// run cannot produce a meaningful result, and none is printed.
pub fn run(args: &Args, em: &mut Emitter) -> Result<Verdict, String> {
    match args.workload.as_str() {
        "lock_uncontended" => lock::run(args, em, 1),
        "lock_handover" => lock::run(args, em, 2),
        "kv_zipf_get90" => kv::run(args, em),
        "des_4096" => des::run(args, em),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// A workload with `threads` workers needs that many CPUs of its own:
/// two workers on one CPU measure the scheduler's time slice, not a
/// cache-line transfer.
pub(crate) fn require_cpus(workload: &str, threads: usize) -> Result<(), String> {
    let online = probe::online_cpus().len();
    if online < threads {
        return Err(format!(
            "{workload} needs {threads} online CPUs to itself and this host has {online}: \
             its result would be scheduler noise, so none is reported"
        ));
    }
    Ok(())
}

/// Emits the end-to-end timing metrics of an untraced run.
pub(crate) fn emit_end_to_end(em: &mut Emitter, out: &Outcome, setups: &[f64]) {
    em.emit("ops_per_s", out.ops_per_s());
    em.emit("op_p50_ns", out.percentile(50.0));
    em.emit("op_p95_ns", out.percentile(95.0));
    let mut setups = setups.to_vec();
    setups.sort_by(f64::total_cmp);
    em.emit("setup_s", host::percentile(&setups, 10.0));
    let mut by_segment: Vec<f64> = out.segments.iter().map(|s| s.ops_per_s).collect();
    by_segment.sort_by(f64::total_cmp);
    println!(
        "timing samples: {} in {} segments; segment ops/s min {:.0} median {:.0} max {:.0}; set-ups: {}",
        out.sample_count(),
        by_segment.len(),
        by_segment[0],
        host::median(&by_segment),
        by_segment[by_segment.len() - 1],
        setups.len(),
    );
}

/// Writes the traced phase's spans and emits what the trace cost.
pub(crate) fn emit_trace(
    args: &Args,
    em: &mut Emitter,
    spans: &[trace::Span],
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
) -> Result<(), String> {
    let path = trace::write_jsonl(&args.workload, spans)
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    println!("trace: {} spans -> {}", spans.len(), path.display());
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let d = trace::durations(spans, name);
        println!(
            "  span {name:<40} n={:<8} p50={:>10.0} ns  p99={:>10.0} ns",
            d.len(),
            host::percentile(&d, 50.0),
            host::percentile(&d, 99.0)
        );
    }
    em.emit(
        "trace.overhead_pct",
        (1.0 - traced_ops_per_s / untraced_ops_per_s) * 100.0,
    );
    Ok(())
}

/// The phases of a threaded workload: set up (`setup_reps` times, the
/// last one kept), warm up, measure; in a traced run measure once more
/// with spans on. Only segments that pass `valid` are reported, unless
/// fewer than a fifth do. Returns the body,
/// for its correctness counters, the number of operations run against
/// it, and whether every worker was pinned.
pub(crate) fn run_threaded<B: Body>(
    args: &Args,
    em: &mut Emitter,
    threads: usize,
    batch: u32,
    setup_reps: usize,
    setup: impl Fn() -> B,
    valid: impl Fn(&Segment) -> bool,
) -> Result<(B, u64, bool), String> {
    require_cpus(&args.workload, threads)?;
    let _on_first_cpu = host::OnFirstCpu::enter();
    let mut setups = Vec::new();
    for _ in 1..args.setup_reps(setup_reps) {
        let t0 = Instant::now();
        let body = setup();
        with_pool(&body, threads, |_| setups.push(t0.elapsed().as_secs_f64()));
    }
    let t0 = Instant::now();
    let body = setup();
    let (ops, pinned) = with_pool(&body, threads, |pool| {
        setups.push(t0.elapsed().as_secs_f64());
        let plan = Plan {
            warm: args.warm(),
            measure: args.measure(),
            segments: SEGMENTS,
            batch,
            traced: false,
        };
        // One measured phase, keeping only the segments that measured
        // what the workload is for. A phase with hardly any such segment
        // is reported whole, loudly: an odd number among ten runs does
        // less harm than a run without a result.
        let measure = |plan: Plan| {
            let mut out = pool.run(plan);
            let kept = out.segments.iter().filter(|s| valid(s)).count();
            if kept >= plan.segments / 5 {
                out.segments.retain(&valid);
            } else {
                eprintln!(
                    "warning: {}: only {kept} of {} segments measured what the workload is for; \
                     reporting all of them, and this run should not be believed on its own",
                    args.workload, plan.segments
                );
            }
            out
        };
        let base = measure(plan);
        if !args.traced {
            emit_end_to_end(em, &base, &setups);
            return Ok((base.ops, pool.pinned()));
        }
        let traced = measure(Plan {
            traced: true,
            ..plan
        });
        emit_trace(
            args,
            em,
            &traced.spans,
            base.ops_per_s(),
            traced.ops_per_s(),
        )?;
        Ok::<_, String>((base.ops + traced.ops, pool.pinned()))
    })?;
    Ok((body, ops, pinned))
}
