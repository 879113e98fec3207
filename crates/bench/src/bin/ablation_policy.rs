//! Ablation D: the handoff-*policy* space, beyond the paper's constant.
//!
//! The paper fixes fairness with one number — 64 consecutive local
//! handoffs. This ablation compares the [`PolicySpec`] families on the
//! paper's two best locks (C-BO-MCS and C-TKT-MCS):
//!
//! * `count(64)` — the paper's rule (locality bounded by handoff count);
//! * `time(50µs)` — tenure bounded by virtual nanoseconds;
//! * `adaptive(8..1024)` — AIMD bound following observed demand;
//! * `unbounded` / `never-pass` — the locality ceiling and floor.
//!
//! Expected shape: `unbounded` sets the throughput ceiling with the worst
//! fairness (huge streaks), `never-pass` the floor; `count`, `time` and
//! `adaptive` should sit near the ceiling while keeping mean streaks
//! short — `adaptive` trading a little fairness for throughput when local
//! demand is sustained.
//!
//! Environment: `LBENCH_ABLATION_THREADS` (default 32), `KV_POLICY`-style
//! extra specs via `LBENCH_EXTRA_POLICIES` (comma-separated
//! [`PolicySpec::parse`] syntax), plus the usual `LBENCH_*` knobs.
//!
//! [`PolicySpec`]: lbench::PolicySpec
//! [`PolicySpec::parse`]: lbench::PolicySpec::parse

use cohort_bench::{ablation_threads, exhibit_main, knob_or_die, policy_exhibit};
use lbench::env::env_policy_list;
use lbench::{LockKind, PolicySpec};

fn main() {
    let threads = ablation_threads();
    let locks = [LockKind::CBoMcs, LockKind::CTktMcs];
    let mut policies = vec![
        PolicySpec::paper_default(),
        PolicySpec::Time { budget_ns: 50_000 },
        PolicySpec::Adaptive { min: 8, max: 1024 },
        PolicySpec::Unbounded,
        PolicySpec::NeverPass,
    ];
    // A malformed extra spec aborts (it used to be skipped with a log
    // line, leaving the sweep silently smaller than requested).
    if let Some(extra) = knob_or_die(env_policy_list("LBENCH_EXTRA_POLICIES")) {
        policies.extend(extra);
    }
    exhibit_main(policy_exhibit(
        "ablation_policy",
        format!(
            "ablation D: handoff-policy comparison on {} locks x {} policies, {threads} threads",
            locks.len(),
            policies.len()
        ),
        format!("Ablation D: handoff policies ({threads} threads)"),
        &locks,
        policies,
        threads,
    ));
}
