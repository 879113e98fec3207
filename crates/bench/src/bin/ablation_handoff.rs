//! Ablation A (§3.7): sweep the may-pass-local bound.
//!
//! The paper bounds consecutive local handoffs at 64 and reports that the
//! unbounded ("deeply unfair") variant is only ~10% faster while allowing
//! batches of hundreds of thousands. This ablation reproduces that
//! tradeoff curve on C-BO-MCS — throughput and fairness per bound — as a
//! [`policy_exhibit`] (shared with `ablation_policy`).

use cohort_bench::{ablation_threads, exhibit_main, policy_exhibit};
use lbench::{LockKind, PolicySpec};

fn main() {
    let threads = ablation_threads();
    let policies: Vec<PolicySpec> = [1u64, 4, 16, 64, 256]
        .iter()
        .map(|&bound| PolicySpec::Count { bound })
        .chain([PolicySpec::Unbounded])
        .collect();
    exhibit_main(policy_exhibit(
        "ablation_handoff",
        format!("ablation A: may-pass-local bound sweep on C-BO-MCS, {threads} threads"),
        format!("Ablation A: handoff bound vs throughput/fairness (C-BO-MCS, {threads} threads)"),
        &[LockKind::CBoMcs],
        policies,
        threads,
    ));
}
