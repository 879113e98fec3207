//! Property tests on the cost-model substrates: the coherence directory
//! against a naive reference model, the directory and handoff channel
//! *jointly* under random acquire/access/release interleavings (the op
//! stream the modelled cost mode drives), and the pass policy.

use coherence_sim::{
    take_thread_stats, CostModel, Directory, HandoffChannel, LineState, ThreadStats,
};
use cohort::policy::wall_ns;
use cohort::{PolicySpec, Tenures};
use numa_topology::{vclock, ClusterId};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Access {
    line: usize,
    cluster: u32,
    write: bool,
}

fn access_strategy() -> impl Strategy<Value = Access> {
    (0usize..8, 0u32..4, any::<bool>()).prop_map(|(line, cluster, write)| Access {
        line,
        cluster,
        write,
    })
}

/// Naive per-line reference: None = invalid, Ok(set) = shared by set,
/// Err(owner) = modified by owner.
type Ref = Option<Result<std::collections::BTreeSet<u32>, u32>>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn directory_matches_reference_protocol(
        accesses in proptest::collection::vec(access_strategy(), 1..200)
    ) {
        let dir = Directory::new(8, CostModel::t5440());
        let mut model: Vec<Ref> = vec![None; 8];
        // What the charges must add up to in the two side channels.
        let mut stats = ThreadStats::default();
        vclock::reset();
        let _ = take_thread_stats();
        for a in accesses {
            let cl = ClusterId::new(a.cluster);
            let ns = if a.write { dir.write(a.line, cl) } else { dir.read(a.line, cl) };
            // Reference transition + expected charge.
            let m = CostModel::t5440();
            let expected = match (&model[a.line], a.write) {
                (None, _) => m.cold_ns,
                (Some(Err(owner)), false) => {
                    if *owner == a.cluster { m.local_ns } else { m.remote_ns }
                }
                (Some(Err(owner)), true) => {
                    if *owner == a.cluster { m.local_ns } else { m.remote_ns }
                }
                (Some(Ok(sharers)), false) => {
                    if sharers.contains(&a.cluster) { m.local_ns } else { m.remote_ns }
                }
                (Some(Ok(sharers)), true) => {
                    if sharers.len() == 1 && sharers.contains(&a.cluster) {
                        m.local_ns
                    } else {
                        m.remote_ns
                    }
                }
            };
            prop_assert_eq!(ns, expected, "line {} cluster {} write {}", a.line, a.cluster, a.write);
            stats.accesses += 1;
            stats.remote_misses += (expected == m.remote_ns) as u64;
            stats.cold_misses += (expected == m.cold_ns) as u64;
            stats.charged_ns += expected;
            prop_assert_eq!(vclock::now(), stats.charged_ns);
            // Apply reference transition.
            model[a.line] = Some(match (model[a.line].take(), a.write) {
                (None, true) => Err(a.cluster),
                (None, false) => Ok([a.cluster].into_iter().collect()),
                (Some(Err(owner)), false) => {
                    if owner == a.cluster {
                        Err(owner)
                    } else {
                        Ok([owner, a.cluster].into_iter().collect())
                    }
                }
                (Some(Err(_)), true) => Err(a.cluster),
                (Some(Ok(_)), true) => Err(a.cluster),
                (Some(Ok(mut sharers)), false) => {
                    sharers.insert(a.cluster);
                    Ok(sharers)
                }
            });
            // Cross-check decoded state.
            match (&model[a.line], dir.state_of(a.line)) {
                (Some(Err(o)), LineState::Modified { owner }) => {
                    prop_assert_eq!(*o, owner.as_u32());
                }
                (Some(Ok(set)), LineState::Shared { sharers }) => {
                    let mask: u32 = set.iter().fold(0, |m, &c| m | (1 << c));
                    prop_assert_eq!(mask, sharers);
                }
                (m, s) => prop_assert!(false, "state mismatch: model {m:?} vs dir {s:?}"),
            }
        }
        prop_assert_eq!(take_thread_stats(), stats);
        vclock::reset();
    }

    #[test]
    fn count_policy_is_a_step_function(bound in 0u64..1_000, streak in 0u64..2_000) {
        let p = Tenures::new(PolicySpec::Count { bound }, 1, wall_ns);
        prop_assert_eq!(p.may_pass_local(ClusterId::new(0), streak), streak < bound);
    }

    // The channel and the directory together, driven by the op stream
    // the modelled cost mode generates — acquire, read + write the
    // critical-section lines, release — under random cluster
    // interleavings. The reference checks live in `joint_invariants`
    // below. (A `///` doc comment here would desugar to an attribute
    // the shim's proptest! pattern does not match.)
    #[test]
    fn handoff_and_directory_jointly_hold_invariants(
        steps in proptest::collection::vec(
            (0u32..4, 0usize..4, 0usize..4, 1u64..4), 1..200)
    ) {
        joint_invariants(&steps);
    }
}

/// Joint reference check over one random op stream (see the proptest
/// case above): each step acquires the lock from `cluster`, reads
/// `rd_line`, writes `wr_line` `writes` times, and releases. Verified
/// invariants:
///
/// * MESI: a write always leaves exactly one modified holder (the
///   writer — sharers are implicitly invalidated on the upgrade), a
///   read leaves the reader a sharer or the sole owner;
/// * handoff accounting: migrations and the *entire* batch histogram
///   equal a naive reference recomputation, and closed batches + the
///   still-open run account for every acquisition;
/// * vclock monotonicity: nothing in the charging path ever moves this
///   thread's virtual clock backwards.
fn joint_invariants(steps: &[(u32, usize, usize, u64)]) {
    vclock::reset();
    let _ = take_thread_stats(); // drop any stale thread-local stats
    let model = CostModel::t5440();
    let h = HandoffChannel::new(model);
    let dir = Directory::new(4, model);
    let mut prev_cluster: Option<u32> = None;
    let mut ref_migrations = 0u64;
    let mut ref_hist = [0u64; 20];
    let mut ref_closed = 0u64;
    let mut ref_closed_len = 0u64;
    let mut run = 0u64;
    let mut last_now = 0u64;
    for (cluster, rd_line, wr_line, writes) in steps {
        let cl = ClusterId::new(*cluster);
        let info = h.on_acquire(cl);
        let migrated = prev_cluster.is_some_and(|p| p != *cluster);
        assert_eq!(info.migrated, migrated);
        assert_eq!(info.first, prev_cluster.is_none());
        if migrated {
            ref_migrations += 1;
            if run > 0 {
                let b = (63 - run.leading_zeros() as usize).min(19);
                ref_hist[b] += 1;
                ref_closed += 1;
                ref_closed_len += run;
            }
            run = 1;
        } else {
            run += 1;
        }
        prev_cluster = Some(*cluster);
        assert!(info.now_ns >= last_now, "acquire moved the clock back");
        last_now = info.now_ns;

        dir.read(*rd_line, cl);
        match dir.state_of(*rd_line) {
            LineState::Modified { owner } => assert_eq!(owner.as_u32(), *cluster),
            LineState::Shared { sharers } => {
                assert!(sharers & (1 << cluster) != 0, "reader not a sharer")
            }
            s => panic!("read left state {s:?}"),
        }
        for _ in 0..*writes {
            dir.write(*wr_line, cl);
            // The MESI upgrade: one modified holder, sharers gone.
            match dir.state_of(*wr_line) {
                LineState::Modified { owner } => assert_eq!(owner.as_u32(), *cluster),
                s => panic!("write left non-exclusive state {s:?}"),
            }
        }
        assert!(
            vclock::now() >= last_now,
            "data access moved the clock back"
        );
        vclock::advance(16);
        h.on_release(cl);
        last_now = vclock::now();
    }
    assert_eq!(h.acquisitions(), steps.len() as u64);
    assert_eq!(h.migrations(), ref_migrations);
    assert_eq!(h.batches().snapshot(), ref_hist);
    // Every acquisition is in a closed batch or the still-open run.
    assert_eq!(ref_closed_len + run, h.acquisitions());
    assert_eq!(ref_hist.iter().sum::<u64>(), ref_closed);
    let _ = take_thread_stats();
    vclock::reset();
}
