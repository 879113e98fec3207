//! The `exhibit` binary's command-line contract: names come from
//! `exhibits::ALL`, `all` is reserved, and an unknown name or env knob
//! exits 2 before anything runs, naming it.

use cohort_bench::exhibits::ALL;
use std::process::{Command, Output};

fn exhibit_with(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exhibit"));
    cmd.args(args).envs(env.iter().copied());
    cmd.output().expect("the exhibit binary runs")
}

fn exhibit(args: &[&str]) -> Output {
    exhibit_with(args, &[])
}

#[test]
fn an_unknown_name_exits_2_listing_every_exhibit() {
    let out = exhibit(&["fig2", "no_such_exhibit"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran before the refusal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_exhibit"), "{stderr}");
    for (name, _) in ALL {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn names_are_unique_and_all_is_reserved() {
    for (i, (name, _)) in ALL.iter().enumerate() {
        assert_ne!(*name, "all");
        assert!(
            ALL[..i].iter().all(|(other, _)| other != name),
            "{name} twice"
        );
    }
}

#[test]
fn the_folded_exhibits_are_not_accepted() {
    for retired in [
        "fig3",
        "fig4",
        "fig5",
        "ablation_batching",
        "ablation_handoff",
        "fig_cna",
        "fig_fissile",
        "fig_recip",
    ] {
        assert!(ALL.iter().all(|(name, _)| *name != retired), "{retired}");
        assert_eq!(exhibit(&[retired]).status.code(), Some(2), "{retired}");
    }
}

#[test]
fn an_unknown_knob_exits_2_naming_it() {
    // The retired reader-writer cache-lock knob, and a typo of a live one.
    for knob in [concat!("KV_", "RW"), "LBENCH_THREAD"] {
        let out = exhibit_with(&["fig2"], &[(knob, "1")]);
        assert_eq!(out.status.code(), Some(2), "{knob}");
        assert!(out.stdout.is_empty(), "{knob}: nothing ran");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(knob),
            "{knob}"
        );
    }
}
