//! The exhibit table: every exhibit of the evaluation under the name the
//! `exhibit` binary runs it by.
//!
//! Each entry declares its [`Exhibit`](crate::Exhibit) (`table1` one per
//! mix; `fig_topology` emits its probe table directly), runs it, and
//! returns whether every self-check passed. `cargo run --release --bin
//! exhibit -- <name>…` runs entries in order; `-- all` runs the whole
//! table.

mod ablation_numa;
mod ablation_policy;
mod fig2;
mod fig6;
mod fig_compare;
mod fig_gcr;
pub mod fig_model;
mod fig_rw;
mod fig_scenarios;
mod fig_shards;
mod fig_topology;
mod table1;
mod table2;

/// An exhibit's name and its run, which returns whether every
/// self-check passed.
pub type Entry = (&'static str, fn() -> bool);

/// Every exhibit, in the order `exhibit all` runs them.
pub const ALL: &[Entry] = &[
    ("fig2", fig2::run),
    ("fig6", fig6::run),
    ("table1", table1::run),
    ("table2", table2::run),
    ("ablation_policy", ablation_policy::run),
    ("ablation_numa", ablation_numa::run),
    ("fig_rw", fig_rw::run),
    ("fig_compare", fig_compare::run),
    ("fig_scenarios", fig_scenarios::run),
    ("fig_model", fig_model::run),
    ("fig_shards", fig_shards::run),
    ("fig_gcr", fig_gcr::run),
    ("fig_topology", fig_topology::run),
];
