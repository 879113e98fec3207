//! Prior NUMA-aware locks — the baselines of the paper's evaluation.
//!
//! The cohort-lock paper compares against three earlier NUMA-aware
//! designs, all reimplemented here from their original papers:
//!
//! | Type | Origin | Character |
//! |---|---|---|
//! | [`HboLock`] | Radović & Hagersten, HPCA '03 | hierarchical backoff TATAS; simple, unfair, needs per-workload tuning ([`HboParams`]) |
//! | [`HclhLock`] | Luchangco, Nussbaum, Shavit, Euro-Par '06 | per-cluster CLH queues spliced into a global CLH queue |
//! | [`FcMcsLock`] | Dice, Marathe, Shavit, SPAA '11 | flat-combining collection into a global MCS queue; fastest prior lock, heaviest machinery |
//! | [`CnaLock`] | Dice & Kogan, EuroSys '19 | **Compact NUMA-Aware** lock: single-word MCS shape, remote waiters spliced onto a secondary queue — the strongest *modern* competitor to cohorting |
//!
//! HBO doubles as the abortable baseline **A-HBO** (Figure 6) through
//! [`base_locks::RawAbortableLock`]; the abortable CLH baseline (A-CLH)
//! lives in `base_locks` as
//! [`AbortableClhLock`](base_locks::AbortableClhLock).
//!
//! CNA postdates the cohorting paper; it is included because its
//! intra-node handoff threshold is directly comparable, knob-for-knob, to
//! the cohort locks' [`PolicySpec`](cohort::PolicySpec) (whose
//! [`Tenures`](cohort::Tenures) book [`CnaLock`] reuses outright).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

mod cna;
mod fcmcs;
mod hbo;
mod hclh;

pub use cna::{CnaLock, CnaNode, CnaToken};
pub use fcmcs::{FcMcsLock, FcMcsToken};
pub use hbo::{HboLock, HboParams};
pub use hclh::{HclhLock, HclhNode, HclhToken};
