//! Where a data structure reports what its operations cost.

use crate::{CostModel, Directory, HandoffChannel};
use numa_topology::{vclock, ClusterId};
use std::sync::Arc;

/// The price of a data-structure operation, as a type parameter: the
/// structure reports each simulated line it reads or writes, its compute,
/// and each round of the lock that guards it, and the sink decides what
/// that costs.
///
/// Two sinks exist. `Arc<Directory>` charges the calling thread's
/// [virtual clock](numa_topology::vclock) through the coherence
/// [`Directory`] and a [`HandoffChannel`]; the modelled executors and the
/// virtual-time real threads run on it. [`Free`] charges nothing and is
/// zero-sized, so a structure instantiated on it compiles to the data
/// structure alone — what a thread on the wall clock runs.
pub trait Pricing: Sized {
    /// The lock-handoff state one lock's worth of this sink keeps:
    /// [`HandoffChannel`] when priced, `()` when free.
    type Handoff: Send + Sync;

    /// Whether anything is charged. Code that only turns the charge into
    /// wall time (pacing, virtual-window checks) tests this constant, so
    /// it folds away on a free sink.
    const PRICED: bool;

    /// A sink over `lines` simulated cache lines, and the handoff state
    /// for the lock guarding them, both priced by `cost`.
    fn build(lines: usize, cost: CostModel) -> (Self, Self::Handoff);

    /// A load of simulated line `line` from `cluster`.
    fn read_line(&self, line: usize, cluster: ClusterId);

    /// A store to simulated line `line` from `cluster`; the caller must
    /// own the line as a real store would (see [`Directory::write`]).
    fn write_line(&self, line: usize, cluster: ClusterId);

    /// `ns` of modelled compute.
    fn compute(&self, ns: u64);

    /// The calling thread's clock in charged nanoseconds.
    fn clock() -> u64;

    /// The lock guarding the lines was just acquired by `cluster`.
    fn acquired(handoff: &Self::Handoff, cluster: ClusterId);

    /// The lock guarding the lines is about to be released by `cluster`.
    fn released(handoff: &Self::Handoff, cluster: ClusterId);
}

/// The sink that charges nothing (see [`Pricing`]): every method is an
/// inlined no-op and its clock reads 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Free;

impl Pricing for Free {
    type Handoff = ();
    const PRICED: bool = false;

    #[inline(always)]
    fn build(_lines: usize, _cost: CostModel) -> (Self, ()) {
        (Free, ())
    }

    #[inline(always)]
    fn read_line(&self, _line: usize, _cluster: ClusterId) {}

    #[inline(always)]
    fn write_line(&self, _line: usize, _cluster: ClusterId) {}

    #[inline(always)]
    fn compute(&self, _ns: u64) {}

    #[inline(always)]
    fn clock() -> u64 {
        0
    }

    #[inline(always)]
    fn acquired(_handoff: &(), _cluster: ClusterId) {}

    #[inline(always)]
    fn released(_handoff: &(), _cluster: ClusterId) {}
}

/// The coherence-model sink: lines through the [`Directory`], compute
/// and the clock through [`vclock`], lock rounds through a
/// [`HandoffChannel`].
impl Pricing for Arc<Directory> {
    type Handoff = HandoffChannel;
    const PRICED: bool = true;

    fn build(lines: usize, cost: CostModel) -> (Self, HandoffChannel) {
        (
            Arc::new(Directory::new(lines, cost)),
            HandoffChannel::new(cost),
        )
    }

    #[inline]
    fn read_line(&self, line: usize, cluster: ClusterId) {
        self.read(line, cluster);
    }

    #[inline]
    fn write_line(&self, line: usize, cluster: ClusterId) {
        self.write(line, cluster);
    }

    #[inline]
    fn compute(&self, ns: u64) {
        vclock::advance(ns);
    }

    #[inline]
    fn clock() -> u64 {
        vclock::now()
    }

    #[inline]
    fn acquired(handoff: &HandoffChannel, cluster: ClusterId) {
        handoff.on_acquire(cluster);
    }

    #[inline]
    fn released(handoff: &HandoffChannel, cluster: ClusterId) {
        handoff.on_release(cluster);
    }
}
