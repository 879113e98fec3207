//! The per-line coherence directory.

use crate::model::CostModel;
use crate::stats;
use numa_topology::{vclock, ClusterId};
use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of clusters the directory can track (sharer masks are 32
/// bits wide; the paper's machine has 4 clusters).
pub const MAX_DIR_CLUSTERS: usize = 32;

// Packed line encoding: bits 0..32 sharer mask, 32..40 owner, 40..42 state.
// `Invalid` is the all-zero word, so a freshly zeroed allocation is a valid
// directory; the owner field means something only in `Modified`.
const OWNER_NONE: u64 = 0;
const ST_INVALID: u64 = 0;
const ST_SHARED: u64 = 1;
const ST_MODIFIED: u64 = 2;

#[inline]
fn pack(state: u64, owner: u64, sharers: u32) -> u64 {
    (state << 40) | (owner << 32) | sharers as u64
}

#[inline]
fn unpack(v: u64) -> (u64, u64, u32) {
    ((v >> 40) & 0b11, (v >> 32) & 0xFF, v as u32)
}

/// The two kinds of simulated access.
#[derive(Clone, Copy)]
enum Access {
    Load,
    Store,
}

/// What one access costs: served from the caller's cluster, transferred
/// from another cluster (a coherence miss), or first touch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Charge {
    Local,
    Remote,
    Cold,
}

/// The whole protocol: the word `line` holds after `cluster` performs
/// `access` on it, and what that access costs. Pure, so [`Directory::read`]
/// and [`Directory::write`] differ only in how they publish the new word.
#[inline]
fn step(word: u64, cluster: ClusterId, access: Access) -> (u64, Charge) {
    let (state, owner, sharers) = unpack(word);
    let c = cluster.as_u32() as u64;
    let me = 1u32 << cluster.as_u32();
    let shared = |sharers| pack(ST_SHARED, OWNER_NONE, sharers);
    let mine = pack(ST_MODIFIED, c, me);
    match (access, state) {
        (Access::Load, ST_INVALID) => (shared(me), Charge::Cold),
        (Access::Load, ST_SHARED) if sharers & me != 0 => (word, Charge::Local),
        (Access::Load, ST_SHARED) => (shared(sharers | me), Charge::Remote),
        (Access::Load, _) if owner == c => (word, Charge::Local),
        // Dirty in another cluster: transfer + demote to shared.
        (Access::Load, _) => (shared((1u32 << owner) | me), Charge::Remote),
        (Access::Store, ST_INVALID) => (mine, Charge::Cold),
        // Upgrade: silent if we are the only sharer, otherwise the
        // invalidation of remote copies is a cross-cluster round.
        (Access::Store, ST_SHARED) if sharers & !me == 0 => (mine, Charge::Local),
        (Access::Store, ST_SHARED) => (mine, Charge::Remote),
        (Access::Store, _) if owner == c => (word, Charge::Local),
        (Access::Store, _) => (mine, Charge::Remote),
    }
}

/// Decoded state of one simulated cache line (for tests and debugging).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineState {
    /// Never touched (or invalidated everywhere).
    Invalid,
    /// Clean copies in every cluster whose bit is set.
    Shared {
        /// Bitmask of clusters holding a copy.
        sharers: u32,
    },
    /// Dirty in exactly one cluster's cache.
    Modified {
        /// Cluster holding the only (dirty) copy.
        owner: ClusterId,
    },
}

/// A directory of simulated cache lines with a MESI-flavoured protocol at
/// **cluster granularity**.
///
/// Within a cluster all cores share the L2 on the modelled machine, so the
/// model does not distinguish cores: an access is *local* (cheap) when the
/// line already lives in the calling thread's cluster and *remote*
/// (expensive, counted as a coherence miss) when it must be transferred
/// from another cluster. Every access:
///
/// 1. runs the packed line word through one pure transition and publishes
///    the result only if the word changes,
/// 2. advances the calling thread's [virtual clock](numa_topology::vclock)
///    by the modelled latency, and
/// 3. bumps the thread-local [`ThreadStats`](crate::ThreadStats).
///
/// # Who may race
///
/// The directory prices memory accesses, so it inherits their discipline:
/// **a simulated store may only be issued where a real store to that line
/// would be race-free** — under the exclusive side of the lock guarding the
/// line, or by the line's only owner. Every caller already is there: the KV
/// store's `get`/`set`/`delete` and the allocator's `malloc`/`free` take
/// `&mut self`, mmicro initialises the block it was just handed (whole
/// lines of its own as long as its `alloc_size` is a multiple of 64, the
/// default), the scenario engine's write critical section holds the
/// exclusive side, and the modelled substrate is single-threaded. [`write`](Self::write) is
/// therefore a plain load and a plain store, with no locked instruction to
/// serialise the very misses it prices.
///
/// Simulated *loads* do race: `KvStore::peek` and the engine's read
/// critical section run under the shared side of reader-writer locks. So
/// [`read`](Self::read) publishes a changed word with a CAS loop — and
/// issues no read-modify-write at all when the word stays as it is (the
/// line is already shared by, or dirty in, the caller's cluster).
///
/// Breaking the rule cannot break memory safety — every word is an atomic
/// and every value the transition produces is a valid encoding; it loses
/// one of the racing transitions from the books. The word is *cost
/// bookkeeping*, not a synchronization mechanism, so `Relaxed` ordering
/// suffices throughout.
pub struct Directory {
    lines: Box<[AtomicU64]>,
    model: CostModel,
}

impl Directory {
    /// Creates a directory of `lines` simulated cache lines, all Invalid.
    ///
    /// One zeroed allocation and no per-line store: the pages of lines
    /// nobody ever touches are never made resident.
    pub fn new(lines: usize, model: CostModel) -> Self {
        let layout = Layout::array::<AtomicU64>(lines).expect("directory size overflows");
        let lines: Box<[AtomicU64]> = if lines == 0 {
            Box::default()
        } else {
            // SAFETY: `layout` has non-zero size, so `alloc_zeroed` may be
            // called with it, and a null return is handed to
            // `handle_alloc_error`. All-zero bytes are a valid `AtomicU64`
            // (the `Invalid` word). The block comes from the global
            // allocator with exactly the layout of `[AtomicU64; lines]`,
            // which is what `Box::from_raw` requires of a boxed slice.
            unsafe {
                let ptr = alloc_zeroed(layout).cast::<AtomicU64>();
                if ptr.is_null() {
                    handle_alloc_error(layout);
                }
                Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, lines))
            }
        };
        Directory { lines, model }
    }

    /// Number of simulated lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if the directory has no lines.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The latency model in use.
    #[inline]
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Invalidates every line (between benchmark runs).
    pub fn reset(&self) {
        for l in &self.lines {
            l.store(pack(ST_INVALID, OWNER_NONE, 0), Ordering::Relaxed);
        }
    }

    /// Simulates a load of `line` from `cluster`; returns the charged
    /// nanoseconds (also already added to the thread's virtual clock).
    ///
    /// Safe under a shared lock: concurrent loads of one line each land
    /// their transition (see [the type docs](Self#who-may-race)).
    #[inline]
    pub fn read(&self, line: usize, cluster: ClusterId) -> u64 {
        debug_assert!(cluster.as_usize() < MAX_DIR_CLUSTERS);
        let cell = &self.lines[line];
        let mut cur = cell.load(Ordering::Relaxed);
        let charge = loop {
            let (next, charge) = step(cur, cluster, Access::Load);
            if next == cur {
                break charge;
            }
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break charge,
                Err(v) => cur = v,
            }
        };
        self.charge(charge)
    }

    /// Simulates a store to `line` from `cluster`; returns the charged
    /// nanoseconds (also already added to the thread's virtual clock).
    ///
    /// The caller must be the only one accessing `line`, as a real store
    /// would require (see [the type docs](Self#who-may-race)).
    #[inline]
    pub fn write(&self, line: usize, cluster: ClusterId) -> u64 {
        debug_assert!(cluster.as_usize() < MAX_DIR_CLUSTERS);
        let cell = &self.lines[line];
        let cur = cell.load(Ordering::Relaxed);
        let (next, charge) = step(cur, cluster, Access::Store);
        if next != cur {
            cell.store(next, Ordering::Relaxed);
        }
        self.charge(charge)
    }

    /// Decoded state of `line` (test/debug aid).
    pub fn state_of(&self, line: usize) -> LineState {
        let (state, owner, sharers) = unpack(self.lines[line].load(Ordering::Relaxed));
        match state {
            ST_INVALID => LineState::Invalid,
            ST_SHARED => LineState::Shared { sharers },
            _ => LineState::Modified {
                owner: ClusterId::new(owner as u32),
            },
        }
    }

    #[inline]
    fn charge(&self, charge: Charge) -> u64 {
        let ns = match charge {
            Charge::Local => self.model.local_ns,
            Charge::Remote => self.model.remote_ns,
            Charge::Cold => self.model.cold_ns,
        };
        vclock::advance(ns);
        stats::record(charge == Charge::Remote, charge == Charge::Cold, ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::take_thread_stats;

    fn dir() -> Directory {
        Directory::new(8, CostModel::t5440())
    }

    const C0: ClusterId = ClusterId::new(0);
    const C1: ClusterId = ClusterId::new(1);
    const C2: ClusterId = ClusterId::new(2);

    #[test]
    fn first_touch_is_cold_then_local() {
        let d = dir();
        take_thread_stats();
        assert_eq!(d.write(0, C0), d.model().cold_ns);
        assert_eq!(d.write(0, C0), d.model().local_ns);
        let s = take_thread_stats();
        assert_eq!(s.cold_misses, 1);
        assert_eq!(s.remote_misses, 0);
    }

    #[test]
    fn remote_write_is_a_coherence_miss() {
        let d = dir();
        d.write(0, C0);
        take_thread_stats();
        assert_eq!(d.write(0, C1), d.model().remote_ns);
        assert_eq!(take_thread_stats().remote_misses, 1);
        assert_eq!(d.state_of(0), LineState::Modified { owner: C1 });
    }

    #[test]
    fn read_demotes_modified_to_shared() {
        let d = dir();
        d.write(0, C0);
        d.read(0, C1); // remote miss, line now shared by {0,1}
        assert_eq!(d.state_of(0), LineState::Shared { sharers: 0b11 });
        take_thread_stats();
        // Both clusters now read locally.
        assert_eq!(d.read(0, C0), d.model().local_ns);
        assert_eq!(d.read(0, C1), d.model().local_ns);
        assert_eq!(take_thread_stats().remote_misses, 0);
    }

    #[test]
    fn silent_upgrade_when_sole_sharer() {
        let d = dir();
        d.read(0, C2); // cold, shared by {2}
        take_thread_stats();
        assert_eq!(d.write(0, C2), d.model().local_ns);
        assert_eq!(take_thread_stats().remote_misses, 0);
        assert_eq!(d.state_of(0), LineState::Modified { owner: C2 });
    }

    #[test]
    fn upgrade_with_other_sharers_invalidates_remotely() {
        let d = dir();
        d.read(0, C0);
        d.read(0, C1);
        take_thread_stats();
        assert_eq!(d.write(0, C0), d.model().remote_ns);
        assert_eq!(take_thread_stats().remote_misses, 1);
        assert_eq!(d.state_of(0), LineState::Modified { owner: C0 });
    }

    #[test]
    fn vclock_advances_with_charges() {
        let d = dir();
        numa_topology::vclock::reset();
        d.write(3, C0);
        d.write(3, C1);
        assert_eq!(
            numa_topology::vclock::now(),
            d.model().cold_ns + d.model().remote_ns
        );
        numa_topology::vclock::reset();
    }

    #[test]
    fn fresh_directory_is_invalid_from_first_line_to_last() {
        let d = Directory::new(1 << 16, CostModel::t5440());
        assert_eq!(d.len(), 1 << 16);
        assert_eq!(d.state_of(0), LineState::Invalid);
        assert_eq!(d.state_of(d.len() - 1), LineState::Invalid);
        assert_eq!(d.write(d.len() - 1, C1), d.model().cold_ns);
        assert!(Directory::new(0, CostModel::t5440()).is_empty());
    }

    #[test]
    fn reset_invalidates() {
        let d = dir();
        d.write(0, C0);
        d.read(7, C1);
        d.reset();
        assert_eq!(d.state_of(0), LineState::Invalid);
        assert_eq!(d.state_of(7), LineState::Invalid);
        assert_eq!(d.read(0, C0), d.model().cold_ns);
    }

    /// `new` must not store to the lines: 128 MB of directory words cost
    /// address space, not memory, until somebody touches them. Asks the
    /// kernel about the directory's own pages, so sibling tests allocating
    /// in this process cannot move the answer.
    #[cfg(target_os = "linux")]
    #[test]
    fn untouched_lines_are_not_resident() {
        unsafe extern "C" {
            /// `int mincore(void *addr, size_t length, unsigned char *vec);`
            fn mincore(addr: *mut u8, length: usize, vec: *mut u8) -> i32;
            /// `int getpagesize(void);`
            fn getpagesize() -> i32;
        }
        let d = Directory::new(1 << 24, CostModel::t5440());
        d.write(0, C0);
        d.write(d.len() - 1, C0);
        // SAFETY: no arguments, no preconditions.
        let page = unsafe { getpagesize() } as usize;
        // Every page that overlaps the words, first and last included.
        let base = d.lines.as_ptr() as usize;
        let start = base & !(page - 1);
        let len = base + std::mem::size_of_val(&*d.lines) - start;
        let mut pages = vec![0u8; len.div_ceil(page)];
        // SAFETY: `start` is page-aligned, the range lies within the
        // mapping that holds `d.lines`, and `pages` has one byte per page
        // of it, which is all `mincore` writes.
        let rc = unsafe { mincore(start as *mut u8, len, pages.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore: {}", std::io::Error::last_os_error());
        let resident_kb = pages.iter().filter(|p| **p & 1 != 0).count() * page / 1024;
        assert!(resident_kb < 16 * 1024, "{resident_kb} kB resident");
    }
}
