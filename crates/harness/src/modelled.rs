//! The deterministic modelled-coherence runner behind
//! [`CostMode::Modelled`](crate::CostMode): every modelled run, LBench or
//! keyed.
//!
//! The real-time engine (`scenario.rs`) runs real threads over real lock
//! algorithms and only *prices* their decisions through the coherence
//! model — statistically stable, never bit-reproducible (the stop flag
//! races the OS scheduler). This module replaces the execution substrate
//! instead: the whole run is a **single-OS-thread discrete-event
//! simulation** over the same cost sources ([`Directory`],
//! [`HandoffChannel`], the per-thread vclock) with the same per-thread
//! program (its logical threads are `program::Client`s in a table, each
//! with its own clock), so two runs of one cell produce bit-identical
//! [`ScenarioResult`](crate::ScenarioResult)s.
//!
//! What is simulated, and what is abstracted:
//!
//! * **No lock is ever contended.** An *admission unit* — the lock of an
//!   LBench run, or one shard of a keyed service — admits its waiters in
//!   the order of the kind's mechanism
//!   ([`AnyLockKind::modelled_admission`]): FIFO for queue/backoff/prior-
//!   NUMA kinds, policy-bounded cluster batching for the cohort family,
//!   and the palindromic segment schedule for the plain Reciprocating
//!   lock. A grant runs the op from its arrival clock, which a handoff
//!   channel raises past the unit's last release: the LBench critical
//!   section (`charge_cs`, then `Client::idle`) on this module's channel
//!   and directory, its lock supplying metadata only; or the real
//!   [`KeyedService::op`] (see [`serve`]) on the service's own, its locks
//!   called uncontended. Fissile fast/slow splits and GCR park/promotion
//!   counters are **0** in modelled results.
//! * **The succession census** books, per serialized grant, the number
//!   of cache lines the release-side admission decision fans out to:
//!   `1 + waiting set` for FIFO/centralized mechanisms (every spinner
//!   holds the succession word in its cache), `1 + same-cluster waiters`
//!   for cluster-batched kinds, and at most `2` for the reciprocating
//!   schedule (one gate line, plus the arrivals word at a segment
//!   detach). It is pure accounting — it never advances the vclock — and
//!   it is the quantity `fig_compare`'s constant-coherence self-check pins.
//! * **The window is per-thread.** Real mode stops all threads through a
//!   shared flag (racy); here each logical thread runs ops until its own
//!   clock passes `cfg.window_ns`, then retires. An op in flight at the
//!   boundary completes and is counted, as in real mode.
//! * **Shared reads serialize on nothing**: on kinds with a genuine read
//!   side, a read (or a keyed get) runs at once, without queueing and
//!   without blocking writers — a simplification that makes read-mix
//!   cells optimistic for writers, as the exhibits' self-checks assume.
//! * **Nothing reads the wall clock** except the diagnostic
//!   `ScenarioResult::wall` field, which the determinism contract (and
//!   `ScenarioResult::first_divergence`) explicitly excludes.
//!   `cfg.mode` / `cfg.pace_wall` / `cfg.max_wall` are ignored: there is
//!   no wall time to pace against and no scheduler to escape.
//!
//! A batched kind runs its policy in the locks' own book,
//! [`cohort::Tenures`], one per unit, on the vclock and at the points
//! `CohortLock` calls it, so every spec reaches the model as written; the
//! books' merged snapshot is the run's tenure statistics (`tenures +
//! local_handoffs == acquisitions`). FIFO kinds report none, mirroring
//! `cohort_stats() == None`.
//!
//! # Cost per event
//!
//! An event costs O(1) host time at any number of logical threads, and a
//! warm cell allocates nothing per logical thread (one run-wide latency
//! log; buffers kept per OS thread in `Scratch`); docs/ARCHITECTURE.md,
//! "Cost per event", has the measurements. Two invariants make O(1)
//! legal without moving a simulated number:
//!
//! * **Arrivals enter in time order**, so each cluster's waiting queue
//!   (`Admission`) is a deque that stays sorted by `(arrival, tid)` under
//!   pushes at the back. Picks are fronts, the census a sum of lengths, a
//!   reciprocating detach a drain; only a patience abort, and a newcomer
//!   that ties with the back under a smaller tid, binary-search.
//! * **An event scheduled at `now` is younger than every heap entry at
//!   `now`**, so `EventQueue` serves it from a FIFO lane and keeps the
//!   heap for the future.
//!
//! Two more rules push fewer events. Every thread starts at t = 0 in tid
//! order — the order the lane would serve their `Start`s — so `simulate`
//! calls the handler directly instead of pushing them; and a thread whose
//! next start falls at or past the window is not rescheduled
//! (`Sim::restart`): its `Start` would pop only to retire it. The events
//! left keep their relative order: keys order by push sequence within a
//! timestamp, and a push that does not happen only closes a gap in the
//! sequence, shifting every later number down alike, while every event a
//! start pushes at t = 0 still lands behind all the starts. Neither rule
//! moves anything but the livelock guard's count, which can only fall.
//!
//! A thread record is one cache line (`Th`), and a waiting entry one
//! word (`Waiter`), laid out as an event key is.
//!
//! The obviously-right forms — a linear scan per question, one heap
//! keyed `(time, push order)` — are the references of seeded
//! differential tests in the test module.

use crate::keyed::{serve, KeyedService};
use crate::program::{charge_cs, Client, Draw, Program};
use crate::registry::{AnyLockKind, ModelledAdmission};
use crate::scenario::{Counts, LatReservoir, LockReport, Subject};
use coherence_sim::{take_thread_stats, CostModel, Directory, HandoffChannel};
use cohort::{CohortStats, Tenures};
use numa_topology::{vclock, ClusterId, Topology};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::mem::take;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// What a simulation event asks of the logical thread it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// The thread begins its next op at its current clock.
    Start,
    /// The holder's op ends, freeing its admission unit.
    Release,
    /// A waiting writer's patience expires (stale unless the thread's
    /// `live_abort` still names this event).
    Abort,
}

/// Bits of an event key that hold the thread id; the two above them hold
/// the [`Ev`], the 40 above those the push sequence number.
const TID_BITS: u32 = 22;
const EV_BITS: u32 = 2;
/// Bits of a [`Waiter`] above its thread id, which hold the arrival: a
/// waiter arrived before the window closed, so `simulate` refuses a
/// window of 2^42 ns (73 virtual minutes) or more.
const ARRIVAL_BITS: u32 = 64 - TID_BITS;

/// Events ordered by `(time, push order)`. An event's key is
/// `(seq << 2 | ev) << 22 | tid`: the push sequence number decides among
/// equal times, the event and its thread ride in low bits that never
/// decide. Future events wait in a heap of 16-byte `(time, key)` entries
/// — measured, not taste: a `(time, seq, enum)` entry is 40 bytes and
/// simulated 11–25 % fewer acquisitions per host second at 64 logical
/// threads (see docs/ARCHITECTURE.md, "Cost per event").
///
/// Events scheduled **at the current timestamp** — every other one in a
/// saturated cell, where each release restarts its thread "now" — skip
/// the heap for a FIFO lane. The order survives exactly: time never runs
/// backwards (`push` checks), so a heap entry at `now` was pushed while
/// `now` was earlier, before everything in the lane, and the heap's
/// entries at `now` drain first; the lane is in push order by
/// construction, and empty whenever `now` advances.
#[derive(Default)]
struct EventQueue {
    /// `(time, key)` of the events scheduled after `now`, earliest first.
    future: BinaryHeap<Reverse<(u64, u64)>>,
    /// Keys of the events pushed at `now`, oldest first.
    lane: VecDeque<u64>,
    /// Timestamp of the latest popped event.
    now: u64,
    seq: u64,
}

impl EventQueue {
    /// Schedules `ev` for thread `tid` at `time ≥ now` and returns the
    /// event's sequence number (≥ 1, unique within the run).
    fn push(&mut self, time: u64, ev: Ev, tid: usize) -> u64 {
        assert!(time >= self.now, "event scheduled into the past");
        self.seq += 1;
        assert!(
            self.seq < 1 << (64 - EV_BITS - TID_BITS),
            "modelled run exhausted its 2^40 event sequence numbers"
        );
        let key = (self.seq << EV_BITS | ev as u64) << TID_BITS | tid as u64;
        if time == self.now {
            self.lane.push_back(key);
        } else {
            self.future.push(Reverse((time, key)));
        }
        self.seq
    }

    /// The earliest event: `(time, sequence number, event, tid)`.
    fn pop(&mut self) -> Option<(u64, u64, Ev, usize)> {
        let heap_is_due = || matches!(self.future.peek(), Some(Reverse((t, _))) if *t == self.now);
        let key = if self.lane.is_empty() || heap_is_due() {
            let Reverse((time, key)) = self.future.pop()?;
            self.now = time;
            key
        } else {
            self.lane.pop_front()?
        };
        let ev = match (key >> TID_BITS) & ((1 << EV_BITS) - 1) {
            0 => Ev::Start,
            1 => Ev::Release,
            _ => Ev::Abort,
        };
        let tid = (key & ((1 << TID_BITS) - 1)) as usize;
        Some((self.now, key >> (EV_BITS + TID_BITS), ev, tid))
    }
}

/// A queued serialized acquisition, `arrival << TID_BITS | tid` — the
/// layout of an event key — so comparing two waiters compares their
/// `(arrival, tid)` pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Waiter(u64);

impl Waiter {
    fn new(arrival: u64, tid: usize) -> Self {
        debug_assert!(arrival < 1 << ARRIVAL_BITS && tid < 1 << TID_BITS);
        Waiter(arrival << TID_BITS | tid as u64)
    }

    fn arrival(self) -> u64 {
        self.0 >> TID_BITS
    }

    fn tid(self) -> usize {
        (self.0 & ((1 << TID_BITS) - 1)) as usize
    }
}

/// Whether a thread waits, in one word: 0 while it does not, else
/// `abort << 2 | is_read << 1 | 1`, where `abort` is the sequence number
/// of the one `Ev::Abort` that may still end the wait (0 without
/// patience; sequence numbers stay below 2^40). The wait's arrival is
/// the thread's clock.
#[derive(Clone, Copy, Default)]
struct Wait(u64);

impl Wait {
    fn new(is_read: bool, abort: u64) -> Self {
        Wait(abort << 2 | u64::from(is_read) << 1 | 1)
    }

    fn is_waiting(self) -> bool {
        self.0 & 1 != 0
    }

    fn is_read(self) -> bool {
        self.0 & 2 != 0
    }

    /// Whether the `Ev::Abort` numbered `seq` ends this wait; any other
    /// is stale, its waiter granted or gone.
    fn expires_at(self, seq: u64) -> bool {
        self.is_waiting() && self.0 >> 2 == seq
    }
}

/// One logical thread: the program's client plus where the simulation
/// has it, in one cache line. Its latency-sample count is derived from
/// its op counts (`offers`) and its aborts are the simulation's to count.
#[repr(align(64))]
struct Th {
    client: Client,
    /// The arrival of the op it waits with, else when it starts its next.
    clock: u64,
    /// The key of the op in flight, which names its admission unit.
    key: u64,
    wait: Wait,
}

const _: () = assert!(size_of::<Th>() == 64, "a thread record is one cache line");

/// The latency samples client `c` has offered (see `Sim::lat_log`): one
/// per op that held its unit — every write, and every read where reads
/// serialize — or per op a service counted, shared reads included.
fn offers(c: &Client, reads_offer: bool) -> u64 {
    c.writes + if reads_offer { c.reads } else { 0 }
}

/// One admission unit — the lock of an LBench run, or one shard of a
/// service: who holds it, who waits for it and who is admitted next, by
/// the kind's admission class over a **waiting index** — one queue per
/// cluster, ascending by `(arrival, tid)`. Every question a grant asks is
/// a front or a length of those queues (see "Cost per event" in the
/// module docs), so no event handler ever walks the thread table.
struct Admission {
    class: ModelledAdmission,
    /// The thread whose serialized op holds the unit.
    holder: Option<usize>,
    /// `waiting[c]` holds cluster `c`'s queued serialized ops. A waiter
    /// enters in `enqueue` and leaves through `pick` (granted, or frozen
    /// into a reciprocating segment) or `withdraw` (patience expired).
    waiting: Vec<VecDeque<Waiter>>,
    /// [`ModelledAdmission::ClusterBatched`] only.
    batch: Option<Batch>,
    /// [`ModelledAdmission::ReciprocatingStack`] only: the detached
    /// segment, sorted ascending by `(arrival, tid)` and admitted from
    /// the back (newest first — the palindromic reversal). Threads
    /// arriving after the detach wait for the next segment.
    recip_segment: Vec<Waiter>,
    /// True between a segment detach and the grant that consumes it:
    /// that grant touched the shared arrivals word as well as the gate.
    recip_detached: bool,
}

impl Admission {
    /// An empty admission for `clusters` clusters in (empty) buffers.
    fn new(
        class: ModelledAdmission,
        clusters: usize,
        mut waiting: Vec<VecDeque<Waiter>>,
        recip_segment: Vec<Waiter>,
    ) -> Self {
        waiting.resize_with(clusters, VecDeque::new);
        Admission {
            class,
            holder: None,
            waiting,
            batch: Batch::of(class, clusters),
            recip_segment,
            recip_detached: false,
        }
    }

    /// Queues a waiter at the back — arrivals come in time order — or,
    /// where it ties with the back under a smaller `tid`, inside the run
    /// of waiters that arrived at the same instant.
    fn enqueue(&mut self, cluster: ClusterId, arrival: u64, tid: usize) {
        let queue = &mut self.waiting[cluster.as_usize()];
        let key = Waiter::new(arrival, tid);
        debug_assert!(
            queue.back().is_none_or(|b| b.arrival() <= arrival),
            "arrival out of order"
        );
        if queue.back().is_none_or(|&back| back < key) {
            queue.push_back(key);
        } else {
            let at = queue.partition_point(|&waiter| waiter < key);
            debug_assert!(queue.get(at) != Some(&key), "thread {tid} queued twice");
            queue.insert(at, key);
        }
    }

    /// Removes a waiter whose patience expired, wherever in its
    /// cluster's queue it sits.
    fn withdraw(&mut self, cluster: ClusterId, arrival: u64, tid: usize) {
        let queue = &mut self.waiting[cluster.as_usize()];
        let at = queue.binary_search(&Waiter::new(arrival, tid));
        queue.remove(at.expect("a withdrawing thread waits in its cluster's queue"));
    }

    /// Picks the next waiter under the kind's admission order and takes
    /// it out of the waiting set: `(arrival, tid, via_local)`, or `None`
    /// when nobody waits. A batched release that does not pass locally
    /// ends the tenure at `release_time`, as `CohortLock` ends it before
    /// its global unlock.
    fn pick(&mut self, release_time: u64) -> Option<(u64, usize, bool)> {
        let (pick, via_local) = match self.class {
            ModelledAdmission::Fifo => (self.pop_earliest(), false),
            ModelledAdmission::ReciprocatingStack => {
                // Palindromic schedule: when the current segment runs
                // dry, freeze the whole waiting set into the next one
                // and admit it newest-first. Nobody already waiting can
                // be overtaken by a later arrival more than once per
                // segment flip — the bounded-bypass invariant.
                if self.recip_segment.is_empty() {
                    for queue in &mut self.waiting {
                        self.recip_segment.extend(queue.drain(..));
                    }
                    self.recip_segment.sort_unstable();
                    self.recip_detached = !self.recip_segment.is_empty();
                }
                (self.recip_segment.pop(), false)
            }
            ModelledAdmission::ClusterBatched(_) => {
                let batch = self.batch.as_mut().expect("a batched class keeps a book");
                let waiting = &mut self.waiting;
                match batch.release(release_time, |c| waiting[c.as_usize()].pop_front()) {
                    Some(local) => (Some(local), true),
                    None => (self.pop_earliest(), false),
                }
            }
        };
        pick.map(|w| (w.arrival(), w.tid(), via_local))
    }

    /// Removes and returns the earliest waiter over all clusters: the
    /// minimum of the per-cluster heads.
    fn pop_earliest(&mut self) -> Option<Waiter> {
        let queue = self
            .waiting
            .iter_mut()
            .filter(|queue| !queue.is_empty())
            .min_by_key(|queue| queue.front().copied())?;
        queue.pop_front()
    }

    /// Books a grant to a thread of `cluster` at `now` and returns its
    /// succession census (accounting only; it never advances the vclock):
    /// how many lines the grant decision fans out to. A FIFO/centralized
    /// mechanism exposes its succession word to every spinning waiter;
    /// cluster batching confines the fan-out to the tenure's cluster;
    /// the reciprocating gate touches exactly one waiter's line, plus
    /// the arrivals word when this grant detached a fresh segment.
    fn on_grant(&mut self, cluster: ClusterId, now: u64, via_local: bool) -> u64 {
        match self.class {
            ModelledAdmission::Fifo => 1 + self.waiting.iter().map(|q| q.len() as u64).sum::<u64>(),
            ModelledAdmission::ClusterBatched(_) => {
                let batch = self.batch.as_mut().expect("a batched class keeps a book");
                batch.grant(cluster, now, via_local);
                1 + self.waiting[cluster.as_usize()].len() as u64
            }
            ModelledAdmission::ReciprocatingStack => 1 + u64::from(take(&mut self.recip_detached)),
        }
    }
}

/// The tenures of a cluster-batched kind: the book every policy-driven
/// lock runs, here on the simulation clock, and the open tenure's
/// `(cluster, streak)` — the holder state `CohortLock` keeps. The hooks run
/// where `CohortLock` runs them: `began` at a grant that did not pass
/// locally, `may_pass_local` and `ended` at the release.
struct Batch {
    book: Tenures,
    tenure: Option<(ClusterId, u64)>,
}

impl Batch {
    fn of(class: ModelledAdmission, clusters: usize) -> Option<Batch> {
        match class {
            ModelledAdmission::ClusterBatched(spec) => Some(Batch {
                book: Tenures::new(spec, clusters, vclock::now),
                tenure: None,
            }),
            _ => None,
        }
    }

    /// The open tenure's holder releases at time `at`: it hands off to
    /// `local(cluster)` where the policy allows and that returns a
    /// cluster-mate, and otherwise ends the tenure.
    fn release<T>(&mut self, at: u64, local: impl FnOnce(ClusterId) -> Option<T>) -> Option<T> {
        let (cluster, streak) = self.tenure.expect("a release ends an open tenure");
        vclock::set(at);
        let may_pass = self.book.may_pass_local(cluster, streak);
        let passed = may_pass.then(|| local(cluster)).flatten();
        if passed.is_none() {
            self.book.ended(cluster, streak);
            self.tenure = None;
        }
        passed
    }

    /// A grant to `cluster` at `now`: a local pass extends the open
    /// tenure's streak, any other grant begins a tenure.
    fn grant(&mut self, cluster: ClusterId, now: u64, via_local: bool) {
        match &mut self.tenure {
            Some((_, streak)) if via_local => *streak += 1,
            tenure => {
                debug_assert!(tenure.is_none(), "a tenure begins after the last one ended");
                vclock::set(now);
                self.book.began(cluster);
                *tenure = Some((cluster, 0));
            }
        }
    }
}

struct Sim<'a> {
    program: &'a Program<'a>,
    /// A keyed run's service; `None` runs the LBench body on `dir` and `handoff`.
    service: Option<&'a dyn KeyedService>,
    /// Nothing reads the services' stop flag: threads retire by clock.
    stop: AtomicBool,
    dir: Directory,
    handoff: HandoffChannel,
    q: &'a mut EventQueue,
    ths: &'a mut [Th],
    /// One admission unit per shard of the service, or one for the lock.
    units: Vec<Admission>,
    serial_reads: bool,
    abortable: bool,
    /// Whether a thread's reads offer latency samples (see [`offers`]).
    reads_offer: bool,
    /// Patience aborts, summed over threads.
    aborts: u64,
    /// Succession census: coherence transitions the release-side
    /// admission decisions fan out to, summed over serialized grants
    /// (see [`ScenarioResult::succ_transitions`]). Accounting only —
    /// never advances the vclock.
    succ_transitions: u64,
    /// `(sample, tick)` of each thread's `tick`-th latency sample (from
    /// 0), where the reservoir it used to own would have retained it on
    /// arrival.
    lat_log: &'a mut Vec<(u64, u64)>,
}

impl Sim<'_> {
    fn run(&mut self) {
        // Livelock guard: legitimate same-timestamp bursts are bounded by
        // a few events per thread (simultaneous starts after a bursty
        // gap, zero idle draws); an unbounded run at one timestamp means
        // the scenario makes no virtual progress (zero-cost critical
        // sections with zero patience, say) and would loop forever.
        let stall_cap = self.program.cfg.threads as u64 * 8 + 64;
        let mut last_t = u64::MAX;
        let mut same_t = 0u64;
        while let Some((t, seq, ev, tid)) = self.q.pop() {
            if t == last_t {
                same_t += 1;
                assert!(
                    same_t <= stall_cap,
                    "modelled scenario makes no virtual progress at t={t} \
                     (zero-cost ops or zero patience?)"
                );
            } else {
                last_t = t;
                same_t = 0;
            }
            match ev {
                Ev::Start => self.on_start(tid),
                Ev::Release => self.on_release(tid, t),
                Ev::Abort => self.on_abort(tid, seq),
            }
        }
        debug_assert!(self.units.iter().all(|adm| adm.holder.is_none()));
        debug_assert!(self
            .units
            .iter()
            .all(|adm| adm.batch.as_ref().is_none_or(|b| b.tenure.is_none())));
    }

    /// The unit an op on `key` queues on: its shard, or the one lock.
    fn unit_of(&self, key: u64) -> usize {
        self.service.map_or(0, |service| service.shard_of(key))
    }

    /// Schedules `tid`'s next start at its clock — unless that is at or
    /// past the window, where the thread retires by scheduling nothing.
    fn restart(&mut self, tid: usize) {
        let clock = self.ths[tid].clock;
        if clock < self.program.cfg.window_ns {
            self.q.push(clock, Ev::Start, tid);
        }
    }

    /// `tid` begins its next op, its clock inside the window.
    fn on_start(&mut self, tid: usize) {
        let th = &mut self.ths[tid];
        let op = match th.client.draw(self.program, th.clock) {
            // Load-shape gating: idle through the off-window.
            Draw::Gap(gap) => {
                th.clock += gap;
                self.restart(tid);
                return;
            }
            Draw::Op(op) => op,
        };
        let (arrival, is_read) = (th.clock, op.is_read);
        th.key = op.key;

        if is_read && !self.serial_reads {
            // Genuinely shared read: runs at once, without queueing.
            self.op(tid, arrival, None);
            self.restart(tid);
            return;
        }

        // Serialized op (write, or read on an exclusive-read kind).
        let unit = self.service.map_or(0, |service| service.shard_of(op.key));
        if self.units[unit].holder.is_none() {
            // Free unit: no waiters can exist (releases always hand off),
            // so this is an immediate grant opening a fresh tenure.
            self.grant(tid, unit, arrival, is_read, false);
        } else {
            self.units[unit].enqueue(th.client.cluster, arrival, tid);
            // Patience applies to writes only, and only where the lock
            // can actually abort — same gate as the real-time path.
            let abort = match self.program.scenario.patience_ns {
                Some(p) if !is_read && self.abortable => self.q.push(arrival + p, Ev::Abort, tid),
                _ => 0,
            };
            th.wait = Wait::new(is_read, abort);
        }
    }

    /// Runs the op of `tid`, which arrived at `arrival`, synchronously as
    /// the holder of `unit` from now, and schedules the unit's release at
    /// the op's end. `via_local` marks an intra-cluster pass within the
    /// unit's current tenure (batched kinds).
    fn grant(&mut self, tid: usize, unit: usize, arrival: u64, read: bool, via_local: bool) {
        let (granted, end) = self.op(tid, arrival, Some(read));
        let adm = &mut self.units[unit];
        self.succ_transitions += adm.on_grant(self.ths[tid].client.cluster, granted, via_local);
        adm.holder = Some(tid);
        self.q.push(end, Ev::Release, tid);
    }

    /// Runs `tid`'s op from `from` (`serial` is `Some(is_read)` when it
    /// holds its unit, `None` for a shared read), books it, logs its
    /// latency sample and sets the thread's clock to its next start.
    /// Returns when the tenure book sees the grant and when the op ends.
    #[inline(always)]
    fn op(&mut self, tid: usize, from: u64, serial: Option<bool>) -> (u64, u64) {
        let (read, held) = (serial.unwrap_or(true), serial.is_some());
        let th = &mut self.ths[tid];
        let (granted, end, sample) = match self.service {
            // The shard's own channel and directories price the op.
            Some(service) => {
                let op = th.client.op(th.key, read);
                vclock::set(from);
                let sample = serve(service, &op, &mut th.client, self.program, &self.stop);
                th.clock = vclock::now();
                (self.q.now, sample.map_or(th.clock, |s| from + s), sample)
            }
            // The channel raises a holder's clock to the releaser's
            // publication time plus the handoff charge — causality exactly
            // as in real mode; a shared read serializes on nothing and is
            // not sampled.
            None => {
                let cluster = th.client.cluster;
                vclock::set(from);
                if held {
                    self.handoff.on_acquire(cluster);
                }
                let now = vclock::now();
                charge_cs(&self.dir, self.program.cfg, read, cluster);
                let end = vclock::now();
                if held {
                    self.handoff.on_release(cluster);
                }
                th.client.complete(read);
                th.clock = end + th.client.idle();
                (now, end, held.then(|| now.saturating_sub(from)))
            }
        };
        if let Some(sample) = sample {
            // The op is booked, so its sample is the thread's last offer.
            let tick = offers(&th.client, self.reads_offer) - 1;
            if tick & (LatReservoir::stride_at(tick) - 1) == 0 {
                self.lat_log.push((sample, tick));
            }
        }
        (granted, end)
    }

    fn on_release(&mut self, tid: usize, t: u64) {
        let unit = self.unit_of(self.ths[tid].key);
        self.restart(tid);
        let adm = &mut self.units[unit];
        let holder = adm.holder.take().expect("release without holder");
        debug_assert_eq!(holder, tid);
        if let Some((arrival, next, via_local)) = adm.pick(t) {
            let th = &mut self.ths[next];
            let wait = take(&mut th.wait);
            assert!(wait.is_waiting(), "picked a non-waiter");
            debug_assert_eq!(th.clock, arrival);
            self.grant(next, unit, arrival, wait.is_read(), via_local);
        }
    }

    fn on_abort(&mut self, tid: usize, seq: u64) {
        let unit = self.unit_of(self.ths[tid].key);
        let th = &mut self.ths[tid];
        if !th.wait.expires_at(seq) {
            return; // stale: the waiter was granted (or already gone)
        }
        th.wait = Wait::default();
        self.units[unit].withdraw(th.client.cluster, th.clock, tid);
        self.aborts += 1;
        // The wait consumed the patience — mirrors the real-time body,
        // which advances the aborter's vclock by `p` (and, like it, draws
        // no idle after an abort, keeping the RNG program identical).
        th.clock += self.program.scenario.patience_ns.unwrap_or(0);
        self.restart(tid);
    }
}

/// A simulation's buffers, kept on the OS thread that ran it for its
/// next cell, so a warm cell allocates nothing per logical thread and
/// costs the same wherever the heap's trim and mmap thresholds sit. A
/// cell above 2¹⁶ logical threads (the substrate admits 2²², 256 MiB of
/// thread table) or one that grew them past 32 MiB — about five times
/// the 6.8 MB a saturated 2¹⁶-thread cell holds — frees them, as every
/// cell used to: that is the most an OS thread retains.
#[derive(Default)]
struct Scratch {
    ths: Vec<Th>,
    q: EventQueue,
    /// A finished cell leaves every queue empty.
    units: Vec<Admission>,
    lat_log: Vec<(u64, u64)>,
}

thread_local! {
    /// Taken for the length of a `simulate` call: a nested call, or the
    /// one after a panic, finds it empty and allocates afresh.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// The heap bytes a buffer holds at its capacity.
trait Held {
    fn held(&self) -> usize;
}

impl<T> Held for Vec<T> {
    fn held(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl<T> Held for VecDeque<T> {
    fn held(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl<T: Ord> Held for BinaryHeap<T> {
    fn held(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl Scratch {
    /// The heap bytes all the buffers hold.
    fn bytes(&self) -> usize {
        let queued = |adm: &Admission| {
            adm.waiting.held()
                + adm.waiting.iter().map(Held::held).sum::<usize>()
                + adm.recip_segment.held()
        };
        self.ths.held()
            + self.q.future.held()
            + self.q.lane.held()
            + self.units.held()
            + self.units.iter().map(queued).sum::<usize>()
            + self.lat_log.held()
    }

    /// Empties the buffers of a cell of `threads` logical threads and
    /// leaves them to this OS thread's next cell, within the bound.
    fn keep(mut self, threads: usize) {
        self.ths.clear();
        self.q.future.clear();
        self.q.lane.clear();
        (self.q.now, self.q.seq) = (0, 0);
        self.lat_log.clear();
        if threads <= 1 << 16 && self.bytes() <= 32 << 20 {
            SCRATCH.set(self);
        }
    }
}

/// Runs `program` against `subject` as a deterministic discrete-event
/// simulation and returns what its logical threads counted and what the
/// simulated lock side reports. A lock supplies metadata only and is
/// never locked; its critical section is priced under `model`. A service
/// runs its own ops at its own prices, one admission unit per shard.
/// Refuses, before it builds anything, a cell whose thread ids or
/// arrivals overflow their packed bits: over 2^22 threads, or a window
/// of 2^42 ns or more.
pub(crate) fn simulate(
    kind: AnyLockKind,
    subject: &Subject,
    topo: &Arc<Topology>,
    program: &Program<'_>,
    model: CostModel,
) -> (Counts, LockReport) {
    let cfg = program.cfg;
    assert!(
        cfg.threads <= 1 << TID_BITS,
        "the modelled substrate packs thread ids into {TID_BITS} bits"
    );
    assert!(
        cfg.window_ns < 1 << ARRIVAL_BITS,
        "the modelled substrate packs arrivals into {ARRIVAL_BITS} bits: \
         window_ns must be below 2^{ARRIVAL_BITS}"
    );
    let (lock, service) = match subject {
        Subject::Lock(lock) => (Arc::clone(lock), None),
        // The service builds its own locks; this one answers whether the
        // kind's reads are shared.
        Subject::Service(service) => (kind.make(topo, cfg.policy), Some(&**service)),
    };
    // The simulation owns this OS thread's vclock and directory stats for
    // the duration; save and restore around it so callers (tests,
    // back-to-back runs) see their own clock untouched.
    let saved_clock = vclock::now();
    vclock::reset();
    let _ = take_thread_stats();

    let mut scratch = SCRATCH.take();
    scratch.ths.extend(program.clients().map(|client| Th {
        client,
        clock: 0,
        key: 0,
        wait: Wait::default(),
    }));
    let (class, mut units) = (
        kind.modelled_admission(cfg.policy),
        take(&mut scratch.units),
    );
    let fresh = || Admission::new(class, cfg.clusters, Vec::new(), Vec::new());
    units.resize_with(service.map_or(1, |service| service.shards()), fresh);
    for adm in units.iter_mut() {
        let (waiting, segment) = (take(&mut adm.waiting), take(&mut adm.recip_segment));
        *adm = Admission::new(class, cfg.clusters, waiting, segment);
    }
    let serial_reads = lock.read_is_exclusive();
    let mut sim = Sim {
        program,
        service,
        stop: AtomicBool::new(false),
        dir: Directory::new(cfg.cs_lines.max(1), model),
        handoff: HandoffChannel::new(model),
        q: &mut scratch.q,
        ths: &mut scratch.ths,
        units,
        serial_reads,
        abortable: lock.is_abortable(),
        reads_offer: service.is_some() || serial_reads,
        aborts: 0,
        succ_transitions: 0,
        lat_log: &mut scratch.lat_log,
    };
    // Every thread starts at t = 0, in the order the lane would serve
    // their `Start`s (see "Cost per event" in the module docs).
    if cfg.window_ns > 0 {
        for tid in 0..cfg.threads {
            sim.on_start(tid);
        }
    }
    sim.run();

    let mut counts = Counts::new(cfg.threads, take_thread_stats().remote_misses);
    counts.aborts = sim.aborts;
    vclock::set(saved_clock);

    // The simulated tenure books report as the locks' would (every tenure
    // has ended by now), merged over units; FIFO and reciprocating kinds
    // keep none, mirroring `cohort_stats() == None`. The fast-path word
    // and the GCR admission layer are not part of the modelled mechanism
    // abstraction (see module docs), so those counters stay 0.
    let report = LockReport {
        cohort: sim
            .units
            .iter()
            .try_fold(CohortStats::default(), |mut all, adm| {
                all.merge(&adm.batch.as_ref()?.book.snapshot());
                Some(all)
            }),
        succ_transitions: sim.succ_transitions,
        ..service.map_or_else(|| LockReport::of(&sim.handoff, &*lock), |s| s.report())
    };
    let mut most_offers = 0;
    for th in sim.ths.iter() {
        counts.client(&th.client);
        most_offers = most_offers.max(offers(&th.client, sim.reads_offer));
    }
    counts.lat(LatReservoir::from_log(sim.lat_log, most_offers));
    scratch.units = sim.units;
    scratch.keep(cfg.threads);
    (counts, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::LockKind;
    use crate::{run_scenario, KeyDist, KeyedCtx, KeyedOp, KeyedServiceFactory, KeyedSpec};
    use crate::{BenchRwLock, LBenchConfig, Scenario};
    use cohort::PolicySpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn cfg(threads: usize) -> LBenchConfig {
        LBenchConfig {
            threads,
            window_ns: 2_000_000, // 2 ms virtual: fast tests
            ..Default::default()
        }
    }

    fn modelled() -> Scenario {
        Scenario::steady().modelled(CostModel::disaggregated())
    }

    /// The oracle for [`Admission`]: the same admission rules answered by
    /// a linear scan over every logical thread per question — obviously
    /// right, O(threads) per grant, and so test-only. A thread frozen
    /// into a reciprocating segment stays `waiting` here until granted.
    /// Batched classes drive their own [`Batch`], so the policy's
    /// answers are the book's, as in the index.
    struct ScanAdmission {
        class: ModelledAdmission,
        /// Per tid: its cluster and, while it waits, its arrival.
        ths: Vec<(ClusterId, Option<u64>)>,
        batch: Option<Batch>,
        recip_segment: Vec<(u64, usize)>,
        recip_detached: bool,
    }

    impl ScanAdmission {
        fn new(class: ModelledAdmission, clusters: usize, cluster_of: &[ClusterId]) -> Self {
            ScanAdmission {
                class,
                ths: cluster_of.iter().map(|&c| (c, None)).collect(),
                batch: Batch::of(class, clusters),
                recip_segment: Vec::new(),
                recip_detached: false,
            }
        }

        fn enqueue(&mut self, arrival: u64, tid: usize) {
            self.ths[tid].1 = Some(arrival);
        }

        fn withdraw(&mut self, tid: usize) {
            self.ths[tid].1 = None;
        }

        fn pick(&mut self, release_time: u64) -> Option<(u64, usize, bool)> {
            let earliest = |only: Option<ClusterId>| {
                (self.ths.iter().enumerate())
                    .filter(|(_, (c, _))| only.is_none_or(|o| *c == o))
                    .filter_map(|(i, (_, waiting))| waiting.map(|arrival| (arrival, i)))
                    .min()
            };
            let best = earliest(None);
            let (pick, via_local) = match self.class {
                ModelledAdmission::Fifo => (best, false),
                ModelledAdmission::ReciprocatingStack => {
                    if self.recip_segment.is_empty() {
                        let mut seg: Vec<(u64, usize)> = self
                            .ths
                            .iter()
                            .enumerate()
                            .filter_map(|(i, (_, w))| w.map(|arrival| (arrival, i)))
                            .collect();
                        seg.sort_unstable();
                        if !seg.is_empty() {
                            self.recip_detached = true;
                        }
                        self.recip_segment = seg;
                    }
                    (self.recip_segment.pop(), false)
                }
                ModelledAdmission::ClusterBatched(_) => {
                    let batch = self.batch.as_mut().expect("a batched class keeps a book");
                    match batch.release(release_time, |c| earliest(Some(c))) {
                        Some(local) => (Some(local), true),
                        None => (best, false),
                    }
                }
            };
            if let Some((_, tid)) = pick {
                self.ths[tid].1 = None;
            }
            pick.map(|(arrival, tid)| (arrival, tid, via_local))
        }

        fn on_grant(&mut self, cluster: ClusterId, now: u64, via_local: bool) -> u64 {
            let waiters = |only: Option<ClusterId>| {
                self.ths
                    .iter()
                    .filter(|(c, w)| w.is_some() && only.is_none_or(|o| *c == o))
                    .count() as u64
            };
            let census = match self.class {
                ModelledAdmission::Fifo => 1 + waiters(None),
                ModelledAdmission::ClusterBatched(_) => 1 + waiters(Some(cluster)),
                ModelledAdmission::ReciprocatingStack => {
                    if self.recip_detached {
                        2
                    } else {
                        1
                    }
                }
            };
            self.recip_detached = false;
            if let Some(batch) = &mut self.batch {
                batch.grant(cluster, now, via_local);
            }
            census
        }
    }

    /// Every admission class, each kind of tenure bound included.
    const CLASSES: [ModelledAdmission; 7] = [
        ModelledAdmission::Fifo,
        ModelledAdmission::ReciprocatingStack,
        ModelledAdmission::ClusterBatched(PolicySpec::Count { bound: 3 }),
        ModelledAdmission::ClusterBatched(PolicySpec::Time { budget_ns: 40 }),
        ModelledAdmission::ClusterBatched(PolicySpec::Adaptive { min: 1, max: 4 }),
        ModelledAdmission::ClusterBatched(PolicySpec::Unbounded),
        ModelledAdmission::ClusterBatched(PolicySpec::NeverPass),
    ];

    /// Differential test of the waiting index against the scan oracle:
    /// random enqueue / abort / release sequences — arrivals that tie,
    /// aborts from anywhere in a set — must produce the same
    /// `(arrival, tid, via_local)` pick and the same census at every
    /// grant, for every admission class.
    #[test]
    fn waiting_index_matches_the_linear_scan_oracle() {
        #[derive(Clone, Copy, PartialEq)]
        enum St {
            Idle,
            Waiting(u64),
            Holding,
        }
        for seed in 0..256u64 {
            for class in CLASSES {
                let mut rng = StdRng::seed_from_u64(seed);
                let clusters = rng.gen_range(1usize..=8);
                let threads = rng.gen_range(1usize..=32);
                let cluster_of: Vec<ClusterId> = (0..threads)
                    .map(|_| ClusterId::new(rng.gen_range(0..clusters) as u32))
                    .collect();
                let mut index = Admission::new(class, clusters, Vec::new(), Vec::new());
                let mut scan = ScanAdmission::new(class, clusters, &cluster_of);
                let mut st = vec![St::Idle; threads];
                let mut holder: Option<usize> = None;
                let mut now = 0u64;
                let ctx = |step: usize| format!("seed {seed}, {class:?}, step {step}");
                for step in 0..400 {
                    // Mostly no advance, so arrivals tie and tid decides.
                    now += rng.gen_range(0u64..3) / 2 * rng.gen_range(1u64..30);
                    let tid = rng.gen_range(0..threads);
                    match (rng.gen_range(0u32..8), st[tid]) {
                        // A thread arrives: granted at once on a free
                        // lock, queued behind the holder otherwise.
                        (0..=3, St::Idle) => match holder {
                            None => {
                                let census = index.on_grant(cluster_of[tid], now, false);
                                let expect = scan.on_grant(cluster_of[tid], now, false);
                                assert_eq!(census, expect, "free-lock census: {}", ctx(step));
                                st[tid] = St::Holding;
                                holder = Some(tid);
                            }
                            Some(_) => {
                                index.enqueue(cluster_of[tid], now, tid);
                                scan.enqueue(now, tid);
                                st[tid] = St::Waiting(now);
                            }
                        },
                        // A waiter's patience expires (one frozen into a
                        // reciprocating segment is past aborting).
                        (4, St::Waiting(arrival))
                            if !scan.recip_segment.contains(&(arrival, tid)) =>
                        {
                            index.withdraw(cluster_of[tid], arrival, tid);
                            scan.withdraw(tid);
                            st[tid] = St::Idle;
                        }
                        // The holder releases; the next waiter is granted.
                        (5..=7, _) => {
                            let Some(h) = holder.take() else { continue };
                            st[h] = St::Idle;
                            let pick = index.pick(now);
                            assert_eq!(pick, scan.pick(now), "pick: {}", ctx(step));
                            if let Some((_, next, via_local)) = pick {
                                now += rng.gen_range(0u64..20);
                                let census = index.on_grant(cluster_of[next], now, via_local);
                                let expect = scan.on_grant(cluster_of[next], now, via_local);
                                assert_eq!(census, expect, "census: {}", ctx(step));
                                st[next] = St::Holding;
                                holder = Some(next);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// The input the arrival-ordered queues are slowest on, beside the
    /// random walk above: every idle thread arrives at the *same* instant
    /// in *descending* tid order — the odd tids, then the even ones — so
    /// each newcomer belongs at the front or in the interior of a long
    /// tie run, never at the back; waiters then withdraw from the middle
    /// of the run, and only part of it is granted before the next run
    /// queues up behind the rest.
    #[test]
    fn descending_tid_tie_runs_match_the_linear_scan_oracle() {
        const THREADS: usize = 96;
        for class in CLASSES {
            for clusters in [1usize, 3, 4] {
                let cluster_of = |tid: usize| ClusterId::new((tid % clusters) as u32);
                let mut index = Admission::new(class, clusters, Vec::new(), Vec::new());
                let all: Vec<ClusterId> = (0..THREADS).map(cluster_of).collect();
                let mut scan = ScanAdmission::new(class, clusters, &all);
                let ctx = |round: u64| format!("{class:?}, {clusters} clusters, round {round}");
                // Thread 0 takes the free lock; everybody else queues.
                let mut now = 10u64;
                let census = index.on_grant(cluster_of(0), now, false);
                assert_eq!(census, scan.on_grant(cluster_of(0), now, false));
                let mut holder = 0usize;
                for round in 0..6u64 {
                    now += 25;
                    let idle: Vec<usize> = (0..THREADS)
                        .filter(|&tid| tid != holder && scan.ths[tid].1.is_none())
                        .collect();
                    let (odd, even): (Vec<usize>, Vec<usize>) =
                        idle.iter().rev().partition(|&&tid| tid % 2 == 1);
                    for tid in odd.into_iter().chain(even) {
                        index.enqueue(cluster_of(tid), now, tid);
                        scan.enqueue(now, tid);
                    }
                    for &tid in idle.iter().skip(3).step_by(5) {
                        index.withdraw(cluster_of(tid), now, tid);
                        scan.withdraw(tid);
                    }
                    // The last round drains the queues; the others leave
                    // waiters behind for the next run to queue behind.
                    let grants = if round == 5 { THREADS } else { 40 };
                    for _ in 0..grants {
                        let pick = index.pick(now);
                        assert_eq!(pick, scan.pick(now), "pick: {}", ctx(round));
                        let Some((_, next, via_local)) = pick else {
                            break;
                        };
                        now += 3;
                        let census = index.on_grant(cluster_of(next), now, via_local);
                        let expect = scan.on_grant(cluster_of(next), now, via_local);
                        assert_eq!(census, expect, "census: {}", ctx(round));
                        holder = next;
                    }
                }
                assert!(index.waiting.iter().all(VecDeque::is_empty), "{}", ctx(5));
            }
        }
    }

    /// The event queue's two lanes against the single heap keyed
    /// `(time, push order)` they replaced: random pops and pushes at
    /// `now`, just after it and far ahead must come back in the same
    /// order to exhaustion — in particular while the lane fills with the
    /// heap still holding entries at `now`.
    #[test]
    fn two_lane_event_queue_pops_in_the_one_heap_order() {
        let mut lane_behind_due_heap = 0u32;
        for seed in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::default();
            let mut reference = BinaryHeap::new();
            let pop =
                |q: &mut EventQueue| q.pop().map(|(t, seq, ev, tid)| (t, seq, ev as u64, tid));
            let (mut now, mut seq) = (0u64, 0u64);
            for step in 0..800 {
                if rng.gen_range(0u32..2) == 0 {
                    let time = now
                        + match rng.gen_range(0u32..4) {
                            0 | 1 => 0,
                            2 => rng.gen_range(1u64..4),
                            _ => rng.gen_range(1_000u64..1_000_000),
                        };
                    let ev = [Ev::Start, Ev::Release, Ev::Abort][rng.gen_range(0usize..3)];
                    let tid = rng.gen_range(0usize..1 << TID_BITS);
                    seq += 1;
                    assert_eq!(q.push(time, ev, tid), seq, "seed {seed}, step {step}");
                    reference.push(Reverse((time, seq, ev as u64, tid)));
                } else {
                    let due = matches!(q.future.peek(), Some(Reverse((t, _))) if *t == now);
                    lane_behind_due_heap += u32::from(due && !q.lane.is_empty());
                    let expect = reference.pop().map(|Reverse(event)| event);
                    let got = pop(&mut q);
                    assert_eq!(got, expect, "seed {seed}, step {step}");
                    now = got.map_or(now, |(t, ..)| t);
                }
            }
            while let Some(Reverse(event)) = reference.pop() {
                assert_eq!(pop(&mut q), Some(event), "seed {seed}, draining");
            }
            assert_eq!(
                pop(&mut q),
                None,
                "seed {seed}: events the reference never held"
            );
        }
        assert!(
            lane_behind_due_heap > 256,
            "the walk never interleaved the lanes"
        );
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn event_queue_refuses_a_push_into_the_past() {
        let mut q = EventQueue::default();
        q.push(10, Ev::Start, 0);
        assert_eq!(q.pop(), Some((10, 1, Ev::Start, 0)));
        q.push(9, Ev::Start, 0);
    }

    /// A waiting entry orders exactly as its `(arrival, tid)` pair: an
    /// arrival tie goes to the smaller tid, and neither the largest tid
    /// nor the largest arrival spills into the other's bits.
    #[test]
    fn waiters_order_like_their_arrival_tid_pairs() {
        let (last_tid, last_arrival) = ((1 << TID_BITS) - 1, (1u64 << ARRIVAL_BITS) - 1);
        let mut rng = StdRng::seed_from_u64(0x3A17);
        let mut pairs = vec![
            (0, 0),
            (0, last_tid),
            (1, 0),
            (1, last_tid),
            (7, 3),
            (7, 4),
            (last_arrival - 1, last_tid),
            (last_arrival, 0),
            (last_arrival, last_tid),
        ];
        // Few arrivals, so most pairs tie on one; then anything.
        pairs.extend((0..400).map(|_| (rng.gen_range(0..8), rng.gen_range(0..=last_tid))));
        pairs.extend(
            (0..400).map(|_| (rng.gen_range(0..=last_arrival), rng.gen_range(0..=last_tid))),
        );
        for &(arrival, tid) in &pairs {
            let w = Waiter::new(arrival, tid);
            assert_eq!((w.arrival(), w.tid()), (arrival, tid));
            for &other in &pairs {
                let v = Waiter::new(other.0, other.1);
                assert_eq!(
                    w.cmp(&v),
                    (arrival, tid).cmp(&other),
                    "{:?} vs {other:?}",
                    (arrival, tid)
                );
            }
        }
    }

    /// A window of 2^42 ns would let an arrival spill out of its waiter's
    /// bits, so `simulate` refuses it on entry — before it takes the
    /// scratch, let alone builds a thread record: the buffers a warm cell
    /// left on this OS thread are still there after the refusal.
    #[test]
    #[should_panic(expected = "window_ns must be below 2^42")]
    fn a_window_of_2_42_ns_is_refused_before_the_thread_table() {
        let kind = AnyLockKind::Excl(LockKind::Mcs);
        let _ = run_scenario(kind, &modelled(), &cfg(64));
        let kept_records = || {
            let scratch = SCRATCH.take();
            let records = scratch.ths.capacity();
            SCRATCH.set(scratch);
            records
        };
        let warm = kept_records();
        assert!(warm >= 64, "the warm cell kept its thread table");
        let far = LBenchConfig {
            window_ns: 1 << ARRIVAL_BITS,
            ..cfg(64)
        };
        let refused = std::panic::catch_unwind(|| run_scenario(kind, &modelled(), &far));
        assert_eq!(
            kept_records(),
            warm,
            "the refusal came after the scratch was taken"
        );
        std::panic::resume_unwind(refused.expect_err("a 2^42 ns window ran"));
    }

    #[test]
    fn a_thread_record_is_one_cache_line() {
        assert_eq!((size_of::<Th>(), align_of::<Th>()), (64, 64));
    }

    /// `Scratch::keep` counts each buffer at its own element size: one
    /// buffer of 32 MiB is kept and one element more is not, whether its
    /// elements are thread records, heap entries, lane keys, log entries
    /// or waiters.
    #[test]
    fn the_scratch_bound_counts_each_buffer_by_its_element_size() {
        const BOUND: usize = 32 << 20;
        let kept = |scratch: Scratch| {
            let saved = SCRATCH.take();
            scratch.keep(1);
            let kept = SCRATCH.take().bytes() > 0;
            SCRATCH.set(saved);
            kept
        };
        let unit = |room: usize| {
            let base = size_of::<Admission>() + size_of::<VecDeque<Waiter>>();
            let waiting = VecDeque::with_capacity((BOUND - base) / size_of::<Waiter>() + room);
            let segment = Vec::with_capacity((BOUND - base) / size_of::<Waiter>() + room);
            [
                Admission::new(ModelledAdmission::Fifo, 1, vec![waiting], Vec::new()),
                Admission::new(ModelledAdmission::Fifo, 1, vec![VecDeque::new()], segment),
            ]
        };
        for (extra, fits) in [(0, true), (1, false)] {
            let n = |size: usize| BOUND / size + extra;
            let [queue, segment] = unit(extra);
            let buffers = [
                (
                    "thread table",
                    Scratch {
                        ths: Vec::with_capacity(n(size_of::<Th>())),
                        ..Scratch::default()
                    },
                ),
                (
                    "event heap",
                    Scratch {
                        q: EventQueue {
                            future: BinaryHeap::with_capacity(n(size_of::<Reverse<(u64, u64)>>())),
                            ..EventQueue::default()
                        },
                        ..Scratch::default()
                    },
                ),
                (
                    "event lane",
                    Scratch {
                        q: EventQueue {
                            lane: VecDeque::with_capacity(n(size_of::<u64>())),
                            ..EventQueue::default()
                        },
                        ..Scratch::default()
                    },
                ),
                (
                    "latency log",
                    Scratch {
                        lat_log: Vec::with_capacity(n(size_of::<(u64, u64)>())),
                        ..Scratch::default()
                    },
                ),
                (
                    "waiting queue",
                    Scratch {
                        units: vec![queue],
                        ..Scratch::default()
                    },
                ),
                (
                    "segment",
                    Scratch {
                        units: vec![segment],
                        ..Scratch::default()
                    },
                ),
            ];
            for (name, scratch) in buffers {
                assert_eq!(
                    scratch.bytes() <= BOUND,
                    fits,
                    "{name}: {} bytes",
                    scratch.bytes()
                );
                assert_eq!(kept(scratch), fits, "{name}");
            }
        }
    }

    #[test]
    fn two_runs_are_bit_identical() {
        for kind in [
            AnyLockKind::Excl(LockKind::Mcs),
            AnyLockKind::Excl(LockKind::CBoMcs),
            AnyLockKind::Excl(LockKind::Cna),
        ] {
            let a = run_scenario(kind, &modelled(), &cfg(4));
            let b = run_scenario(kind, &modelled(), &cfg(4));
            assert_eq!(a.first_divergence(&b), None, "{kind}");
        }
    }

    #[test]
    fn cohort_batching_beats_fifo_on_migrations() {
        let mut c = cfg(8);
        c.noncs_max_ns = 0; // saturate: admission order decides everything
        let mcs = run_scenario(AnyLockKind::Excl(LockKind::Mcs), &modelled(), &c);
        let cbo = run_scenario(AnyLockKind::Excl(LockKind::CBoMcs), &modelled(), &c);
        assert!(mcs.total_ops > 0 && cbo.total_ops > 0);
        // With 8 threads over 4 clusters and a 40x remote penalty, FIFO
        // admission migrates on nearly every handoff while batching
        // migrates once per ~64-long batch — a categorical, not
        // statistical, gap. Compare migration *rates*: absolute counts
        // are window-normalized differently (MCS completes far fewer
        // acquisitions in the same virtual window).
        assert!(
            cbo.migrations * 32 < cbo.acquisitions,
            "batched: {} migrations over {} acquisitions",
            cbo.migrations,
            cbo.acquisitions
        );
        assert!(
            mcs.migrations * 2 > mcs.acquisitions,
            "FIFO: {} migrations over {} acquisitions",
            mcs.migrations,
            mcs.acquisitions
        );
        assert!(cbo.migrations < mcs.migrations);
        assert!(cbo.total_ops > 10 * mcs.total_ops);
        // Tenure accounting keeps the cohort invariant.
        assert_eq!(cbo.tenures + cbo.local_handoffs, cbo.acquisitions);
        assert_eq!(mcs.tenures, 0, "FIFO kinds book no tenures");
    }

    #[test]
    fn recip_runs_are_bit_identical_and_lose_no_waiters() {
        let mut c = cfg(6);
        c.noncs_max_ns = 0; // saturate: segment flips on every release
        let a = run_scenario(AnyLockKind::Excl(LockKind::Recip), &modelled(), &c);
        let b = run_scenario(AnyLockKind::Excl(LockKind::Recip), &modelled(), &c);
        assert_eq!(a.first_divergence(&b), None);
        assert!(a.total_ops > 0);
        // No lost waiters across segment flips: every thread finishes
        // ops (a dropped waiter would strand its thread at 0 forever).
        assert!(
            a.per_thread_ops.iter().all(|&ops| ops > 0),
            "a thread starved: {:?}",
            a.per_thread_ops
        );
        assert_eq!(a.tenures, 0, "recip books no tenures");
    }

    #[test]
    fn recip_succession_census_stays_flat_while_fifo_grows() {
        // The constant-coherence claim in model form: per-acquisition
        // succession transitions for the reciprocating schedule are
        // bounded by 2 at every thread count, while a FIFO/centralized
        // mechanism's grow with the waiting set.
        let mut ratios_mcs = Vec::new();
        for threads in [2, 8] {
            let mut c = cfg(threads);
            c.noncs_max_ns = 0;
            let recip = run_scenario(AnyLockKind::Excl(LockKind::Recip), &modelled(), &c);
            assert!(recip.acquisitions > 0);
            assert!(
                recip.succ_transitions <= 2 * recip.acquisitions,
                "recip at {threads} threads: {} transitions over {} acquisitions",
                recip.succ_transitions,
                recip.acquisitions
            );
            let mcs = run_scenario(AnyLockKind::Excl(LockKind::Mcs), &modelled(), &c);
            assert!(mcs.acquisitions > 0);
            ratios_mcs.push(mcs.succ_transitions as f64 / mcs.acquisitions as f64);
        }
        assert!(
            ratios_mcs[1] > ratios_mcs[0] + 1.0,
            "FIFO census must grow with threads: {ratios_mcs:?}"
        );
    }

    #[test]
    fn single_thread_is_kind_invariant() {
        // At one thread admission order is irrelevant: every exclusive
        // kind must produce the *same* modelled schedule.
        let c = cfg(1);
        let a = run_scenario(AnyLockKind::Excl(LockKind::Mcs), &modelled(), &c);
        let b = run_scenario(AnyLockKind::Excl(LockKind::CBoMcs), &modelled(), &c);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.acquisitions, b.acquisitions);
        assert_eq!(a.lat_p50_ns, b.lat_p50_ns);
        // Including the reciprocating schedule — an empty waiting set
        // makes every census rule book exactly 1 per grant.
        let r = run_scenario(AnyLockKind::Excl(LockKind::Recip), &modelled(), &c);
        assert_eq!(a.total_ops, r.total_ops);
        assert_eq!(a.acquisitions, r.acquisitions);
        assert_eq!(a.succ_transitions, r.succ_transitions);
        assert_eq!(a.succ_transitions, a.acquisitions);
    }

    #[test]
    fn count_bound_caps_streaks() {
        let mut c = cfg(8);
        c.policy = Some(PolicySpec::Count { bound: 4 });
        c.noncs_max_ns = 0; // saturate so batches run to the bound
        let r = run_scenario(AnyLockKind::Excl(LockKind::CBoMcs), &modelled(), &c);
        assert!(r.max_streak <= 4, "max streak {} over bound", r.max_streak);
        assert!(r.tenures > 0);
        assert_eq!(r.tenures + r.local_handoffs, r.acquisitions);
    }

    /// Every policy family reaches the model as written, through the book
    /// the locks run: a 3-cluster C-BO-MCS cell per spec re-runs bit for
    /// bit, books every acquisition once, keeps its streak bound and
    /// reports one entry per cluster.
    #[test]
    fn every_policy_runs_on_the_locks_tenure_book() {
        use PolicySpec::*;
        let kind = AnyLockKind::Excl(LockKind::CBoMcs);
        let topo = Arc::new(numa_topology::Topology::new(3));
        let cell = |policy| LBenchConfig {
            clusters: 3,
            policy: Some(policy),
            noncs_max_ns: 0, // saturate so the bound, not the queue, ends tenures
            ..cfg(9)
        };
        let run = |policy| run_scenario(kind, &modelled(), &cell(policy));
        for (policy, streak_cap) in [
            (Count { bound: 4 }, 4),
            (Time { budget_ns: 20_000 }, u64::MAX),
            (Adaptive { min: 2, max: 8 }, 8),
            (Unbounded, u64::MAX),
            (NeverPass, 0),
        ] {
            let r = run(policy);
            assert_eq!(r.first_divergence(&run(policy)), None, "{policy}");
            assert_eq!(r.tenures + r.local_handoffs, r.acquisitions, "{policy}");
            assert!(r.max_streak <= streak_cap, "{policy}: {}", r.max_streak);
            assert_eq!(r.local_handoffs > 0, streak_cap > 0, "{policy}");
            let (c, scenario) = (cell(policy), modelled());
            let lock = Subject::Lock(kind.make(&topo, c.policy));
            let program = Program::new(kind, &scenario, &c);
            let model = CostModel::disaggregated();
            let (_, report) = simulate(kind, &lock, &topo, &program, model);
            let per_cluster = report.cohort.map(|s| s.per_cluster.len());
            assert_eq!(per_cluster, Some(3), "{policy}: one entry per cluster");
        }
        // The adaptive rule runs on simulated time, not at its ceiling.
        // Saturated, no cluster ever runs dry, so its bound stays at the
        // ceiling; with idle threads a dry tenure halves it.
        let idle = |policy| {
            let c = LBenchConfig {
                threads: 12,
                noncs_max_ns: 20_000,
                ..cell(policy)
            };
            run_scenario(kind, &modelled(), &c)
        };
        let (adaptive, count) = (idle(Adaptive { min: 2, max: 8 }), idle(Count { bound: 8 }));
        assert!(
            (adaptive.fields().into_iter().zip(count.fields()))
                .any(|((name, a), (_, b))| name != "policy" && a != b),
            "adaptive(2..8) ran as count(8)"
        );
    }

    #[test]
    fn never_pass_degenerates_to_fifo_migrations() {
        let mut c = cfg(8);
        c.policy = Some(PolicySpec::NeverPass);
        let never = run_scenario(AnyLockKind::Excl(LockKind::CBoMcs), &modelled(), &c);
        c.policy = None;
        let mcs = run_scenario(AnyLockKind::Excl(LockKind::Mcs), &modelled(), &c);
        assert_eq!(never.local_handoffs, 0, "never-pass has no local passes");
        assert_eq!(never.migrations, mcs.migrations, "identical FIFO schedule");
        assert_eq!(never.total_ops, mcs.total_ops);
    }

    #[test]
    fn abortable_modelled_run_counts_aborts_deterministically() {
        let c = cfg(8);
        let s = modelled().with_patience(20_000);
        let a = run_scenario(AnyLockKind::Excl(LockKind::ACBoClh), &s, &c);
        let b = run_scenario(AnyLockKind::Excl(LockKind::ACBoClh), &s, &c);
        assert_eq!(a.first_divergence(&b), None);
        // A 40x remote model makes queue waits long against 20 us
        // patience: aborts must actually occur, exactly reproducibly.
        assert!(a.aborts > 0, "saturated run with short patience aborts");
        // Non-abortable kinds ignore patience entirely.
        let block = run_scenario(AnyLockKind::Excl(LockKind::CBoMcs), &s, &c);
        assert_eq!(block.aborts, 0);
    }

    /// A keyed service of one lock of the swept kind, one handoff channel
    /// and one directory line per shard: the KV store's shape without the
    /// store. Keys route to shard `key % shards`.
    struct Striped(Vec<(Arc<dyn BenchRwLock>, HandoffChannel, Directory)>);

    impl KeyedService for Striped {
        fn op(&self, op: &KeyedOp, ctx: &KeyedCtx<'_>, _rng: &mut StdRng) -> bool {
            let (lock, handoff, dir) = &self.0[self.shard_of(op.key)];
            if op.is_read && !lock.read_is_exclusive() {
                lock.acquire_read();
                dir.read(0, ctx.cluster);
                lock.release_read();
            } else {
                lock.acquire_write();
                handoff.on_acquire(ctx.cluster);
                dir.write(0, ctx.cluster);
                vclock::advance(100);
                handoff.on_release(ctx.cluster);
                lock.release_write();
            }
            true
        }

        fn shards(&self) -> usize {
            self.0.len()
        }

        fn shard_of(&self, key: u64) -> usize {
            key as usize % self.0.len()
        }

        fn report(&self) -> LockReport {
            let shard = |(lock, handoff, _): &(Arc<dyn BenchRwLock>, _, _)| {
                LockReport::of(handoff, &**lock)
            };
            self.0
                .iter()
                .map(shard)
                .reduce(LockReport::merge)
                .expect("a shard")
        }
    }

    /// Builds a [`Striped`] of this many shards.
    struct StripedFactory(usize);

    impl KeyedServiceFactory for StripedFactory {
        fn build(
            &self,
            kind: AnyLockKind,
            topo: &Arc<Topology>,
            _scenario: &Scenario,
            cfg: &LBenchConfig,
        ) -> Arc<dyn KeyedService> {
            let model = CostModel::disaggregated();
            let shard = |_| {
                let lock = kind.make(topo, cfg.policy);
                (lock, HandoffChannel::new(model), Directory::new(1, model))
            };
            Arc::new(Striped((0..self.0).map(shard).collect()))
        }
    }

    /// The scratch hands memory to the next cell, never state: cells of
    /// five shapes run back to back on this OS thread — the big one
    /// first, so every later cell runs in buffers grown for 4096 threads,
    /// four clusters and a reciprocating segment, and the keyed one next,
    /// so the cells after it run in its eight shards' queues — and each
    /// must equal the same cell on a freshly spawned thread, whose
    /// scratch is empty. A cell that panics mid-run loses the scratch;
    /// the next one must not notice.
    #[test]
    fn scratch_carries_memory_not_state_between_cells() {
        let excl = AnyLockKind::Excl;
        let saturated = |threads, clusters| LBenchConfig {
            threads,
            clusters,
            window_ns: 1_000_000,
            noncs_max_ns: 0,
            ..Default::default()
        };
        let cells = [
            (
                excl(LockKind::Recip),
                Scenario::bursty(100_000, 100_000),
                saturated(4096, 4),
            ),
            (
                AnyLockKind::Rw(crate::registry::RwLockKind::CRwWpBoMcs),
                Scenario::steady().with_read_pct(50).with_keyed(KeyedSpec {
                    keyspace: 64,
                    dist: KeyDist::Uniform,
                    parse_ns: 1_000,
                    seed: 7,
                    factory: Arc::new(StripedFactory(8)),
                }),
                saturated(256, 4),
            ),
            (excl(LockKind::Mcs), Scenario::steady(), cfg(3)),
            (
                AnyLockKind::Rw(crate::registry::RwLockKind::CRwWpBoMcs),
                Scenario::steady().with_read_pct(50),
                saturated(64, 1),
            ),
            (
                excl(LockKind::ACBoClh),
                Scenario::steady().with_patience(20_000),
                saturated(512, 4),
            ),
        ];
        for (kind, scenario, cfg) in cells {
            let scenario = scenario.modelled(CostModel::disaggregated());
            let here = run_scenario(kind, &scenario, &cfg);
            let fresh = std::thread::scope(|s| {
                s.spawn(|| run_scenario(kind, &scenario, &cfg))
                    .join()
                    .expect("the fresh thread's cell panicked")
            });
            assert!(here.total_ops > 0, "{kind} measured nothing");
            assert_eq!(here.first_divergence(&fresh), None, "{kind}");
        }

        // Zero patience against a held lock: the waiter aborts and comes
        // back at the same timestamp for ever.
        let stuck = std::panic::catch_unwind(|| {
            let scenario = modelled().with_patience(0);
            run_scenario(excl(LockKind::ACBoClh), &scenario, &saturated(8, 4))
        });
        let why = stuck.expect_err("a cell without virtual progress must panic");
        let why = why.downcast_ref::<String>().expect("a formatted panic");
        assert!(why.contains("no virtual progress"), "{why}");

        // A row of `tests/modelled_determinism.rs`, on the same thread.
        let mut pinned = saturated(512, 4);
        pinned.noncs_max_ns = 1_000;
        let r = run_scenario(
            excl(LockKind::CBoMcs),
            &modelled().with_read_pct(50),
            &pinned,
        );
        assert_eq!(
            (
                (r.acquisitions, r.migrations, r.total_ops, r.aborts),
                (r.succ_transitions, r.lat_p50_ns, r.lat_p99_ns),
                (r.tenures, r.local_handoffs, r.max_streak)
            ),
            (
                (3827, 58, 3827, 0),
                (446_579, 155_323, 167_676),
                (59, 3768, 64)
            )
        );
    }

    #[test]
    fn caller_vclock_is_preserved() {
        vclock::set(12_345);
        let _ = run_scenario(AnyLockKind::Excl(LockKind::Mcs), &modelled(), &cfg(2));
        assert_eq!(vclock::now(), 12_345);
        vclock::reset();
    }
}
