//! The closed-loop driver every threaded workload and layer cell runs
//! on: pinned workers issue their next operation as soon as the previous
//! one returns, in batches timed with one clock read each.
//!
//! Worker 0 is also the timekeeper — after each of its batches it checks
//! whether the warm-up or a segment has ended, snapshots every worker's
//! published operation count, and raises the stop flag after the last
//! segment — so no extra thread competes for the CPUs under test (this
//! host has two).

use crate::host;
use crate::trace::{Recorder, Span};
use numa_topology::affinity;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// In a traced phase, one operation in this many records spans: a few
/// thousand sampled operations per second on every workload, and a
/// trace file of megabytes rather than hundreds of them.
pub const TRACE_EVERY: u64 = 512;

/// Keeps a value on cache lines of its own (two, for adjacent-line
/// prefetchers), so a counter one thread writes is not a coherence cost
/// to its neighbours.
#[repr(align(128))]
#[derive(Default)]
pub struct Padded<T>(pub T);

/// What the workers do: per-thread state made on the worker itself, and
/// one operation against it.
pub trait Body: Sync {
    type Local;

    /// Runs once on worker `tid`, after it is pinned: bind the thread to
    /// its virtual cluster, build whatever the operation needs.
    fn local(&self, tid: usize) -> Self::Local;

    /// One operation.
    fn op(&self, local: &mut Self::Local);

    /// The same operation on a sampled turn of a traced phase, with a
    /// span around each call into a layer. By default one root span.
    fn op_traced(&self, local: &mut Self::Local, rec: &mut Recorder) {
        rec.op("bench.op", |_| self.op(local))
    }

    /// A count that only grows, read at every segment boundary so each
    /// [`Segment`] carries its increase — what a workload needs to tell
    /// whether a segment measured what it is meant to.
    fn gauge(&self) -> u64 {
        0
    }
}

/// A [`Body`] from two closures, for cells that need no spans of their
/// own.
pub struct FnBody<I, F> {
    pub init: I,
    pub op: F,
}

impl<L, I: Fn(usize) -> L + Sync, F: Fn(&mut L) + Sync> Body for FnBody<I, F> {
    type Local = L;

    fn local(&self, tid: usize) -> L {
        (self.init)(tid)
    }

    #[inline]
    fn op(&self, local: &mut L) {
        (self.op)(local)
    }
}

/// One run of the loop: a discarded warm-up, then `segments` equal
/// measured segments.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warm: Duration,
    pub measure: Duration,
    pub segments: usize,
    /// Operations per timing sample.
    pub batch: u32,
    pub traced: bool,
}

/// One measured segment of a run.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Operations completed in the segment, all workers.
    pub ops: u64,
    /// Increase of [`Body::gauge`] over the segment.
    pub gauge: u64,
    /// Operations per wall second, all workers.
    pub ops_per_s: f64,
    /// Timing samples that ended in this segment, ascending: each the
    /// mean wall ns per operation of one batch on one worker.
    pub samples: Vec<f64>,
}

impl Segment {
    pub fn percentile(&self, pct: f64) -> f64 {
        host::percentile(&self.samples, pct)
    }
}

/// What one run measured.
pub struct Outcome {
    pub segments: Vec<Segment>,
    /// Every operation the workers ran, warm-up included.
    pub ops: u64,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Timing samples over all measured segments.
    pub fn sample_count(&self) -> usize {
        self.segments.iter().map(|s| s.samples.len()).sum()
    }

    /// `pct`-th percentile over the segments of what `f` reads off each.
    fn over_segments(&self, pct: f64, f: impl Fn(&Segment) -> f64) -> f64 {
        let mut per_segment: Vec<f64> = self.segments.iter().map(f).collect();
        per_segment.sort_by(f64::total_cmp);
        host::percentile(&per_segment, pct)
    }

    /// Throughput as reported: the upper-decile segment.
    ///
    /// This host runs a fifth slower for seconds to minutes at a time,
    /// for reasons outside the guest, and a disturbance only ever takes
    /// time away. The decile on the fast side reads the same whether a
    /// tenth or nine tenths of a run were disturbed; a median flips
    /// between the two speeds. It is not the maximum, so that one lucky
    /// segment does not set the result either.
    pub fn ops_per_s(&self) -> f64 {
        self.over_segments(90.0, |s| s.ops_per_s)
    }

    /// A timing percentile as reported: taken within each segment, then
    /// the lower-decile segment (see [`ops_per_s`](Self::ops_per_s)).
    pub fn percentile(&self, pct: f64) -> f64 {
        self.over_segments(10.0, |s| s.percentile(pct))
    }
}

struct ThreadResult {
    /// Wall ns of each batch, back to back from the start of the run.
    samples: Vec<u32>,
    ops: u64,
    /// Worker 0 only: (time since start, operations of all workers,
    /// gauge) at the end of the warm-up and of each segment.
    marks: Vec<(Duration, u64, u64)>,
    spans: Vec<Span>,
}

struct Ctl {
    /// Workers plus the thread that owns the pool.
    barrier: Barrier,
    /// The run to start at the next barrier; `None` shuts the pool down.
    plan: Mutex<Option<Plan>>,
    stop: Padded<AtomicBool>,
    progress: Vec<Padded<AtomicU64>>,
    results: Mutex<Vec<Option<ThreadResult>>>,
    all_pinned: AtomicBool,
}

/// Workers that are pinned, bound and waiting for a [`Plan`].
pub struct Pool<'a> {
    ctl: &'a Ctl,
}

/// Releases the workers to exit, also when the pool's user unwinds.
struct Shutdown<'a>(&'a Ctl);

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        if let Ok(mut plan) = self.0.plan.lock() {
            *plan = None;
        }
        self.0.barrier.wait();
    }
}

/// Spawns `threads` workers on the first online CPUs, waits until each
/// is pinned and has built its [`Body::Local`], then hands the pool to
/// `f`. The workers are joined before this returns.
pub fn with_pool<B: Body, R>(body: &B, threads: usize, f: impl FnOnce(&Pool<'_>) -> R) -> R {
    assert!(threads >= 1, "a pool needs a worker");
    let cpus = host::worker_cpus(threads);
    let ctl = Ctl {
        barrier: Barrier::new(threads + 1),
        plan: Mutex::new(None),
        stop: Padded(AtomicBool::new(false)),
        progress: (0..threads).map(|_| Padded(AtomicU64::new(0))).collect(),
        results: Mutex::new((0..threads).map(|_| None).collect()),
        all_pinned: AtomicBool::new(true),
    };
    std::thread::scope(|s| {
        for tid in 0..threads {
            let (ctl, cpu) = (&ctl, cpus.get(tid).copied());
            s.spawn(move || worker(body, tid, cpu, ctl));
        }
        let _shutdown = Shutdown(&ctl);
        ctl.barrier.wait();
        f(&Pool { ctl: &ctl })
    })
}

impl Pool<'_> {
    /// Whether every worker got the CPU it asked for.
    pub fn pinned(&self) -> bool {
        self.ctl.all_pinned.load(Ordering::Relaxed)
    }

    /// Runs one plan on the waiting workers.
    pub fn run(&self, plan: Plan) -> Outcome {
        assert!(plan.segments >= 1 && plan.batch >= 1);
        let ctl = self.ctl;
        *ctl.plan.lock().expect("no worker panics holding the plan") = Some(plan);
        ctl.stop.0.store(false, Ordering::Relaxed);
        for p in &ctl.progress {
            p.0.store(0, Ordering::Relaxed);
        }
        ctl.barrier.wait();
        ctl.barrier.wait();
        let results: Vec<ThreadResult> = ctl
            .results
            .lock()
            .expect("no worker panics holding the results")
            .iter_mut()
            .map(|r| r.take().expect("every worker reports its run"))
            .collect();

        // A sample belongs to the segment its batch ended in; batches
        // that ended in the warm-up or after the last mark are dropped.
        let marks = &results[0].marks;
        let mut samples = vec![Vec::new(); plan.segments];
        for r in &results {
            let (mut elapsed, mut passed) = (Duration::ZERO, 0);
            for &ns in &r.samples {
                elapsed += Duration::from_nanos(u64::from(ns));
                while passed < marks.len() && marks[passed].0 < elapsed {
                    passed += 1;
                }
                if (1..=plan.segments).contains(&passed) {
                    samples[passed - 1].push(f64::from(ns) / f64::from(plan.batch));
                }
            }
        }
        let segments = marks
            .windows(2)
            .zip(samples)
            .map(|(w, mut samples)| {
                samples.sort_by(f64::total_cmp);
                let ops = w[1].1 - w[0].1;
                Segment {
                    ops,
                    gauge: w[1].2 - w[0].2,
                    ops_per_s: ops as f64 / (w[1].0 - w[0].0).as_secs_f64(),
                    samples,
                }
            })
            .collect();
        Outcome {
            segments,
            ops: results.iter().map(|r| r.ops).sum(),
            spans: results.into_iter().flat_map(|r| r.spans).collect(),
        }
    }
}

fn worker<B: Body>(body: &B, tid: usize, cpu: Option<usize>, ctl: &Ctl) {
    let pinned = cpu.is_some_and(|c| affinity::pin_to_cpus(&[c]).is_ok());
    if !pinned {
        ctl.all_pinned.store(false, Ordering::Relaxed);
    }
    let mut local = body.local(tid);
    ctl.barrier.wait();
    loop {
        ctl.barrier.wait();
        let plan = *ctl.plan.lock().expect("the owner does not panic here");
        let Some(plan) = plan else { return };
        let result = if plan.traced {
            run::<B, true>(body, &mut local, tid, plan, ctl)
        } else {
            run::<B, false>(body, &mut local, tid, plan, ctl)
        };
        ctl.results.lock().expect("workers do not panic here")[tid] = Some(result);
        ctl.barrier.wait();
    }
}

/// The measured loop. `TRACED` is a const so the untraced loop carries
/// no trace of the sampling branch.
fn run<B: Body, const TRACED: bool>(
    body: &B,
    local: &mut B::Local,
    tid: usize,
    plan: Plan,
    ctl: &Ctl,
) -> ThreadResult {
    let seg = plan.measure / plan.segments as u32;
    // Batches are ~0.1 ms; room for a few times that rate, written once
    // up front so that the pages are resident whatever the run's speed:
    // otherwise `peak_rss_mb` of a lock workload is mostly a count of
    // its timing samples, and follows its throughput.
    let room = ((plan.warm + plan.measure).as_secs_f64() * 50_000.0) as usize + 1024;
    let mut samples = vec![u32::MAX; room];
    samples.clear();
    let mut marks = Vec::with_capacity(plan.segments + 1);
    let mut next_mark = plan.warm;
    let mut rec = Recorder::new(tid);
    let mut ops = 0u64;
    let start = Instant::now();
    let mut last = start;
    loop {
        for i in 0..u64::from(plan.batch) {
            if TRACED && (ops + i).is_multiple_of(TRACE_EVERY) {
                body.op_traced(local, &mut rec);
            } else {
                body.op(local);
            }
        }
        ops += u64::from(plan.batch);
        let now = Instant::now();
        samples.push((now - last).as_nanos().min(u128::from(u32::MAX)) as u32);
        last = now;
        ctl.progress[tid].0.store(ops, Ordering::Relaxed);
        if tid == 0 && now - start >= next_mark {
            let total = ctl
                .progress
                .iter()
                .map(|p| p.0.load(Ordering::Relaxed))
                .sum();
            marks.push((now - start, total, body.gauge()));
            if marks.len() > plan.segments {
                ctl.stop.0.store(true, Ordering::Relaxed);
            }
            next_mark = plan.warm + seg * marks.len() as u32;
        }
        if ctl.stop.0.load(Ordering::Relaxed) {
            break;
        }
    }
    ThreadResult {
        samples,
        ops,
        marks,
        spans: rec.into_spans(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_samples_and_ops_add_up() {
        let counter = AtomicU64::new(0);
        let body = FnBody {
            init: |tid| tid,
            op: |_: &mut usize| {
                counter.fetch_add(1, Ordering::Relaxed);
            },
        };
        let plan = Plan {
            warm: Duration::from_millis(5),
            measure: Duration::from_millis(50),
            segments: 5,
            batch: 32,
            traced: true,
        };
        let (first, second) = with_pool(&body, 2, |pool| (pool.run(plan), pool.run(plan)));
        assert_eq!(first.ops + second.ops, counter.load(Ordering::Relaxed));
        for out in [first, second] {
            assert_eq!(out.segments.len(), 5);
            assert!(out.segments.iter().all(|s| s.ops_per_s > 0.0));
            assert!(out
                .segments
                .iter()
                .all(|s| !s.samples.is_empty() && s.samples.windows(2).all(|w| w[0] <= w[1])));
            assert!(out.percentile(50.0) > 0.0);
            // One root span per sampled operation, on both workers.
            assert!(out.spans.iter().all(|s| s.name == "bench.op"));
            assert!(out.spans.iter().any(|s| s.thread == 1));
            assert!(out.spans.len() as u64 >= out.ops / TRACE_EVERY);
        }
    }
}
