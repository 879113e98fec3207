//! Integration: the allocator stays coherent under concurrent use through
//! cohort locks (double-free panics inside would fail the test).

use coherence_sim::{CostModel, Directory};
use cohort_alloc::{MiniAlloc, MiniAllocConfig};
use lbench::{BenchRwLock, LockKind};
use numa_topology::{current_cluster_in, Topology};
use std::cell::UnsafeCell;
use std::sync::Arc;

struct Guarded {
    lock: Arc<dyn BenchRwLock>,
    alloc: UnsafeCell<MiniAlloc>,
}
unsafe impl Send for Guarded {}
unsafe impl Sync for Guarded {}

impl Guarded {
    fn with<R>(&self, f: impl FnOnce(&mut MiniAlloc) -> R) -> R {
        self.lock.acquire_write();
        let r = f(unsafe { &mut *self.alloc.get() });
        self.lock.release_write();
        r
    }
}

fn churn(kind: LockKind) {
    let topo = Arc::new(Topology::new(4));
    let cfg = MiniAllocConfig::default();
    let dir = Arc::new(Directory::new(
        MiniAlloc::lines_needed(&cfg),
        CostModel::t5440(),
    ));
    let g = Arc::new(Guarded {
        lock: kind.make(&topo),
        alloc: UnsafeCell::new(MiniAlloc::new(cfg, dir)),
    });
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let g = Arc::clone(&g);
            let topo = Arc::clone(&topo);
            std::thread::spawn(move || {
                let cl = current_cluster_in(&topo);
                let mut held: Vec<u64> = Vec::new();
                for round in 0..1_500usize {
                    if round % 3 == 2 || held.len() > 8 {
                        if let Some(p) = held.pop() {
                            g.with(|a| a.free(p, cl));
                        }
                    } else {
                        let size = 32 + ((i + round) % 4) as u64 * 48;
                        if let Some(p) = g.with(|a| a.malloc(size, cl)) {
                            held.push(p);
                        }
                    }
                }
                for p in held {
                    g.with(|a| a.free(p, cl));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    g.with(|a| {
        a.check_integrity().expect("heap integrity after churn");
        assert_eq!(a.live_blocks(), 0, "all blocks returned");
        assert_eq!(a.free_bytes(), MiniAllocConfig::default().arena_bytes);
    });
}

#[test]
fn churn_under_c_bo_mcs() {
    churn(LockKind::CBoMcs);
}

#[test]
fn churn_under_c_mcs_mcs() {
    churn(LockKind::CMcsMcs);
}

#[test]
fn churn_under_abortable_cohort() {
    churn(LockKind::ACBoBo);
}

#[test]
fn churn_under_plain_mcs_for_reference() {
    churn(LockKind::Mcs);
}
