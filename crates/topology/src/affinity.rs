//! Optional OS-level thread affinity (Linux only).
//!
//! On a real multi-socket machine the virtual clusters of
//! [`Topology`](crate::Topology) should be backed by physical sockets so
//! that the *hardware* locality matches the *logical* locality the locks
//! optimize for. This module pins threads to CPU sets using
//! `sched_setaffinity(2)`.
//!
//! We deliberately declare the two syscall wrappers ourselves instead of
//! pulling in the `libc` crate: the suite's dependency policy (the `shims/`
//! row of docs/ARCHITECTURE.md's "Crate map", and shims/README.md) keeps
//! the third-party surface to the approved offline set, and these two
//! symbols are part of every Linux libc the Rust std already links against.

#![allow(unsafe_code)]

use std::fmt;

/// Size of the `cpu_set_t` we pass to the kernel, in bytes (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

/// Why a [`pin_to_cpus`] call could not take effect.
///
/// The variants distinguish caller mistakes (an empty set, an index the
/// fixed-size mask cannot express) from the kernel refusing the mask
/// (`sched_setaffinity` failed — typically `EINVAL` when none of the
/// requested CPUs is in the task's allowed cpuset). Harnesses use the
/// distinction to decide between aborting and falling back to virtual
/// clusters with a logged reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffinityError {
    /// The requested CPU set was empty.
    EmptySet,
    /// A CPU index does not fit the fixed 1024-CPU mask.
    CpuOutOfRange {
        /// The offending CPU index.
        cpu: usize,
    },
    /// `sched_setaffinity(2)` itself failed; `errno` is the raw OS error.
    Os {
        /// The raw `errno` value reported by the kernel.
        errno: i32,
    },
}

impl fmt::Display for AffinityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffinityError::EmptySet => write!(f, "empty CPU set"),
            AffinityError::CpuOutOfRange { cpu } => {
                write!(f, "cpu index {cpu} out of range (mask holds 0..1024)")
            }
            AffinityError::Os { errno } => {
                write!(
                    f,
                    "sched_setaffinity failed: {}",
                    std::io::Error::from_raw_os_error(*errno)
                )
            }
        }
    }
}

impl std::error::Error for AffinityError {}

#[cfg(target_os = "linux")]
mod sys {
    unsafe extern "C" {
        /// `int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);`
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
        /// `int sched_getcpu(void);`
        pub fn sched_getcpu() -> i32;
    }
}

/// Pins the calling thread to the given CPU indices.
///
/// Returns a typed [`AffinityError`] on failure: an empty set, an index
/// ≥ 1024, or the kernel rejecting the mask. On non-Linux targets this is
/// a no-op returning `Ok(())` so portable callers need no `cfg`.
pub fn pin_to_cpus(cpus: &[usize]) -> Result<(), AffinityError> {
    if cpus.is_empty() {
        return Err(AffinityError::EmptySet);
    }
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u8; CPU_SET_BYTES];
        for &cpu in cpus {
            if cpu >= CPU_SET_BYTES * 8 {
                return Err(AffinityError::CpuOutOfRange { cpu });
            }
            mask[cpu / 8] |= 1 << (cpu % 8);
        }
        // pid 0 == the calling thread.
        let rc = unsafe { sys::sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) };
        if rc != 0 {
            let errno = std::io::Error::last_os_error().raw_os_error().unwrap_or(0);
            return Err(AffinityError::Os { errno });
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = CPU_SET_BYTES;
    }
    Ok(())
}

/// Returns the CPU the calling thread is currently executing on, or `None`
/// if the platform cannot tell.
pub fn current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let cpu = unsafe { sys::sched_getcpu() };
        if cpu >= 0 {
            return Some(cpu as usize);
        }
    }
    None
}

/// Computes a blocked CPU→cluster map: `n_cpus` CPUs split into
/// `n_clusters` contiguous ranges (the layout of most multi-socket boxes).
///
/// Returns one `Vec` of CPU indices per cluster. Trailing clusters receive
/// the remainder CPUs.
pub fn blocked_cpu_map(n_cpus: usize, n_clusters: usize) -> Vec<Vec<usize>> {
    assert!(n_clusters > 0);
    let per = (n_cpus / n_clusters).max(1);
    let mut out = vec![Vec::new(); n_clusters];
    for cpu in 0..n_cpus {
        let c = (cpu / per).min(n_clusters - 1);
        out[c].push(cpu);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_map_partitions_all_cpus() {
        let map = blocked_cpu_map(10, 4);
        assert_eq!(map.len(), 4);
        let total: usize = map.iter().map(|v| v.len()).sum();
        assert_eq!(total, 10);
        // Contiguity within each cluster.
        for cl in &map {
            for w in cl.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn blocked_map_handles_more_clusters_than_cpus() {
        let map = blocked_cpu_map(2, 4);
        let total: usize = map.iter().map(|v| v.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn pin_rejects_empty_set() {
        assert_eq!(pin_to_cpus(&[]), Err(AffinityError::EmptySet));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_rejects_out_of_range_index() {
        assert_eq!(
            pin_to_cpus(&[4096]),
            Err(AffinityError::CpuOutOfRange { cpu: 4096 })
        );
    }

    #[test]
    fn affinity_errors_render_their_cause() {
        assert!(AffinityError::EmptySet.to_string().contains("empty"));
        assert!(AffinityError::CpuOutOfRange { cpu: 9999 }
            .to_string()
            .contains("9999"));
        // errno 22 == EINVAL on Linux; the Display path must not panic on
        // any errno.
        assert!(!AffinityError::Os { errno: 22 }.to_string().is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_to_cpu_zero_works() {
        // CPU 0 always exists.
        pin_to_cpus(&[0]).expect("pin to cpu 0");
        assert_eq!(current_cpu(), Some(0));
    }
}
