//! Kernel *cpulist* parsing (Linux `/sys` interface).
//!
//! [`parse_cpulist`] reads the `"0-3,8,10-11"` format of
//! `/sys/devices/system/cpu/online`, which
//! [`probe::online_cpus`](crate::probe::online_cpus) uses to find the CPUs
//! the latency probe may pin to.

/// Parses a kernel *cpulist* string (`"0-3,8,10-11"`) into CPU indices.
///
/// Returns `None` on malformed input (empty ranges, reversed bounds,
/// non-numeric fields) — the caller falls back on malformed sysfs
/// content instead of panicking.
pub fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    let trimmed = s.trim();
    if trimmed.is_empty() {
        return Some(out);
    }
    for part in trimmed.split(',') {
        let part = part.trim();
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (
                    a.trim().parse::<usize>().ok()?,
                    b.trim().parse::<usize>().ok()?,
                );
                if a > b {
                    return None;
                }
                out.extend(a..=b);
            }
            None => out.push(part.parse::<usize>().ok()?),
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_single_values_and_ranges() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("5"), Some(vec![5]));
        assert_eq!(parse_cpulist("0-1,4,6-7"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpulist(" 2 , 4-5 \n"), Some(vec![2, 4, 5]));
        assert_eq!(parse_cpulist(""), Some(vec![]));
    }

    #[test]
    fn cpulist_rejects_malformed() {
        assert_eq!(parse_cpulist("3-1"), None, "reversed range");
        assert_eq!(parse_cpulist("a-b"), None);
        assert_eq!(parse_cpulist("1,,2"), None);
        assert_eq!(parse_cpulist("1-2-3"), None);
    }
}
