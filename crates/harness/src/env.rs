//! Strict environment-knob parsing for the bench exhibits.
//!
//! The exhibits are configured through environment variables. A typo'd
//! value (`LBENCH_PROBE_SKIP=yes`, `LBENCH_THREADS=four`) used to be
//! *silently ignored* — the run proceeded with defaults and the operator
//! compared numbers that were never produced under the requested
//! configuration. These helpers make every knob fail loudly instead: each
//! error names the knob, quotes the rejected value, and states the
//! accepted syntax.
//!
//! All helpers treat an *unset* knob as its documented default (`false`
//! for booleans, `None` otherwise); only a *present but malformed* value
//! is an error.

use std::fmt;

/// Why an environment knob could not be parsed. The [`Display`](fmt::Display)
/// output names the knob, the rejected value, and the accepted syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvKnobError {
    /// A boolean knob held something other than `1`/`true`/`0`/`false`.
    Bool {
        /// The knob (environment variable) being parsed.
        knob: String,
        /// The rejected value.
        value: String,
    },
    /// A numeric knob (or one entry of a comma-separated list) did not
    /// parse, or violated its stated range.
    Number {
        /// The knob being parsed.
        knob: String,
        /// The rejected value (a single list entry where applicable).
        value: String,
        /// What the knob accepts, e.g. `"a positive integer"`.
        expected: &'static str,
    },
    /// A range-checked numeric knob parsed but fell outside its
    /// `min..=max` bounds.
    Range {
        /// The knob being parsed.
        knob: String,
        /// The rejected value.
        value: String,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// A choice knob named no known option.
    Choice {
        /// The knob being parsed.
        knob: String,
        /// The rejected value.
        value: String,
        /// The accepted option names.
        allowed: &'static [&'static str],
    },
    /// The variable was set but not valid Unicode.
    NotUnicode {
        /// The knob being parsed.
        knob: String,
    },
}

impl fmt::Display for EnvKnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvKnobError::Bool { knob, value } => write!(
                f,
                "env knob {knob}: unrecognized value {value:?} \
                 (accepted: 1, true, 0, false — case-insensitive)"
            ),
            EnvKnobError::Number {
                knob,
                value,
                expected,
            } => write!(
                f,
                "env knob {knob}: unrecognized value {value:?} (accepted: {expected})"
            ),
            EnvKnobError::Range {
                knob,
                value,
                min,
                max,
            } => write!(
                f,
                "env knob {knob}: unrecognized value {value:?} \
                 (accepted: an integer in {min}..={max})"
            ),
            EnvKnobError::Choice {
                knob,
                value,
                allowed,
            } => write!(
                f,
                "env knob {knob}: unrecognized value {value:?} (accepted: {})",
                allowed.join(", ")
            ),
            EnvKnobError::NotUnicode { knob } => {
                write!(f, "env knob {knob}: value is not valid Unicode")
            }
        }
    }
}

impl std::error::Error for EnvKnobError {}

/// Reads the variable, distinguishing unset from malformed.
fn raw(knob: &str) -> Result<Option<String>, EnvKnobError> {
    match std::env::var(knob) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(EnvKnobError::NotUnicode {
            knob: knob.to_string(),
        }),
    }
}

/// A one-value knob: unset ⇒ `None`, otherwise what `entry` makes of the
/// raw value.
fn value<T>(
    knob: &str,
    entry: impl FnOnce(&str) -> Result<T, EnvKnobError>,
) -> Result<Option<T>, EnvKnobError> {
    raw(knob)?.map(|v| entry(&v)).transpose()
}

/// Entry parser: an integer `accept` lets through, or the `Number` error
/// quoting the entry and what the knob `expected`.
fn number<T: std::str::FromStr>(
    knob: &str,
    v: &str,
    expected: &'static str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, EnvKnobError> {
    let parsed = v.trim().parse().ok().filter(accept);
    parsed.ok_or_else(|| EnvKnobError::Number {
        knob: knob.to_string(),
        value: v.to_string(),
        expected,
    })
}

/// Boolean knob: unset ⇒ `false`; `1`/`true` ⇒ `true`; `0`/`false` ⇒
/// `false` (case-insensitive); anything else — including `yes`/`on` — is
/// an error naming the knob and the accepted spellings.
pub fn env_bool(knob: &str) -> Result<bool, EnvKnobError> {
    let set = value(knob, |v| match v.trim().to_ascii_lowercase().as_str() {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err(EnvKnobError::Bool {
            knob: knob.to_string(),
            value: v.to_string(),
        }),
    })?;
    Ok(set.unwrap_or(false))
}

/// `u64` knob: unset ⇒ `None`; a malformed value is an error.
pub fn env_u64(knob: &str) -> Result<Option<u64>, EnvKnobError> {
    value(knob, |v| number(knob, v, "an unsigned integer", |_| true))
}

/// Positive-`usize` knob (thread counts, cluster counts): unset ⇒
/// `None`; `0` or a malformed value is an error.
pub fn env_positive_usize(knob: &str) -> Result<Option<usize>, EnvKnobError> {
    value(knob, |v| number(knob, v, "a positive integer", |&n| n >= 1))
}

/// Range-checked `u64` knob (`LBENCH_CLUSTERS`): unset ⇒ `None`; a
/// malformed value or one outside `range` is an error naming the knob
/// and the accepted `min..=max` bounds.
pub fn env_range_u64(
    knob: &str,
    range: std::ops::RangeInclusive<u64>,
) -> Result<Option<u64>, EnvKnobError> {
    value(knob, |v| {
        let parsed = v.trim().parse().ok().filter(|n| range.contains(n));
        parsed.ok_or_else(|| EnvKnobError::Range {
            knob: knob.to_string(),
            value: v.to_string(),
            min: *range.start(),
            max: *range.end(),
        })
    })
}

/// Single-choice knob (`LBENCH_TOPOLOGY`): unset or blank ⇒ `None`; a
/// value outside `allowed` is an error quoting it and the accepted
/// names. Matching is case-insensitive; the canonical (`allowed`)
/// spelling is returned.
pub fn env_choice(
    knob: &str,
    allowed: &'static [&'static str],
) -> Result<Option<&'static str>, EnvKnobError> {
    let set = value(knob, |v| match v.trim() {
        "" => Ok(None),
        part => match allowed.iter().find(|a| a.eq_ignore_ascii_case(part)) {
            Some(&canonical) => Ok(Some(canonical)),
            None => Err(EnvKnobError::Choice {
                knob: knob.to_string(),
                value: part.to_string(),
                allowed,
            }),
        },
    })?;
    Ok(set.flatten())
}

/// Comma-separated positive-`usize` list knob (thread grids): unset or
/// all-blank ⇒ `None`; any malformed or zero entry is an error quoting
/// that entry.
pub fn env_positive_usize_list(knob: &str) -> Result<Option<Vec<usize>>, EnvKnobError> {
    const EXPECTED: &str = "a comma-separated list of positive integers";
    let Some(v) = raw(knob)? else {
        return Ok(None);
    };
    let parts = v.split(',').map(str::trim).filter(|p| !p.is_empty());
    let out = parts.map(|part| number(knob, part, EXPECTED, |&n| n >= 1));
    let out = out.collect::<Result<Vec<_>, _>>()?;
    Ok((!out.is_empty()).then_some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // The process environment is global and the test harness is
    // multithreaded: concurrent set_var/getenv is a data race in glibc.
    // Every test that mutates the environment serializes on this lock
    // (and additionally uses its own variable names, so a poisoned lock
    // cannot leak state between tests).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn env_guard() -> MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bool_knob_accepts_the_four_spellings_and_unset() {
        let _g = env_guard();
        assert_eq!(env_bool("LBENCH_TEST_BOOL_UNSET"), Ok(false));
        for (v, want) in [("1", true), ("true", true), ("0", false), ("FALSE", false)] {
            std::env::set_var("LBENCH_TEST_BOOL_OK", v);
            assert_eq!(env_bool("LBENCH_TEST_BOOL_OK"), Ok(want), "{v}");
        }
        std::env::remove_var("LBENCH_TEST_BOOL_OK");
    }

    #[test]
    fn bool_knob_rejects_yes_naming_the_knob() {
        let _g = env_guard();
        std::env::set_var("LBENCH_TEST_BOOL_BAD", "yes");
        let err = env_bool("LBENCH_TEST_BOOL_BAD").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("LBENCH_TEST_BOOL_BAD"), "{msg}");
        assert!(msg.contains("\"yes\""), "{msg}");
        assert!(msg.contains("1, true, 0, false"), "{msg}");
        std::env::remove_var("LBENCH_TEST_BOOL_BAD");
    }

    #[test]
    fn numeric_knobs_reject_garbage_and_zero() {
        let _g = env_guard();
        std::env::set_var("LBENCH_TEST_NUM", "12");
        assert_eq!(env_u64("LBENCH_TEST_NUM"), Ok(Some(12)));
        assert_eq!(env_positive_usize("LBENCH_TEST_NUM"), Ok(Some(12)));
        std::env::set_var("LBENCH_TEST_NUM", "0");
        assert_eq!(env_u64("LBENCH_TEST_NUM"), Ok(Some(0)));
        assert!(env_positive_usize("LBENCH_TEST_NUM").is_err(), "0 threads");
        std::env::set_var("LBENCH_TEST_NUM", "four");
        let msg = env_u64("LBENCH_TEST_NUM").unwrap_err().to_string();
        assert!(
            msg.contains("\"four\"") && msg.contains("LBENCH_TEST_NUM"),
            "{msg}"
        );
        std::env::remove_var("LBENCH_TEST_NUM");
    }

    #[test]
    fn list_knob_parses_and_flags_the_bad_entry() {
        let _g = env_guard();
        std::env::set_var("LBENCH_TEST_LIST", "1, 4,8");
        assert_eq!(
            env_positive_usize_list("LBENCH_TEST_LIST"),
            Ok(Some(vec![1, 4, 8]))
        );
        std::env::set_var("LBENCH_TEST_LIST", "1,x,8");
        let msg = env_positive_usize_list("LBENCH_TEST_LIST")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("\"x\""), "{msg}");
        std::env::set_var("LBENCH_TEST_LIST", " , ");
        assert_eq!(env_positive_usize_list("LBENCH_TEST_LIST"), Ok(None));
        std::env::remove_var("LBENCH_TEST_LIST");
    }

    #[test]
    fn single_choice_knob_canonicalizes_and_rejects_unknown() {
        let _g = env_guard();
        const ALLOWED: &[&str] = &["realtime", "modelled"];
        assert_eq!(env_choice("LBENCH_TEST_MODE_UNSET", ALLOWED), Ok(None));
        std::env::set_var("LBENCH_TEST_MODE", " Modelled ");
        assert_eq!(
            env_choice("LBENCH_TEST_MODE", ALLOWED),
            Ok(Some("modelled")),
            "case-folded to the canonical spelling"
        );
        std::env::set_var("LBENCH_TEST_MODE", "simulated");
        let msg = env_choice("LBENCH_TEST_MODE", ALLOWED)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("\"simulated\""), "{msg}");
        assert!(msg.contains("realtime, modelled"), "{msg}");
        std::env::set_var("LBENCH_TEST_MODE", "  ");
        assert_eq!(env_choice("LBENCH_TEST_MODE", ALLOWED), Ok(None));
        std::env::remove_var("LBENCH_TEST_MODE");
    }

    #[test]
    fn range_knob_enforces_bounds_and_names_them() {
        let _g = env_guard();
        assert_eq!(env_range_u64("LBENCH_TEST_RANGE_UNSET", 1..=32), Ok(None));
        std::env::set_var("LBENCH_TEST_RANGE", "8");
        assert_eq!(env_range_u64("LBENCH_TEST_RANGE", 1..=32), Ok(Some(8)));
        for bad in ["0", "33", "eight"] {
            std::env::set_var("LBENCH_TEST_RANGE", bad);
            let msg = env_range_u64("LBENCH_TEST_RANGE", 1..=32)
                .unwrap_err()
                .to_string();
            assert!(msg.contains("LBENCH_TEST_RANGE"), "{msg}");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
            assert!(msg.contains("1..=32"), "{msg}");
        }
        std::env::remove_var("LBENCH_TEST_RANGE");
    }
}
