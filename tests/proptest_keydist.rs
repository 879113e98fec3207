//! Property tests for the keyed-op dimension's key distributions
//! ([`KeyDist`]) — the samplers behind `fig_shards`' skew axis.
//!
//! The doc comments on the tests below are load-bearing twice over: they
//! document the distributional claims, and they regression-test the
//! `proptest!` shim's attribute pass-through (`///` desugars to
//! `#[doc = "…"]`, which used to abort the macro expansion).

use lbench::KeyDist;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Draws `n` samples from `dist` over `keyspace`.
fn samples(dist: &KeyDist, keyspace: u64, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| dist.sample(&mut rng, keyspace)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zipfian mass concentration. The sampler inverts
    /// `key = keyspace · (1-u)^(1/(1-θ))`, so the probability of landing
    /// in the bottom decile of the keyspace has the closed form
    /// `0.1^(1-θ)` — 10% at θ=0 (uniform), 32% at θ=0.5, 79% at θ=0.9.
    /// The observed fraction must match the analytic one within binomial
    /// noise, and always dominate the uniform baseline for θ > 0.
    #[test]
    fn zipfian_bottom_decile_mass_matches_the_closed_form(
        theta_mills in 0u64..950,
        seed in any::<u64>(),
    ) {
        let theta = theta_mills as f64 / 1000.0;
        let keyspace = 10_000u64;
        let n = 4_000usize;
        let hits = samples(&KeyDist::Zipfian { theta }, keyspace, n, seed)
            .iter()
            .filter(|&&k| k < keyspace / 10)
            .count();
        let frac = hits as f64 / n as f64;
        let expected = 0.1f64.powf(1.0 - theta);
        prop_assert!(
            (frac - expected).abs() < 0.05,
            "theta {theta}: bottom-decile mass {frac:.3}, analytic {expected:.3}"
        );
        if theta >= 0.1 {
            prop_assert!(frac > 0.1, "theta {theta}: no concentration over uniform ({frac:.3})");
        }
    }

    /// Zipfian head-key mass. The cumulative form above puts
    /// `P(key < x) = (x/N)^(1-θ)`, so key 0 *alone* receives
    /// `N^-(1-θ)`: 0.1% at θ=0.5 over 10⁶ keys, 25% at θ=0.9 and 87% at
    /// θ=0.99 — at the skew the wall-clock KV workload runs, nearly every
    /// operation is for one entry.
    #[test]
    fn zipfian_head_key_mass_matches_the_closed_form(
        theta in prop_oneof![Just(0.5f64), Just(0.9f64), Just(0.99f64)],
        seed in any::<u64>(),
    ) {
        let keyspace = 1_000_000u64;
        let n = 40_000usize;
        let head = samples(&KeyDist::Zipfian { theta }, keyspace, n, seed)
            .iter()
            .filter(|&&k| k == 0)
            .count();
        let frac = head as f64 / n as f64;
        let expected = (keyspace as f64).powf(-(1.0 - theta));
        prop_assert!(
            (frac - expected).abs() < 0.01,
            "theta {theta}: head-key mass {frac:.4}, analytic {expected:.4}"
        );
    }

    /// HotSet hit fraction. Exactly `pct`% of draws take the hot branch
    /// (keys `0..keys`), the rest the cold branch (`keys..keyspace`) —
    /// the two never overlap, so the observed hot fraction is Binomial
    /// (n, pct/100) and must sit within noise of `pct`%.
    #[test]
    fn hot_set_hit_fraction_tracks_the_configured_percentage(
        keys in 1u64..=256,
        pct in 0u32..=100,
        seed in any::<u64>(),
    ) {
        let keyspace = 4096u64;
        let n = 2_500usize;
        let hot = samples(&KeyDist::HotSet { keys, pct }, keyspace, n, seed)
            .iter()
            .filter(|&&k| k < keys)
            .count();
        let frac = hot as f64 / n as f64;
        let expected = pct as f64 / 100.0;
        prop_assert!(
            (frac - expected).abs() < 0.04,
            "hot:{keys}:{pct}: hot fraction {frac:.3}, expected {expected:.3}"
        );
    }

    /// Every sampler stays inside the keyspace, whatever its parameters.
    #[test]
    fn all_samplers_stay_in_bounds(
        keyspace in 1u64..=512,
        theta_mills in 0u64..1000,
        keys in 1u64..=1024,
        pct in 0u32..=100,
        seed in any::<u64>(),
    ) {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: theta_mills as f64 / 1000.0 },
            KeyDist::HotSet { keys, pct },
        ] {
            for k in samples(&dist, keyspace, 64, seed) {
                prop_assert!(k < keyspace, "{}: key {k} >= keyspace {keyspace}", dist.label());
            }
        }
    }
}
