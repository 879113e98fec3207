//! Single source of truth for the CSV schemas the exhibits emit.
//!
//! Every exhibit writes a CSV into `RESULTS_DIR`; several of those files
//! are committed under `results/`. When an exhibit's schema changes (a
//! column added, a lock renamed), the committed copies silently go
//! stale — the header no longer matches what the exhibit would produce.
//! This module centralizes the headers so that (a) the writers and the
//! checker can never disagree, and (b) the `csv_schema` integration test
//! can fail loudly on any committed CSV whose header drifted from its
//! generating exhibit.
//!
//! It also says, once, what a long-form column *is*: [`result_cell`]
//! resolves a column name to a value of
//! [`ScenarioResult::fields`](lbench::ScenarioResult::fields) and its
//! precision, and [`LONG_FORMS`] lists, per file, the few columns that
//! come from the exhibit's grid cell instead. [`crate::long_table`]
//! writes every row from those two.

use crate::Cell;
use lbench::{Field, LockKind, ScenarioResult};

/// Header of the `Table`-shaped CSVs (`threads` + one column per lock).
pub fn table_header(locks: &[LockKind]) -> String {
    let mut s = String::from("threads");
    for k in locks {
        s.push(',');
        s.push_str(k.name());
    }
    s
}

/// Header of `fig_rw.csv` (written by the `fig_rw` exhibit). The
/// `lat_p50_ns`/`lat_p99_ns` columns are modelled acquisition-latency
/// percentiles over exclusive (handoff-charged) acquisitions.
pub const FIG_RW_HEADER: &str = "lock,read_pct,threads,throughput,read_ops,write_ops,\
     exclusive_acquisitions,migrations,tenures,local_handoffs,mean_streak,max_streak,\
     lat_p50_ns,lat_p99_ns,policy";

/// Header of `fig_scenarios.csv` (written by the `fig_scenarios`
/// exhibit): one row per scenario × lock, with the load-shape label, op
/// split, locality/tenure counters, and latency percentiles.
pub const FIG_SCENARIOS_HEADER: &str = "scenario,shape,lock,threads,clusters,read_pct,\
     throughput,total_ops,read_ops,write_ops,acquisitions,migrations,misses_per_cs,\
     mean_batch,tenures,local_handoffs,mean_streak,max_streak,lat_p50_ns,lat_p99_ns,policy";

/// Header of `fig_cna.csv` (written by the `fig_compare` exhibit).
pub const FIG_CNA_HEADER: &str = "lock,clusters,threads,throughput,acquisitions,migrations,\
     misses_per_cs,tenures,local_handoffs,mean_streak,max_streak,policy";

/// Header of `fig_fissile.csv` (written by the `fig_compare` exhibit):
/// the `fig_cna` shape plus the fissile fast-vs-slow acquisition split
/// (`fast_acqs`/`slow_acqs` — zeros for the non-fissile rows).
pub const FIG_FISSILE_HEADER: &str = "lock,clusters,threads,throughput,acquisitions,migrations,\
     misses_per_cs,tenures,local_handoffs,mean_streak,max_streak,fast_acqs,slow_acqs,policy";

/// Header of `fig_recip.csv` (written by the `fig_compare` exhibit): one
/// row per mode × clusters × threads × lock. The `mode` column is
/// `realtime` (real threads, throughput floors) or `modelled` (the
/// deterministic disaggregated substrate, where `succ_transitions` — the
/// succession census behind the constant-coherence self-check — is
/// meaningful; realtime rows carry 0 there).
pub const FIG_RECIP_HEADER: &str = "lock,mode,clusters,threads,throughput,acquisitions,\
     migrations,misses_per_cs,succ_transitions,tenures,local_handoffs,mean_streak,max_streak,\
     lat_p50_ns,lat_p99_ns,policy";

/// Header of `fig_gcr.csv` (written by the `fig_gcr` exhibit): the
/// `fig_fissile` shape with the cluster column replaced by the
/// oversubscription factor (threads ÷ base threads) and the GCR
/// admission counters appended (`passive_parks`/`promotions` — zeros
/// for the unwrapped rows).
pub const FIG_GCR_HEADER: &str = "lock,oversub,threads,clusters,throughput,acquisitions,\
     migrations,misses_per_cs,tenures,local_handoffs,mean_streak,max_streak,fast_acqs,\
     slow_acqs,passive_parks,promotions,policy";

/// Header of `fig_model.csv` (written by the `fig_model` exhibit): one
/// row per modelled cell × lock. Every column is deterministic — the
/// modelled cost mode is bit-reproducible run to run, so the file
/// deliberately carries **no wall-clock column** (the one field the
/// determinism contract excludes) and the committed copy under
/// `results/` regenerates byte-identically on any machine.
pub const FIG_MODEL_HEADER: &str = "scenario,lock,threads,clusters,read_pct,throughput,\
     total_ops,read_ops,write_ops,acquisitions,migrations,remote_misses,misses_per_cs,\
     mean_batch,batch_p50,tenures,local_handoffs,mean_streak,max_streak,aborts,\
     lat_p50_ns,lat_p99_ns,policy";

/// Header of `fig_shards.csv` (written by the `fig_shards` exhibit): one
/// row per shards × clients × key-distribution cell × lock over the
/// sharded KV service. The sweep runs entirely on the modelled
/// substrate, so — like [`FIG_MODEL_HEADER`] — the file carries **no
/// wall-clock column** and the committed copy regenerates
/// byte-identically. The latency columns are per-*operation* percentiles
/// (queueing plus service, from the engine's reservoir), not bare
/// acquisition latencies.
pub const FIG_SHARDS_HEADER: &str = "lock,shards,clients,dist,clusters,read_pct,throughput,\
     total_ops,read_ops,write_ops,acquisitions,migrations,misses_per_cs,mean_batch,tenures,\
     local_handoffs,mean_streak,lat_p50_ns,lat_p99_ns,policy";

/// Header of `fig_topology.csv` (written by the `fig_topology` exhibit):
/// one row per probed CPU pair (upper triangle, `cpu_a <= cpu_b`) with
/// the measured one-way latency and the cluster each endpoint landed in —
/// the latency matrix and the cluster map in one long-form table. On
/// machines where probing is impossible the exhibit falls back to virtual
/// clusters and emits one synthetic CPU per virtual cluster priced by the
/// cost model (`source` then says `virtual` instead of `measured`), so
/// the file stays schema-stable everywhere.
pub const FIG_TOPOLOGY_HEADER: &str = "source,cpu_a,cpu_b,lat_ns,cluster_a,cluster_b";

/// Header of `ablation_policy.csv` (written by the `ablation_policy`
/// exhibit): one row per lock × handoff policy.
pub const POLICY_HEADER: &str = "lock,policy,threads,throughput,stddev_pct,mean_batch,\
     misses_per_cs,tenures,local_handoffs,mean_streak,max_streak,migrations_per_tenure";

/// Every long-form CSV of the crate — a row per measurement under a
/// pinned header — as `(file stem, header, cell columns)`. The cell
/// columns are the ones the exhibit's own hook supplies: what lives in
/// its grid cell, plus `fig_gcr`'s unit-promoted `throughput`. Every
/// other column goes through [`result_cell`].
pub const LONG_FORMS: &[(&str, &str, &[&str])] = &[
    ("fig_rw", FIG_RW_HEADER, &[]),
    ("fig_cna", FIG_CNA_HEADER, &["clusters"]),
    ("fig_fissile", FIG_FISSILE_HEADER, &["clusters"]),
    ("fig_recip", FIG_RECIP_HEADER, &["mode", "clusters"]),
    (
        "fig_gcr",
        FIG_GCR_HEADER,
        &["oversub", "clusters", "throughput"],
    ),
    (
        "fig_scenarios",
        FIG_SCENARIOS_HEADER,
        &["scenario", "shape", "clusters"],
    ),
    ("fig_model", FIG_MODEL_HEADER, &["scenario", "clusters"]),
    (
        "fig_shards",
        FIG_SHARDS_HEADER,
        &["shards", "clients", "dist", "clusters"],
    ),
    ("ablation_policy", POLICY_HEADER, &[]),
];

/// The column table: column → (the result field it reads, digits after
/// the point when that field is a float). A column that is not listed
/// reads the field of its own name, which must not be a float — every
/// float column states its precision here, once.
pub const COLUMNS: &[(&str, &str, usize)] = &[
    ("lock", "kind", 0),
    ("exclusive_acquisitions", "acquisitions", 0),
    ("fast_acqs", "fast_acquisitions", 0),
    ("slow_acqs", "slow_acquisitions", 0),
    ("throughput", "throughput", 0),
    ("misses_per_cs", "misses_per_cs", 4),
    ("mean_batch", "mean_batch", 2),
    ("mean_streak", "mean_streak", 2),
    ("stddev_pct", "stddev_pct", 2),
    ("migrations_per_tenure", "migrations_per_tenure", 4),
];

/// The cell of long-form column `column` for result `r`, or `None` when
/// the name is neither in [`COLUMNS`], nor a printable field, nor the
/// one derived column (`batch_p50`, the median-batch floor). `policy`
/// prints the label, `-` for a lock without one.
pub fn result_cell(column: &str, r: &ScenarioResult) -> Option<Cell> {
    if column == "batch_p50" {
        return Some(Cell::Int(r.batch_p50_floor()));
    }
    let listed = COLUMNS.iter().find(|(name, ..)| *name == column);
    let (field, digits) = listed.map_or((column, None), |&(_, f, d)| (f, Some(d)));
    let (_, value) = r.fields().into_iter().find(|(name, _)| *name == field)?;
    match value {
        Field::Kind(kind) => Some(Cell::text(kind.name())),
        Field::Int(n) => Some(Cell::Int(n)),
        Field::Float(v) => digits.map(|d| Cell::num(v, d)),
        Field::Label(label) => Some(Cell::text(label.unwrap_or("-"))),
        Field::List(_) => None,
    }
}

/// The header `file_name` (e.g. `"fig_rw.csv"`) is expected to carry, or
/// `None` for a name no current exhibit produces. Table-shaped exhibits
/// derive their headers from the same [`LockKind`] arrays the exhibits
/// sweep, so a lock rename or set change shows up here immediately.
pub fn expected_header(file_name: &str) -> Option<String> {
    let stem = file_name.strip_suffix(".csv")?;
    if let Some((_, header, _)) = LONG_FORMS.iter().find(|(file, ..)| *file == stem) {
        return Some(header.to_string());
    }
    match stem {
        "fig_topology" => Some(FIG_TOPOLOGY_HEADER.to_string()),
        "fig2_throughput"
        | "fig2_lat_p50"
        | "fig2_lat_p99"
        | "fig3_misses_per_cs"
        | "fig4_low_contention"
        | "fig5_fairness" => Some(table_header(&LockKind::FIG2)),
        "fig6_abortable" | "fig6_abort_rate" => Some(table_header(&LockKind::FIG6)),
        // table1_get{pct}.csv and table2*.csv share the TABLES set.
        _ if stem.starts_with("table1_get") || stem.starts_with("table2") => {
            Some(table_header(&LockKind::TABLES))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_headers_match_the_registry_names() {
        let t = expected_header("table1_get90.csv").unwrap();
        assert!(t.starts_with("threads,pthread,Fib-BO,MCS,"), "{t}");
        assert!(t.ends_with("C-MCS-MCS"), "{t}");
        // The figure exhibits' actual emit() names, not the figure numbers.
        for f in [
            "fig2_throughput.csv",
            "fig3_misses_per_cs.csv",
            "fig4_low_contention.csv",
            "fig5_fairness.csv",
        ] {
            assert_eq!(
                expected_header(f),
                Some(table_header(&LockKind::FIG2)),
                "{f}"
            );
        }
        assert_eq!(
            expected_header("table2_mmicro.csv"),
            Some(table_header(&LockKind::TABLES))
        );
        assert_eq!(
            expected_header("fig6_abort_rate.csv").unwrap(),
            "threads,A-CLH,A-HBO,A-C-BO-BO,A-C-BO-CLH"
        );
        assert_eq!(expected_header("unknown.csv"), None);
    }

    #[test]
    fn literal_headers_have_no_stray_whitespace() {
        for h in [
            FIG_RW_HEADER,
            FIG_CNA_HEADER,
            FIG_FISSILE_HEADER,
            FIG_RECIP_HEADER,
            FIG_GCR_HEADER,
            FIG_SCENARIOS_HEADER,
            FIG_MODEL_HEADER,
            FIG_SHARDS_HEADER,
            FIG_TOPOLOGY_HEADER,
            POLICY_HEADER,
        ] {
            assert!(!h.contains(' '), "continuation indent leaked: {h}");
        }
    }

    #[test]
    fn fissile_header_extends_the_cna_shape() {
        let fis = expected_header("fig_fissile.csv").unwrap();
        assert!(fis.starts_with("lock,clusters,threads,"), "{fis}");
        assert!(fis.contains("fast_acqs,slow_acqs"), "{fis}");
        assert!(fis.ends_with("policy"), "{fis}");
    }

    #[test]
    fn recip_header_is_pinned() {
        let r = expected_header("fig_recip.csv").unwrap();
        assert!(r.starts_with("lock,mode,clusters,threads,"), "{r}");
        assert!(r.contains("succ_transitions"), "{r}");
        assert!(r.ends_with("policy"), "{r}");
    }

    #[test]
    fn gcr_header_extends_the_fissile_shape() {
        let gcr = expected_header("fig_gcr.csv").unwrap();
        assert!(gcr.starts_with("lock,oversub,threads,clusters,"), "{gcr}");
        assert!(
            gcr.contains("fast_acqs,slow_acqs,passive_parks,promotions"),
            "{gcr}"
        );
        assert!(gcr.ends_with("policy"), "{gcr}");
    }

    #[test]
    fn model_header_is_wall_free_and_pinned() {
        let m = expected_header("fig_model.csv").unwrap();
        assert!(m.starts_with("scenario,lock,threads,clusters,"), "{m}");
        assert!(m.contains("remote_misses,misses_per_cs"), "{m}");
        assert!(m.contains("batch_p50"), "{m}");
        assert!(m.ends_with("policy"), "{m}");
        // The determinism contract excludes exactly one field: real time.
        assert!(!m.contains("wall"), "{m}");
    }

    #[test]
    fn shards_header_is_wall_free_and_pinned() {
        let s = expected_header("fig_shards.csv").unwrap();
        assert!(s.starts_with("lock,shards,clients,dist,clusters,"), "{s}");
        assert!(s.contains("lat_p50_ns,lat_p99_ns"), "{s}");
        assert!(s.ends_with("policy"), "{s}");
        // Modelled substrate: deterministic, so no wall column.
        assert!(!s.contains("wall"), "{s}");
    }

    #[test]
    fn topology_header_is_pinned() {
        let t = expected_header("fig_topology.csv").unwrap();
        assert_eq!(t, "source,cpu_a,cpu_b,lat_ns,cluster_a,cluster_b");
    }

    #[test]
    fn latency_extended_headers_are_pinned() {
        assert!(
            FIG_RW_HEADER.ends_with("lat_p50_ns,lat_p99_ns,policy"),
            "{FIG_RW_HEADER}"
        );
        let scen = expected_header("fig_scenarios.csv").unwrap();
        assert!(scen.starts_with("scenario,shape,lock,"), "{scen}");
        assert!(scen.contains("lat_p50_ns,lat_p99_ns"), "{scen}");
        // The fig2 latency companions share the FIG2 matrix schema.
        assert_eq!(
            expected_header("fig2_lat_p50.csv"),
            Some(table_header(&LockKind::FIG2))
        );
        assert_eq!(
            expected_header("fig2_lat_p99.csv"),
            Some(table_header(&LockKind::FIG2))
        );
    }
}
