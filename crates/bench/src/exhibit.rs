//! Declarative exhibits: **one** sweep/render/CSV/self-check driver for
//! every bench binary.
//!
//! Each binary used to hand-roll its own sweep loop, progress lines,
//! table rendering, CSV writer, and acceptance checks. An [`Exhibit`]
//! turns all of that into a declaration — locks × grid × a builder from
//! grid cell to `(Scenario, LBenchConfig)` × tables × checks — consumed
//! by the single [`run_exhibit`] driver:
//!
//! 1. every grid cell × lock is measured through [`measure_cell`] (the
//!    builder's output on [`lbench::run_scenario`] — the kvstore and
//!    allocator workloads are keyed scenarios like any other), with a
//!    standardized progress line;
//! 2. every [`TableSpec`] builds a [`Grid`] from the measurements and is
//!    emitted through the shared text/CSV path;
//! 3. every check runs against the full measurement set; a failure makes
//!    [`exhibit_main`] exit non-zero (the CI acceptance hook).
//!
//! Helper builders cover the recurring table shapes: [`metric_table`]
//! (grid-cell rows × lock columns of one metric), [`long_table`]
//! (one CSV row per measurement under a pinned [`crate::schema`]
//! header, every column resolved by name), and the two recurring whole
//! declarations, [`steady_sweep`] and [`policy_exhibit`].

use crate::grid::{emit, Cell, Grid};
use crate::schema;
use lbench::{
    run_scenario, AnyLockKind, LBenchConfig, LockKind, PolicySpec, Scenario, ScenarioResult,
};
use std::fmt::Display;

/// One measured cell of an exhibit: the grid cell it came from plus the
/// engine's result (which carries the lock kind).
pub struct Measurement<C> {
    /// The grid cell (thread count, read ratio, policy, scenario, …).
    pub cell: C,
    /// The measurement.
    pub result: ScenarioResult,
}

/// Builds the [`Scenario`] + [`LBenchConfig`] for one grid cell.
pub type ScenarioBuilder<C> = Box<dyn Fn(&C) -> (Scenario, LBenchConfig)>;

/// Builds a [`Grid`] from the full measurement set.
pub type GridBuilder<C> = Box<dyn Fn(&[Measurement<C>]) -> Grid>;

/// A free-form hook over the full measurement set.
pub type Epilogue<C> = Box<dyn Fn(&[Measurement<C>])>;

/// Measures one (lock, cell) pair: a builder's scenario and config on
/// the `LBENCH_TOPOLOGY` backend — the one place an exhibit calls the
/// engine, for the sweep and for any check that re-measures a cell.
pub fn measure_cell(
    kind: AnyLockKind,
    (scenario, mut cfg): (Scenario, LBenchConfig),
) -> ScenarioResult {
    cfg.topology = crate::topology_mode();
    run_scenario(kind, &scenario, &cfg)
}

/// The result `kind` measured at the first grid cell `at` accepts —
/// `None` when no such cell was swept (a knob filtered it out), which
/// checks report as skipped rather than failed.
pub fn find_where<C>(
    ms: &[Measurement<C>],
    kind: impl Into<AnyLockKind>,
    at: impl Fn(&C) -> bool,
) -> Option<&ScenarioResult> {
    let kind = kind.into();
    ms.iter()
        .find(|m| m.result.kind == kind && at(&m.cell))
        .map(|m| &m.result)
}

/// The result `kind` measured at `cell`, for checks whose cells the
/// exhibit's grid always contains (panics otherwise).
pub fn find<C: PartialEq>(
    ms: &[Measurement<C>],
    cell: C,
    kind: impl Into<AnyLockKind>,
) -> &ScenarioResult {
    find_where(ms, kind, |c| *c == cell).expect("check cell present")
}

/// The self-check the comparison exhibits share: at `cell`, `kind` must
/// hold at least `floor` × the throughput of `baseline`. `detail` picks
/// the counters worth printing next to the ratio, from `kind`'s result
/// and `baseline`'s.
pub fn throughput_floor_check<C>(
    cell: C,
    kind: LockKind,
    baseline: LockKind,
    floor: f64,
    detail: fn(&ScenarioResult, &ScenarioResult) -> String,
) -> Check<C>
where
    C: Copy + PartialEq + Display + 'static,
{
    Box::new(move |ms| {
        let (lock, base) = (find(ms, cell, kind), find(ms, cell, baseline));
        let ratio = lock.throughput / base.throughput.max(1.0);
        let msg = format!(
            "{kind} vs {baseline} at {cell}: {ratio:.3}x (floor {floor}x, {})",
            detail(lock, base)
        );
        verdict(ratio >= floor, msg)
    })
}

/// `detail` for [`throughput_floor_check`]: both locks' migration counts.
pub fn migrations_detail(lock: &ScenarioResult, base: &ScenarioResult) -> String {
    format!("{} vs {} migrations", lock.migrations, base.migrations)
}

/// The printed (not written) table of the comparison exhibits:
/// throughput in ops/s, one row per grid cell, one column per lock.
pub fn throughput_table<C: Display + 'static>(title: &str) -> TableSpec<C> {
    TableSpec {
        csv: None,
        text: true,
        build: metric_table(title.into(), "cell", 0, |r| r.throughput),
    }
}

/// One grid cell of the clusters × threads exhibits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ClusterThreads {
    /// NUMA clusters of the cell.
    pub clusters: usize,
    /// Worker threads of the cell.
    pub threads: usize,
}

impl ClusterThreads {
    /// The builder of the clusters × threads exhibits: the paper's steady
    /// workload at the cell's cluster and thread counts.
    pub fn steady(&self) -> (Scenario, LBenchConfig) {
        let mut cfg = crate::base_config(self.threads);
        cfg.clusters = self.clusters;
        (Scenario::steady(), cfg)
    }

    /// Their `cell_columns` hook: `clusters`, the swept count.
    pub fn cell_columns(m: &Measurement<ClusterThreads>, column: &str) -> Cell {
        match column {
            "clusters" => Cell::Int(m.cell.clusters as u64),
            _ => no_cell_columns(m, column),
        }
    }
}

impl Display for ClusterThreads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c={} t={}", self.clusters, self.threads)
    }
}

/// The grid of a clusters × threads exhibit: for every cluster count,
/// the `LBENCH_THREADS` grid plus the exhibit's check cells for that
/// count (`extra_threads`), deduplicated and sorted.
pub fn cluster_thread_grid(
    cluster_counts: &[usize],
    extra_threads: impl Fn(usize) -> Vec<usize>,
) -> Vec<ClusterThreads> {
    cluster_counts
        .iter()
        .flat_map(|&clusters| {
            let mut threads = crate::thread_grid();
            threads.extend(extra_threads(clusters));
            threads.sort_unstable();
            threads.dedup();
            threads
                .into_iter()
                .map(move |threads| ClusterThreads { clusters, threads })
        })
        .collect()
}

/// The saturation check cell of a cluster count: `8 × clusters` threads.
/// Below that the offered load does not reliably saturate the lock in
/// this harness — at `2 × clusters` even C-BO-MCS holds no edge over
/// TATAS, so a comparison there measures noise rather than the design.
pub fn saturation_threads(clusters: usize) -> usize {
    8 * clusters
}

/// One table of an exhibit: how to build the [`Grid`] and where it goes.
pub struct TableSpec<C> {
    /// `Some(name)` writes `RESULTS_DIR/<name>.csv`.
    pub csv: Option<String>,
    /// Whether the rendered text table is printed to stdout.
    pub text: bool,
    /// Builds the grid from the full measurement set.
    pub build: GridBuilder<C>,
}

/// A self-check over the full measurement set: `Ok(msg)` prints
/// `check: <msg> ok`, `Err(msg)` prints `check: <msg> FAILED` and fails
/// the exhibit.
pub type Check<C> = Box<dyn Fn(&[Measurement<C>]) -> Result<String, String>>;

/// The tail of a [`Check`]: `msg` as a pass or as a failure.
pub fn verdict(pass: bool, msg: String) -> Result<String, String> {
    if pass {
        Ok(msg)
    } else {
        Err(msg)
    }
}

/// A declarative exhibit (see the module docs).
pub struct Exhibit<C> {
    /// Binary name, used in the failure banner.
    pub name: &'static str,
    /// Progress banner printed to stderr before the sweep.
    pub banner: String,
    /// Column axis: the locks under test.
    pub locks: Vec<AnyLockKind>,
    /// Row axis: the swept cells, in presentation order.
    pub grid: Vec<C>,
    /// The scenario and config of one grid cell.
    pub measure: ScenarioBuilder<C>,
    /// Unit of the result's throughput channel for the progress lines —
    /// `"ops/s"` for the scenario engine, `"pairs/ms"` for the allocator
    /// workload, etc.
    pub unit: &'static str,
    /// Tables to emit after the sweep.
    pub tables: Vec<TableSpec<C>>,
    /// Acceptance self-checks.
    pub checks: Vec<Check<C>>,
    /// Free-form epilogue over the measurements (histograms etc.).
    pub epilogue: Option<Epilogue<C>>,
}

/// Runs an exhibit: sweep, tables, epilogue, checks. Returns whether all
/// checks passed.
pub fn run_exhibit<C: Clone + Display>(ex: &Exhibit<C>) -> bool {
    eprintln!("{}", ex.banner);
    let mut ms: Vec<Measurement<C>> = Vec::with_capacity(ex.grid.len() * ex.locks.len());
    for cell in &ex.grid {
        for &kind in &ex.locks {
            let result = measure_cell(kind, (ex.measure)(cell));
            eprintln!(
                "  [{kind} {cell}] {} {} ({:?} wall)",
                lbench::stats::fmt_throughput_raw(result.throughput),
                ex.unit,
                result.wall
            );
            ms.push(Measurement {
                cell: cell.clone(),
                result,
            });
        }
    }
    for spec in &ex.tables {
        let grid = (spec.build)(&ms);
        emit(&grid, spec.csv.as_deref(), spec.text);
    }
    if let Some(epilogue) = &ex.epilogue {
        epilogue(&ms);
    }
    let mut ok = true;
    for check in &ex.checks {
        match check(&ms) {
            Ok(msg) => println!("check: {msg} ok"),
            Err(msg) => {
                println!("check: {msg} FAILED");
                ok = false;
            }
        }
    }
    ok
}

/// Runs an exhibit and exits the process: 0 when every check passed,
/// 1 otherwise — the entry point of every exhibit binary.
pub fn exhibit_main<C: Clone + Display>(ex: Exhibit<C>) -> ! {
    if run_exhibit(&ex) {
        std::process::exit(0)
    }
    eprintln!("{}: acceptance shape violated", ex.name);
    std::process::exit(1)
}

/// Table builder: one row per grid cell (by `Display` label, insertion
/// order), one column per lock, `metric` in the cells.
pub fn metric_table<C, M>(
    title: String,
    row_label: &'static str,
    precision: usize,
    metric: M,
) -> GridBuilder<C>
where
    C: Display,
    M: Fn(&ScenarioResult) -> f64 + 'static,
{
    Box::new(move |ms| {
        let mut kinds: Vec<AnyLockKind> = Vec::new();
        let mut row_keys: Vec<String> = Vec::new();
        for m in ms {
            if !kinds.contains(&m.result.kind) {
                kinds.push(m.result.kind);
            }
            let key = m.cell.to_string();
            if !row_keys.contains(&key) {
                row_keys.push(key);
            }
        }
        let rows = row_keys
            .iter()
            .map(|key| {
                let mut cells = vec![Cell::Text(key.clone())];
                for &kind in &kinds {
                    cells.push(
                        ms.iter()
                            .find(|m| m.result.kind == kind && &m.cell.to_string() == key)
                            .map(|m| Cell::num(metric(&m.result), precision))
                            .unwrap_or(Cell::Missing),
                    );
                }
                cells
            })
            .collect();
        Grid {
            title: title.clone(),
            columns: std::iter::once(row_label.to_string())
                .chain(kinds.iter().map(|k| k.name().to_string()))
                .collect(),
            rows,
        }
    })
}

/// Table builder for long-form CSVs: one row per measurement under a
/// pinned [`crate::schema`] header, every column resolved by name. The
/// columns the header's [`schema::LONG_FORMS`] entry declares are asked
/// of `cell_columns` (the exhibit's hook over its own grid cell); every
/// other goes through [`schema::result_cell`]. An unregistered header or
/// an unresolved column panics.
pub fn long_table<C>(
    header: &'static str,
    cell_columns: impl Fn(&Measurement<C>, &str) -> Cell + 'static,
) -> GridBuilder<C> {
    let registered = schema::LONG_FORMS.iter().find(|(_, h, _)| *h == header);
    let &(_, _, from_cell) = registered.unwrap_or_else(|| panic!("unregistered header {header}"));
    let cell = move |m: &Measurement<C>, column: &str| {
        if from_cell.contains(&column) {
            return cell_columns(m, column);
        }
        schema::result_cell(column, &m.result)
            .unwrap_or_else(|| panic!("column {column} is not in the column table"))
    };
    Box::new(move |ms| Grid {
        title: String::new(),
        columns: header.split(',').map(str::to_string).collect(),
        rows: ms
            .iter()
            .map(|m| header.split(',').map(|column| cell(m, column)).collect())
            .collect(),
    })
}

/// The `cell_columns` hook of an exhibit whose header declares none.
pub fn no_cell_columns<C>(_: &Measurement<C>, column: &str) -> Cell {
    unreachable!("{column} is not declared a cell column")
}

/// The exhibit `fig2`, `fig3`, `fig5` and `ablation_batching` declare:
/// `locks` × the `LBENCH_THREADS` grid on the paper's steady workload.
pub fn steady_sweep(
    name: &'static str,
    banner: String,
    locks: &[LockKind],
    tables: Vec<TableSpec<usize>>,
) -> Exhibit<usize> {
    Exhibit {
        name,
        banner,
        locks: AnyLockKind::excl(locks),
        grid: crate::thread_grid(),
        measure: Box::new(|&threads| (Scenario::steady(), crate::base_config(threads))),
        unit: "ops/s",
        tables,
        checks: vec![],
        epilogue: None,
    }
}

/// The exhibit both policy ablations declare: `locks` × `policies` on
/// the paper's steady workload at `threads` threads, printed as the
/// long-form policy table under `title` and written to `<name>.csv`
/// under the pinned [`crate::schema::POLICY_HEADER`].
pub fn policy_exhibit(
    name: &'static str,
    banner: String,
    title: String,
    locks: &[LockKind],
    policies: Vec<PolicySpec>,
    threads: usize,
) -> Exhibit<PolicySpec> {
    Exhibit {
        name,
        banner,
        locks: AnyLockKind::excl(locks),
        grid: policies,
        measure: Box::new(move |&policy| {
            let mut cfg = crate::base_config(threads);
            cfg.policy = Some(policy);
            (Scenario::steady(), cfg)
        }),
        unit: "ops/s",
        tables: vec![
            TableSpec {
                csv: None,
                text: true,
                build: policy_table(title),
            },
            TableSpec {
                csv: Some(name.into()),
                text: false,
                build: long_table(schema::POLICY_HEADER, no_cell_columns),
            },
        ],
        checks: vec![],
        epilogue: None,
    }
}

/// The text layout of the policy ablations (grid cells are
/// [`PolicySpec`]s, rendered in the `policy` column).
fn policy_table<C: Display>(title: String) -> GridBuilder<C> {
    Box::new(move |ms| Grid {
        title: title.clone(),
        columns: [
            "lock",
            "policy",
            "ops/sec",
            "stddev %",
            "mean batch",
            "misses/CS",
            "mean streak",
            "migr/tenure",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows: ms
            .iter()
            .map(|m| {
                let r = &m.result;
                vec![
                    Cell::text(r.kind.name()),
                    Cell::Text(m.cell.to_string()),
                    Cell::num(r.throughput, 0),
                    Cell::num(r.stddev_pct, 1),
                    Cell::num(r.mean_batch, 1),
                    Cell::num(r.misses_per_cs, 3),
                    Cell::num(r.mean_streak, 1),
                    Cell::num(r.migrations_per_tenure, 2),
                ]
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coherence_sim::CostModel;

    /// A measurement with a chosen throughput: a short modelled cell
    /// supplies the rest of the result.
    fn fake(kind: AnyLockKind, threads: usize, thr: f64) -> Measurement<usize> {
        let cfg = LBenchConfig {
            threads,
            window_ns: 10_000,
            ..Default::default()
        };
        let scenario = Scenario::steady().modelled(CostModel::t5440());
        let mut result = run_scenario(kind, &scenario, &cfg);
        result.throughput = thr;
        Measurement {
            cell: threads,
            result,
        }
    }

    #[test]
    fn metric_table_lays_out_rows_and_columns() {
        let ms = vec![
            fake(AnyLockKind::Excl(LockKind::Mcs), 1, 10.0),
            fake(AnyLockKind::Excl(LockKind::CBoMcs), 1, 20.0),
            fake(AnyLockKind::Excl(LockKind::Mcs), 4, 30.0),
            // C-BO-MCS missing at t=4: renders as a dash.
        ];
        let build = metric_table::<usize, _>("demo".into(), "threads", 1, |r| r.throughput);
        let g = build(&ms);
        assert_eq!(g.columns, vec!["threads", "MCS", "C-BO-MCS"]);
        assert_eq!(g.rows.len(), 2);
        assert_eq!(g.rows[0][1], Cell::num(10.0, 1));
        assert_eq!(g.rows[1][2], Cell::Missing);
        assert!(g.render().contains("demo"));
    }

    #[test]
    fn long_table_takes_schema_headers_verbatim() {
        let ms = vec![fake(AnyLockKind::Excl(LockKind::Mcs), 2, 5.0)];
        let build = long_table::<usize>(schema::FIG_CNA_HEADER, |m, column| {
            assert_eq!(column, "clusters", "the one declared cell column");
            Cell::Int(m.cell as u64 + 40)
        });
        let g = build(&ms);
        assert_eq!(g.columns.join(","), schema::FIG_CNA_HEADER);
        let r = &ms[0].result;
        assert_eq!(
            g.rows[0][..5],
            [
                Cell::text("MCS"),
                Cell::Int(42),
                Cell::Int(2),
                Cell::num(5.0, 0),
                Cell::Int(r.acquisitions)
            ]
        );
        assert_eq!(g.rows[0][6], Cell::num(r.misses_per_cs, 4));
        assert_eq!(g.rows[0][11], Cell::text("-"), "MCS has no policy");
    }

    #[test]
    #[should_panic(expected = "unregistered header")]
    fn long_table_refuses_a_header_the_schema_does_not_know() {
        let _ = long_table::<usize>("a,b", no_cell_columns);
    }
}
