//! Guards the committed `results/*.csv` exhibits against schema drift:
//! every committed CSV's header must match what its generating binary
//! currently emits (single source of truth: `cohort_bench::schema`).
//! A column added to a writer, a lock renamed in the registry, or a CSV
//! committed from a stale build all fail here with a regeneration hint.
//! The long-form files are also held to the column table field by field:
//! every column resolves, and every committed field has the lexical form
//! its column emits.

use coherence_sim::CostModel;
use cohort_bench::{schema, Cell};
use lbench::{run_scenario, LBenchConfig, LockKind, Scenario};
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    // crates/bench/ -> workspace root -> results/
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn committed_csv_headers_match_their_generating_binaries() {
    let dir = results_dir();
    let entries = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("results/ must exist at {}: {e}", dir.display()));
    let mut checked = 0usize;
    for entry in entries {
        let path = entry.expect("readable results/ entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name")
            .to_string();
        let expected = cohort_bench::schema::expected_header(&name).unwrap_or_else(|| {
            panic!(
                "results/{name} has no registered schema — if a binary still emits it, \
                 register the header in cohort_bench::schema::expected_header; if not, \
                 delete the orphaned CSV"
            )
        });
        let file = fs::File::open(&path).expect("readable CSV");
        let mut header = String::new();
        BufReader::new(file)
            .read_line(&mut header)
            .expect("CSV has a first line");
        assert_eq!(
            header.trim_end(),
            expected,
            "results/{name} is stale: its header no longer matches what the generating \
             binary emits — regenerate it (see docs/ARCHITECTURE.md, \
             \"Producing and regenerating results/*.csv\")"
        );
        checked += 1;
    }
    assert!(checked > 0, "no CSVs found in {}", dir.display());
}

fn all_digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

#[test]
fn long_form_columns_resolve_and_committed_fields_have_their_lexical_form() {
    // Which cell a column makes depends on its field's type alone, so any
    // result can stand in for the ones the committed rows were made from.
    let cfg = LBenchConfig {
        threads: 1,
        window_ns: 10_000,
        ..Default::default()
    };
    let scenario = Scenario::steady().modelled(CostModel::t5440());
    let sample = run_scenario(LockKind::CBoMcs.into(), &scenario, &cfg);
    let mut files = 0;
    for &(file, header, cell_columns) in schema::LONG_FORMS {
        // A typo in a header or in the table fails here, not when the
        // exhibit runs. `None`: the exhibit's own hook makes the cell.
        let columns: Vec<(&str, Option<Cell>)> = header
            .split(',')
            .map(|column| match schema::result_cell(column, &sample) {
                _ if cell_columns.contains(&column) => (column, None),
                Some(cell) => (column, Some(cell)),
                None => panic!(
                    "{file}.csv: column {column} is neither in the column table nor a \
                     declared cell column"
                ),
            })
            .collect();
        let Ok(csv) = fs::read_to_string(results_dir().join(format!("{file}.csv"))) else {
            continue; // not a committed exhibit
        };
        files += 1;
        for (n, line) in csv.lines().enumerate().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), columns.len(), "results/{file}.csv:{}", n + 1);
            for ((column, cell), field) in columns.iter().zip(fields) {
                let ok = match cell {
                    Some(Cell::Int(_)) | Some(Cell::Num { prec: 0, .. }) => all_digits(field),
                    Some(Cell::Num { prec, .. }) => field
                        .split_once('.')
                        .is_some_and(|(i, f)| all_digits(i) && all_digits(f) && f.len() == *prec),
                    // Lock names, policy labels (`-` for none), and
                    // whatever the exhibit's hook wrote (`fig_gcr`'s
                    // unit-promoted `throughput` among them).
                    _ => !field.is_empty(),
                };
                assert!(ok, "results/{file}.csv:{}: {column} = {field:?}", n + 1);
            }
        }
    }
    assert_eq!(files, 8, "committed long-form files");
}
