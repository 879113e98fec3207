//! `BENCHMARK.json` as the program sees it.
//!
//! The file at the repository root is the one list of workloads and
//! metrics. It is compiled in, so a metric the program emits and the
//! contract file cannot drift apart: emitting a name the file does not
//! list, or finishing a run without one it does, is an error.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract file.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by `cargo test`")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let field = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without a string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better: match field(m, "better")?.as_str() {
                            "higher" => Better::Higher,
                            "lower" => Better::Lower,
                            other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// Collects the metrics of one run, printing each as it arrives, and
/// holds the run to the contract file's list.
pub struct Emitter {
    expected: Vec<MetricSpec>,
    /// `(name, value, unit)` in emission order.
    values: Vec<(String, f64, String)>,
}

impl Emitter {
    /// `traced` selects the per-layer list, otherwise the end-to-end one.
    pub fn new(spec: &Spec, traced: bool) -> Emitter {
        Emitter {
            expected: if traced {
                spec.per_layer.clone()
            } else {
                spec.end_to_end.clone()
            },
            values: Vec::new(),
        }
    }

    /// Records `name = value` and prints it with its unit.
    ///
    /// # Panics
    ///
    /// Panics on a name `BENCHMARK.json` does not list for this kind of
    /// run, or one already emitted: both are bugs in the benchmark.
    pub fn emit(&mut self, name: &str, value: f64) {
        let unit = &self
            .expected
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in BENCHMARK.json"))
            .unit;
        assert!(
            self.values.iter().all(|(n, ..)| n != name),
            "metric `{name}` emitted twice"
        );
        println!("{name:<52} {value:>18.6} {unit}");
        self.values.push((name.to_string(), value, unit.clone()));
    }

    /// The `metrics` object of the result line. Errors name every listed
    /// metric the run did not produce, or produced as a non-number.
    pub fn finish(self) -> Result<Json, String> {
        let missing: Vec<&str> = self
            .expected
            .iter()
            .filter(|m| {
                !self
                    .values
                    .iter()
                    .any(|(n, v, _)| *n == m.name && v.is_finite())
            })
            .map(|m| m.name.as_str())
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        Ok(Json::Obj(
            self.values
                .into_iter()
                .map(|(name, value, unit)| {
                    let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit))]);
                    (name, entry)
                })
                .collect(),
        ))
    }
}
