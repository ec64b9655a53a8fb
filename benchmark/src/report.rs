//! Result records: the one-line JSON a workload run ends with, the
//! results file of a full set, and `--compare`.

use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use serde::{Deserialize, Serialize, Value};

/// `serde::Value` behind the shim's (de)serialization traits.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Json(v.clone()))
    }
}

pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

pub fn to_json(v: &Value) -> String {
    serde_json::to_string(&Json(v.clone())).expect("benchmark values are finite")
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(x: f64) -> Value {
    // A non-finite measurement would make the whole line unparsable.
    Value::Num(if x.is_finite() { x } else { 0.0 })
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `{q1, q2, q3}` of `values` (Null below two values).
pub fn quartiles_value(values: &[f64]) -> Value {
    if values.len() < 2 {
        return Value::Null;
    }
    let q = crate::stats::quartiles(values);
    obj(vec![
        ("q1", num(q[0])),
        ("q2", num(q[1])),
        ("q3", num(q[2])),
    ])
}

/// Field lookup; `Null` when absent or when `v` is not an object.
pub fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    const NULL: &Value = &Value::Null;
    v.as_object()
        .and_then(|e| e.iter().find(|(k, _)| k == name))
        .map_or(NULL, |(_, v)| v)
}

/// The metric object of one run: every name of `list`, in order.
fn metrics_value(o: &Outcome, list: &[(&'static str, &'static str)]) -> Value {
    Value::Object(
        list.iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    obj(vec![("value", num(o.get(name))), ("unit", text(unit))]),
                )
            })
            .collect(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    to_json(&obj(vec![
        ("correct", Value::Bool(o.correct())),
        ("attempted", num(o.attempted.max(1) as f64)),
        ("failed", num(o.failed as f64)),
        ("metrics", metrics_value(o, list)),
    ]))
}

/// The context line printed just above the result line.
pub fn detail_line(o: &Outcome) -> String {
    let mut entries: Vec<(String, Value)> = o.detail.clone();
    entries.push((
        "failed_checks".to_string(),
        Value::Array(o.failures.iter().map(|s| text(s)).collect()),
    ));
    format!("detail: {}", to_json(&Value::Object(entries)))
}

/// Human-readable metric table of one run.
pub fn print_metrics(o: &Outcome, traced: bool) {
    let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in list {
        println!("  {name:<48} {:>16.6} {unit}", o.get(name));
    }
}

/// `value` of metric `name` in a parsed result line.
pub fn metric_value(result: &Value, name: &str) -> Option<f64> {
    field(field(field(result, "metrics"), name), "value").as_f64()
}

/// One row of `--compare`.
#[derive(Debug, PartialEq)]
pub struct CompareRow {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / |a|`.
    pub diff: f64,
    pub bound: f64,
    pub exceeded: bool,
}

/// Compares two results files on every (workload, end-to-end metric)
/// pair, using the bounds `benchmark_json` declares.
pub fn compare(a: &Value, b: &Value, benchmark_json: &Value) -> Result<Vec<CompareRow>, String> {
    let Value::Array(specs) = field(benchmark_json, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let (Some(wa), Some(wb)) = (
        field(a, "workloads").as_object(),
        field(b, "workloads").as_object(),
    ) else {
        return Err("results file has no `workloads` object".into());
    };
    let mut rows = Vec::new();
    for (workload, ra) in wa {
        let Some((_, rb)) = wb.iter().find(|(k, _)| k == workload) else {
            return Err(format!("second file lacks workload {workload}"));
        };
        for spec in specs {
            let name = field(spec, "name").as_str().unwrap_or_default();
            let bound = field(spec, "bound").as_f64().unwrap_or(0.0);
            let get = |r: &Value| {
                metric_value(field(r, "end_to_end"), name)
                    .ok_or_else(|| format!("{workload}: metric {name} missing"))
            };
            let (va, vb) = (get(ra)?, get(rb)?);
            let diff = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            rows.push(CompareRow {
                workload: workload.clone(),
                metric: name.to_string(),
                a: va,
                b: vb,
                diff,
                bound,
                // Two runs of one commit have no "better" side: a
                // difference wider than the bound either way means the
                // pair is not repeatable to within the bound.
                exceeded: diff.abs() > bound,
            });
        }
    }
    Ok(rows)
}

pub fn print_compare(rows: &[CompareRow]) {
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "diff", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<12} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.diff * 100.0,
            r.bound * 100.0,
            if r.exceeded {
                "  <-- wider than bound"
            } else {
                ""
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(value: f64) -> Value {
        let mut o = Outcome::default();
        for (n, _) in END_TO_END {
            o.set(n, value);
        }
        let line = parse_json(&result_line(&o, false)).unwrap();
        obj(vec![(
            "workloads",
            obj(vec![("train_l1", obj(vec![("end_to_end", line)]))]),
        )])
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.8127);
        o.attempted = 12;
        let v = parse_json(&result_line(&o, false)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric_value(&v, "setup_s"), Some(0.8127));
        assert_eq!(
            field(&v, "metrics").as_object().unwrap().len(),
            END_TO_END.len()
        );
        let traced = parse_json(&result_line(&o, true)).unwrap();
        assert_eq!(
            field(&traced, "metrics").as_object().unwrap().len(),
            PER_LAYER.len()
        );
        o.failures.push("x".into());
        assert!(result_line(&o, false).starts_with("{\"correct\":false"));
    }

    #[test]
    fn compare_marks_differences_wider_than_the_bound() {
        let bench = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let rows = compare(&results(100.0), &results(100.0), &bench).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| !r.exceeded && r.diff == 0.0));
        let rows = compare(&results(100.0), &results(160.0), &bench).unwrap();
        assert!(
            rows.iter().all(|r| r.exceeded),
            "60 % is wider than any bound"
        );
        assert!(rows.iter().all(|r| (r.diff - 0.6).abs() < 1e-12));
        assert!(compare(&results(1.0), &obj(vec![]), &bench).is_err());
    }
}
