//! `matbench compare <a.json> <b.json>`: applies each end-to-end metric's
//! regression bound, per workload, to two `matbench run` documents (`a` the
//! parent, `b` the change).

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The recorded run-to-run spread is wider than the bound, so a move
    /// inside the bound cannot be told from noise.
    Unresolved,
    Regression,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// By what share of `a` the metric got worse in `b` (negative: better).
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A move past the bound is a regression whatever the spread; within the
/// bound, the spread decides whether "no regression" can be claimed at all.
pub fn verdict(metric: &Metric, a: f64, b: f64, spread: f64) -> Verdict {
    let worse = worsening(metric, a, b);
    if worse.is_nan() || worse > metric.bound {
        Verdict::Regression
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub worse: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One row per metric × workload present in both documents, plus a
/// `fail_ratio` row per workload (any increase is a regression).
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (label, doc) in [("first", a), ("second", b)] {
        if doc.get("comparable").and_then(Json::bool) != Some(true) {
            return Err(format!(
                "the {label} document is a smoke pass or not a matbench run; not comparable"
            ));
        }
    }
    let mut rows = Vec::new();
    for (name, wa) in a.get("workloads").map_or(&[][..], Json::fields) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        let cell = |w: &Json, metric: &str, field: &str| {
            w.get("end_to_end")
                .and_then(|e| e.get(metric))
                .and_then(|c| c.num_at(field))
                .unwrap_or(f64::NAN)
        };
        for metric in END_TO_END {
            let (va, vb) = (
                cell(wa, metric.name, "value"),
                cell(wb, metric.name, "value"),
            );
            let spread = cell(wa, metric.name, "spread").max(cell(wb, metric.name, "spread"));
            rows.push(Row {
                workload: name.clone(),
                metric: metric.name,
                a: va,
                b: vb,
                worse: worsening(metric, va, vb),
                spread,
                bound: metric.bound,
                verdict: verdict(metric, va, vb, spread),
            });
        }
        let (fa, fb) = (
            wa.num_at("fail_ratio").unwrap_or(f64::NAN),
            wb.num_at("fail_ratio").unwrap_or(f64::NAN),
        );
        rows.push(Row {
            workload: name.clone(),
            metric: "fail_ratio",
            a: fa,
            b: fb,
            worse: fb - fa,
            spread: 0.0,
            bound: 0.0,
            verdict: if fb <= fa {
                Verdict::Unchanged
            } else {
                Verdict::Regression
            },
        });
    }
    if rows.is_empty() {
        return Err("the documents share no workload".to_string());
    }
    Ok(rows)
}

pub fn compare_main(a_path: &str, b_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (path, doc) in [(a_path, &a), (b_path, &b)] {
        if doc.get("noisy").and_then(Json::bool) == Some(true) {
            println!("note: {path} was recorded on a noisy host (tcp round trip moved > 25 %)");
        }
    }
    let rows = compare(&a, &b)?;
    println!(
        "{:<18} {:<12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<18} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.word()
        );
    }
    let regressions = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows, {regressions} regressions, {unresolved} unresolved",
        rows.len()
    );
    if regressions > 0 {
        return Err(format!("{regressions} regressions"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::metrics::end_to_end as metric;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lat = metric("lat_p50_us"); // lower is better
        assert_eq!(lat.bound, 0.25);
        assert_eq!(verdict(lat, 100.0, 104.0, 0.02), Verdict::Unchanged);
        assert_eq!(verdict(lat, 100.0, 126.0, 0.02), Verdict::Regression);
        assert_eq!(verdict(lat, 100.0, 70.0, 0.02), Verdict::Improved);
        // Inside the bound but the spread is wider than the bound: not
        // "unchanged", unresolved.
        assert_eq!(verdict(lat, 100.0, 104.0, 0.3), Verdict::Unresolved);
        // Past the bound is a regression even on a noisy metric.
        assert_eq!(verdict(lat, 100.0, 140.0, 0.3), Verdict::Regression);
        let ops = metric("ops_per_s"); // higher is better
        assert_eq!(verdict(ops, 1000.0, 740.0, 0.01), Verdict::Regression);
        assert_eq!(verdict(ops, 1000.0, 1300.0, 0.01), Verdict::Improved);
        assert_eq!(verdict(ops, 1000.0, f64::NAN, 0.01), Verdict::Regression);
    }

    fn run_doc(lat: f64, spread: f64, fail_ratio: f64, comparable: bool) -> Json {
        let cell =
            |value: f64| Json::obj([("value", Json::Num(value)), ("spread", Json::Num(spread))]);
        let e2e = Json::obj(END_TO_END.iter().map(|m| {
            (
                m.name,
                cell(if m.name == "lat_p50_us" { lat } else { 50.0 }),
            )
        }));
        Json::obj([
            ("comparable", Json::Bool(comparable)),
            (
                "workloads",
                Json::obj([(
                    "warm_point",
                    Json::obj([("fail_ratio", Json::Num(fail_ratio)), ("end_to_end", e2e)]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_reports_one_row_per_metric_and_flags_failures() {
        let rows = compare(
            &run_doc(10.0, 0.01, 0.0, true),
            &run_doc(13.0, 0.01, 0.0, true),
        )
        .unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        let verdict_of =
            |rows: &[Row], metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict_of(&rows, "lat_p50_us"), Verdict::Regression);
        assert_eq!(verdict_of(&rows, "ops_per_s"), Verdict::Unchanged);
        assert_eq!(verdict_of(&rows, "fail_ratio"), Verdict::Unchanged);
        let rows = compare(
            &run_doc(10.0, 0.01, 0.0, true),
            &run_doc(10.0, 0.01, 0.001, true),
        )
        .unwrap();
        assert_eq!(verdict_of(&rows, "fail_ratio"), Verdict::Regression);
        assert!(compare(
            &run_doc(10.0, 0.01, 0.0, false),
            &run_doc(10.0, 0.01, 0.0, true)
        )
        .is_err());
    }
}
