//! `e2e --compare A.json B.json`: a verdict per workload and end-to-end
//! metric on whether run B is better or worse than run A, judged by the
//! metric's bound in `BENCHMARK.json`.

use std::collections::{BTreeMap, BTreeSet};

use alex_telemetry::json::{parse_value_str, JsonValue};

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How an end-to-end metric is judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub lower_is_better: bool,
    /// Largest relative worsening of the median that still counts as
    /// unchanged; also the largest quartile spread a verdict trusts.
    pub bound: f64,
    /// Smallest absolute change of the median that counts at all.
    pub floor: f64,
}

/// Absolute change below which no difference counts, by unit: a few
/// milliseconds of episode time or megabytes of resident set are scheduler
/// and allocator noise however large they are relative to a tiny median.
pub fn floor(unit: &str) -> f64 {
    match unit {
        "s" => 0.05,
        "MB" => 5.0,
        _ => 0.0,
    }
}

/// Judge samples `b` against baseline samples `a`.
pub fn verdict(a: &[f64], b: &[f64], rule: &Rule) -> Verdict {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    let change = sb.median - sa.median;
    if change.abs() < rule.floor {
        return Verdict::Unchanged;
    }
    let beats = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    if sa.spread() > rule.bound || sb.spread() > rule.bound {
        return if b.iter().all(|&y| a.iter().all(|&x| beats(y, x))) {
            Verdict::Better
        } else if a.iter().all(|&x| b.iter().all(|&y| beats(x, y))) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let relative = if sa.median == 0.0 {
        change.signum()
    } else {
        change / sa.median.abs()
    };
    let worsening = if rule.lower_is_better {
        relative
    } else {
        -relative
    };
    if worsening > rule.bound {
        Verdict::Worse
    } else if worsening < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Compare two `--json` results under the rules of `benchmark` (the text
/// of `BENCHMARK.json`). Returns the printed table and whether any verdict
/// is `worse`.
///
/// Besides each metric's verdict, B is `worse` when one of its workloads
/// failed more operations than in A, or lacks a workload or metric that A
/// measured; a workload or metric only B measured is `unresolved`.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<(String, bool), String> {
    let rules = rules(benchmark)?;
    let (a, b) = (workloads(a)?, workloads(b)?);
    let mut out = format!(
        "{:<12} {:<12} {:>12} {:>12} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "change"
    );
    let mut worse = false;
    let names: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for workload in names {
        let (wa, wb) = (a.get(workload), b.get(workload));
        let failed = |w: Option<&Workload>| w.map_or("-".to_string(), |w| w.failed.to_string());
        if wa.map_or(0, |w| w.failed) < wb.map_or(0, |w| w.failed) {
            worse = true;
            out.push_str(&format!(
                "{workload:<12} {:<12} {:>12} {:>12} {:>8}  worse\n",
                "failed",
                failed(wa),
                failed(wb),
                ""
            ));
        }
        for (name, unit, rule) in &rules {
            let xa = wa.and_then(|w| w.metrics.get(name));
            let xb = wb.and_then(|w| w.metrics.get(name));
            let v = match (xa, xb) {
                (Some(xa), Some(xb)) => verdict(xa, xb, rule),
                (Some(_), None) => Verdict::Worse,
                (None, _) => Verdict::Unresolved,
            };
            worse |= v == Verdict::Worse;
            let shown = |x: Option<&Vec<f64>>| {
                x.map_or("-".to_string(), |x| format!("{:.4} {unit}", median(x)))
            };
            let change = match (xa.map(|x| median(x)), xb.map(|x| median(x))) {
                (Some(ma), Some(mb)) if ma != 0.0 => format!("{:+.1}%", (mb - ma) / ma * 100.0),
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "{workload:<12} {name:<12} {:>12} {:>12} {change:>8}  {}\n",
                shown(xa),
                shown(xb),
                v.label()
            ));
        }
    }
    Ok((out, worse))
}

fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// `(name, unit, rule)` of every end-to-end metric in `BENCHMARK.json`.
fn rules(benchmark: &str) -> Result<Vec<(String, String, Rule)>, String> {
    let doc = parse_value_str(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = field(&doc, "end_to_end")?
        .as_arr()
        .ok_or("BENCHMARK.json: end_to_end is not a list")?;
    metrics
        .iter()
        .map(|m| {
            let text = |key| {
                field(m, key)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: {key} is not a string"))
            };
            let unit = text("unit")?;
            let rule = Rule {
                lower_is_better: text("better")? == "lower",
                bound: field(m, "bound")?
                    .as_f64()
                    .ok_or("BENCHMARK.json: bound is not a number")?,
                floor: floor(&unit),
            };
            Ok((text("name")?, unit, rule))
        })
        .collect()
}

/// What a `--json` result holds of one workload: its failed operations and
/// every metric's samples.
struct Workload {
    failed: u64,
    metrics: BTreeMap<String, Vec<f64>>,
}

fn workloads(result: &str) -> Result<BTreeMap<String, Workload>, String> {
    let doc = parse_value_str(result).map_err(|e| format!("result: {e}"))?;
    let workloads = field(&doc, "workloads")?
        .as_obj()
        .ok_or("result: workloads is not an object")?;
    let mut out = BTreeMap::new();
    for (name, body) in workloads {
        let failed = field(body, "failed")?
            .as_u64()
            .ok_or("result: failed is not a whole number")?;
        let mut metrics = BTreeMap::new();
        for (metric, summary) in field(body, "metrics")?.as_obj().into_iter().flatten() {
            let values = field(summary, "samples")?
                .as_arr()
                .ok_or("result: samples is not a list")?
                .iter()
                .map(|v| v.as_f64().ok_or("result: a sample is not a number"))
                .collect::<Result<Vec<f64>, _>>()?;
            metrics.insert(metric.clone(), values);
        }
        out.insert(name.clone(), Workload { failed, metrics });
    }
    Ok(out)
}

fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    value
        .as_obj()
        .and_then(|o| o.get(key))
        .ok_or_else(|| format!("missing field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIME: Rule = Rule {
        lower_is_better: true,
        bound: 0.10,
        floor: 0.05,
    };

    #[test]
    fn steady_medians_within_the_bound_are_unchanged() {
        let a = [10.0, 10.1, 10.2, 10.1, 10.0];
        let b = [10.5, 10.6, 10.4, 10.5, 10.6];
        assert_eq!(verdict(&a, &b, &TIME), Verdict::Unchanged);
    }

    #[test]
    fn a_median_past_the_bound_is_better_or_worse() {
        let a = [10.0, 10.1, 10.2, 10.1, 10.0];
        let b = [11.5, 11.6, 11.4, 11.5, 11.6];
        assert_eq!(verdict(&a, &b, &TIME), Verdict::Worse);
        assert_eq!(verdict(&b, &a, &TIME), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let b = [9.5, 12.5, 14.0, 10.5, 13.0];
        assert_eq!(verdict(&a, &b, &TIME), Verdict::Unresolved);
        let c = [20.0, 26.0, 30.0, 23.0, 28.0];
        assert_eq!(verdict(&a, &c, &TIME), Verdict::Worse);
        assert_eq!(verdict(&c, &a, &TIME), Verdict::Better);
    }

    #[test]
    fn changes_below_the_absolute_floor_never_count() {
        // A 2 ms episode total that doubles is still unchanged.
        let a = [0.002, 0.0021, 0.0019];
        let b = [0.004, 0.0042, 0.0038];
        assert_eq!(verdict(&a, &b, &TIME), Verdict::Unchanged);
        let rss = Rule {
            lower_is_better: true,
            bound: 0.10,
            floor: floor("MB"),
        };
        assert_eq!(
            verdict(&[19.0, 19.5], &[23.0, 23.5], &rss),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[19.0, 19.5], &[30.0, 30.5], &rss), Verdict::Worse);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let f = Rule {
            lower_is_better: false,
            bound: 0.02,
            floor: 0.0,
        };
        assert_eq!(verdict(&[0.95, 0.95], &[0.90, 0.90], &f), Verdict::Worse);
        assert_eq!(verdict(&[0.90, 0.90], &[0.95, 0.95], &f), Verdict::Better);
        assert_eq!(verdict(&[0.95], &[0.95], &f), Verdict::Unchanged);
    }

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}"#;

    /// A one-workload `--json` result with `failed` failures and the given
    /// `wall_s` samples (none when empty).
    fn result(failed: u64, wall: &str) -> String {
        let wall = if wall.is_empty() {
            String::new()
        } else {
            format!(r#""wall_s": {{"samples": [{wall}]}},"#)
        };
        format!(
            r#"{{"workloads": {{"batch": {{"failed": {failed}, "metrics": {{{wall}
                "peak_rss_mb": {{"samples": [450.0, 452.0, 451.0]}}}}}}}}}}"#
        )
    }

    #[test]
    fn compares_two_results_under_the_benchmark_rules() {
        let (table, worse) = compare(
            &result(0, "10.0, 10.1, 10.2"),
            &result(0, "12.0, 12.1, 12.2"),
            BENCHMARK,
        )
        .unwrap();
        assert!(worse);
        assert!(table.contains("wall_s") && table.contains("worse"));
        assert!(table.contains("peak_rss_mb") && table.contains("unchanged"));
        let (_, worse) = compare(
            &result(0, "10.0, 10.1, 10.2"),
            &result(0, "10.0, 10.1, 10.3"),
            BENCHMARK,
        )
        .unwrap();
        assert!(!worse);
    }

    #[test]
    fn more_failures_in_b_are_worse() {
        let (table, worse) = compare(
            &result(0, "10.0, 10.1, 10.2"),
            &result(1, "10.0, 10.1, 10.2"),
            BENCHMARK,
        )
        .unwrap();
        assert!(worse);
        assert!(table
            .lines()
            .any(|l| l.contains("failed") && l.ends_with("worse")));
        let (_, worse) = compare(
            &result(1, "10.0, 10.1, 10.2"),
            &result(1, "10.0, 10.1, 10.2"),
            BENCHMARK,
        )
        .unwrap();
        assert!(!worse);
    }

    #[test]
    fn a_metric_or_workload_missing_from_b_is_worse() {
        // A workload whose first sample failed reports no samples at all.
        let (table, worse) = compare(&result(0, "10.0, 10.1"), &result(1, ""), BENCHMARK).unwrap();
        assert!(worse);
        assert!(table
            .lines()
            .any(|l| l.contains("wall_s") && l.ends_with("worse")));
        let nothing = r#"{"workloads": {}}"#;
        let (_, worse) = compare(&result(0, "10.0"), nothing, BENCHMARK).unwrap();
        assert!(worse);
        // Only B measured it: nothing to judge against.
        let (table, worse) = compare(nothing, &result(0, "10.0"), BENCHMARK).unwrap();
        assert!(!worse);
        assert!(table
            .lines()
            .any(|l| l.contains("wall_s") && l.ends_with("unresolved")));
    }
}
