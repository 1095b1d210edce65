//! `ledger --compare A.json B.json`: per-workload deltas for every
//! end-to-end metric, a strict diff of the exact engine counters on the
//! batch workloads, and a verdict per metric.
//!
//! Each file holds one or more runs (`--out` appends). A side's value
//! is the median over its runs; its quartile range is taken over the
//! runs when there are several, and is the within-run range otherwise.
//!
//! Verdicts, for a metric with bound `b` (a share of A's median):
//! * `unresolved` — the two quartile ranges overlap by more than `b`:
//!   the noise is wider than the bound, so neither "regressed" nor
//!   "unchanged" can be claimed;
//! * `REGRESSION` — otherwise, B's median is worse than A's by more
//!   than `b` (the process then exits non-zero);
//! * `ok` — otherwise.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{median, quartiles, Better, Spec, END_TO_END, END_TO_END_UNGATED, PER_LAYER};

/// The workloads whose engine counters are deterministic: one query
/// stream, no concurrent tenants, no writer.
const EXACT_WORKLOADS: &[&str] = &["bfs_bc_sparse", "pr_wcc_dense", "tc_neighbor"];

#[derive(Debug, Clone, Copy, PartialEq)]
struct Obs {
    value: f64,
    n: f64,
    q1: f64,
    q3: f64,
}

/// `workload -> metric -> one observation per run`.
type Side = BTreeMap<String, BTreeMap<String, Vec<Obs>>>;

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    side_of(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .ok_or_else(|| format!("{path}: not a ledger file"))
}

fn side_of(doc: &Value) -> Option<Side> {
    let mut side = Side::new();
    for run in doc.get("runs")?.as_arr()? {
        for w in run.get("workloads")?.as_arr()? {
            let metrics = side
                .entry(w.get("name")?.as_str()?.to_string())
                .or_default();
            for list in ["end_to_end", "per_layer"] {
                for m in w.get(list)?.as_arr()? {
                    let num = |k| m.get(k).and_then(Value::as_f64);
                    metrics
                        .entry(m.get("name")?.as_str()?.to_string())
                        .or_default()
                        .push(Obs {
                            value: num("value")?,
                            n: num("n")?,
                            q1: num("q1")?,
                            q3: num("q3")?,
                        });
                }
            }
        }
    }
    Some(side)
}

/// Median and quartile range of one side's observations of a metric;
/// `None` when the workload never measured it.
fn summarize(obs: &[Obs]) -> Option<(f64, f64, f64)> {
    let measured: Vec<&Obs> = obs.iter().filter(|o| o.n > 0.0).collect();
    match measured.as_slice() {
        [] => None,
        [one] => Some((one.value, one.q1, one.q3)),
        many => {
            let values: Vec<f64> = many.iter().map(|o| o.value).collect();
            let (q1, q3) = quartiles(&values);
            Some((median(&values), q1, q3))
        }
    }
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// `(share by which B is worse than A, verdict)`.
fn judge(spec: &Spec, a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, Verdict) {
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    let toward_worse = match spec.better {
        Better::Lower => b.0 - a.0,
        Better::Higher => a.0 - b.0,
    };
    let worse = if a.0 != 0.0 {
        toward_worse / a.0.abs()
    } else if toward_worse > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let overlap = (a.2.min(b.2) - a.1.max(b.1)).max(0.0);
    let verdict = if a.0 != 0.0 && overlap / a.0.abs() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints the comparison; `Ok(true)` when nothing regressed and no
/// exact counter differs.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            println!("{workload}: only in {path_a}");
            continue;
        };
        println!("{workload}");
        for spec in END_TO_END.iter().chain(END_TO_END_UNGATED) {
            let side = |m: &BTreeMap<String, Vec<Obs>>| m.get(spec.name).and_then(|o| summarize(o));
            let (Some(sa), Some(sb)) = (side(metrics_a), side(metrics_b)) else {
                continue;
            };
            let (worse, verdict) = judge(spec, sa, sb);
            clean &= verdict != Verdict::Regression;
            println!(
                "  {:<18} {:>14.6} -> {:>14.6} {:<5} {:>+8.2}% worse (bound {:.0}%, {} is better)  {}",
                spec.name,
                sa.0,
                sb.0,
                spec.unit,
                worse * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                spec.better.as_str(),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        if !EXACT_WORKLOADS.contains(&workload.as_str()) {
            continue;
        }
        for spec in PER_LAYER.iter().filter(|s| s.exact) {
            let values = |m: &BTreeMap<String, Vec<Obs>>| -> Vec<f64> {
                m.get(spec.name)
                    .map(|obs| obs.iter().filter(|o| o.n > 0.0).map(|o| o.value).collect())
                    .unwrap_or_default()
            };
            let (va, vb) = (values(metrics_a), values(metrics_b));
            let (Some(&first), false) = (va.first(), vb.is_empty()) else {
                continue;
            };
            let same = va.iter().chain(&vb).all(|&v| v == first);
            clean &= same;
            println!(
                "  {:<28} {:>14} {}",
                spec.name,
                first,
                if same {
                    "identical".to_string()
                } else {
                    format!("MISMATCH: {va:?} vs {vb:?}")
                }
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload}: only in {path_b}");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::spec;

    #[test]
    fn verdicts_follow_the_bound_and_the_overlap() {
        let wall = spec("wall_s").unwrap(); // lower is better
        let bound = wall.bound.unwrap();
        // Tight ranges, B slower than the bound allows.
        let (worse, v) = judge(wall, (1.0, 0.99, 1.01), (1.0 + 2.0 * bound, 1.29, 1.31));
        assert!((worse - 2.0 * bound).abs() < 1e-9);
        assert_eq!(v, Verdict::Regression);
        // Tight ranges, B within the bound.
        assert_eq!(
            judge(wall, (1.0, 0.99, 1.01), (1.02, 1.01, 1.03)).1,
            Verdict::Ok
        );
        // B faster: never a regression.
        assert_eq!(
            judge(wall, (1.0, 0.99, 1.01), (0.5, 0.49, 0.51)).1,
            Verdict::Ok
        );
        // Ranges that overlap by more than the bound: noise wins.
        assert_eq!(
            judge(wall, (1.0, 0.6, 1.4), (1.0 + 2.0 * bound, 0.8, 1.8)).1,
            Verdict::Unresolved
        );
        // Higher-is-better metrics flip the direction.
        let rel = spec("rel_mem").unwrap();
        assert_eq!(
            judge(rel, (0.5, 0.49, 0.51), (0.2, 0.19, 0.21)).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(rel, (0.5, 0.49, 0.51), (0.9, 0.89, 0.91)).1,
            Verdict::Ok
        );
        // A zero bound on a zero baseline: any failure regresses.
        let failed = spec("failed_share").unwrap();
        assert_eq!(
            judge(failed, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(failed, (0.0, 0.0, 0.0), (0.01, 0.01, 0.01)).1,
            Verdict::Regression
        );
    }

    #[test]
    fn several_runs_summarize_to_their_median_and_quartiles() {
        let o = |value| Obs {
            value,
            n: 5.0,
            q1: value - 0.5,
            q3: value + 0.5,
        };
        assert_eq!(summarize(&[o(3.0)]), Some((3.0, 2.5, 3.5)));
        assert_eq!(summarize(&[o(1.0), o(2.0), o(3.0)]), Some((2.0, 1.0, 3.0)));
        let unmeasured = Obs {
            value: 0.0,
            n: 0.0,
            q1: 0.0,
            q3: 0.0,
        };
        assert_eq!(summarize(&[unmeasured]), None);
    }
}
