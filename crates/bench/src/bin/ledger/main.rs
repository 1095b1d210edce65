//! The ledger: five workloads, thirteen end-to-end metrics, per-layer
//! probes — the benchmark `BENCHMARK.json` names. See `README.md` in
//! this directory for the workloads, the metric glossary, how the
//! layers are expected to move the end-to-end numbers, and the
//! measured spread behind every bound.
//!
//! ```text
//! ledger --seed 12 [--workload NAME] [--seconds S] [--trace [0|1]]
//!        [--out FILE] [--trace-out FILE] [--quick]
//! ledger --compare A.json B.json
//! ```
//!
//! * no `--trace`, or `--trace 0`: one untraced run per workload; the
//!   end-to-end metrics.
//! * `--trace 1`: one traced run per workload; the per-layer metrics
//!   (what the benchmark driver asks for).
//! * bare `--trace`: both — end-to-end metrics from the untraced run,
//!   per-layer metrics from the traced one.
//!
//! With `--workload`, the last line of standard output is the driver's
//! result object.

mod adapter;
mod batch;
mod compare;
mod json;
mod probes;
mod serving;
mod stats;
mod trace;
mod util;
mod workload;

use std::process::ExitCode;

use json::Value;
use stats::{Metric, END_TO_END};
use workload::{Ctx, Outcome};

/// Default length of a workload's measured part; `BENCHMARK.json`'s
/// `run_seconds` is the same number.
const RUN_SECONDS: f64 = 16.0;

struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&Ctx) -> adapter::Res<Outcome>,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: batch::BFS_BC_SPARSE.name,
        why: "Sparse frontiers: the selective I/O path (enqueue/sort/merge, cache lookup, \
              I/O-thread hop) does most of the work, callbacks little.",
        run: |ctx| batch::run(&batch::BFS_BC_SPARSE, ctx),
    },
    Workload {
        name: batch::PR_WCC_DENSE.name,
        why: "Every vertex active every iteration: callbacks, message boards and large merged \
              sequential reads dominate; per-request overhead is amortised.",
        run: |ctx| batch::run(&batch::PR_WCC_DENSE, ctx),
    },
    Workload {
        name: batch::TC_NEIGHBOR.name,
        why: "Neighbour-list fetches with no locality: device traffic many times the image, \
              PageVertex decode/contains and cache churn dominate.",
        run: |ctx| batch::run(&batch::TC_NEIGHBOR, ctx),
    },
    Workload {
        name: serving::SERVE_CLOSED,
        why: "Read-only multi-tenant serving, closed loop: admission gate, per-query engine \
              construction, shard bus + rendezvous and in-flight dedup, exercised nowhere else.",
        run: serving::run_serve_closed,
    },
    Workload {
        name: serving::INGEST_LIVE,
        why: "Writes beside reads through one mount: canonicalisation reads, overlay + varint \
              decode, compaction and generation flips under live queries.",
        run: serving::run_ingest_live,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    /// Untraced run only.
    Off,
    /// Traced run only (`--trace 1`).
    Only,
    /// Untraced run, then a traced repeat (bare `--trace`).
    Both,
}

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: TraceMode,
    out: Option<String>,
    trace_out: Option<String>,
    quick: bool,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: ledger [--seed N] [--workload NAME] [--seconds S] [--trace [0|1]] \
                     [--out FILE] [--trace-out FILE] [--quick]\n       ledger --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 12,
        workload: None,
        seconds: None,
        trace: TraceMode::Off,
        out: None,
        trace_out: None,
        quick: false,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s}: expected 0 < S <= 600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.next_if(|v| *v == "0" || *v == "1").map(String::as_str) {
                    Some("0") => TraceMode::Off,
                    Some(_) => TraceMode::Only,
                    None => TraceMode::Both,
                };
            }
            "--out" => args.out = Some(value("a file")?),
            "--trace-out" => args.trace_out = Some(value("a file")?),
            "--quick" => args.quick = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn metric_json(m: &Metric) -> Value {
    Value::obj(vec![
        ("name", Value::str(&m.name)),
        ("unit", Value::str(&m.unit)),
        ("value", Value::Num(m.value)),
        ("n", Value::Num(m.n as f64)),
        ("q1", Value::Num(m.q1)),
        ("q3", Value::Num(m.q3)),
    ])
}

/// One workload's entry in the ledger file: end-to-end metrics from
/// the untraced run when there is one, per-layer metrics from the
/// traced run when there is one.
struct Report {
    workload: &'static Workload,
    untraced: Option<Outcome>,
    traced: Option<Outcome>,
}

impl Report {
    fn end_to_end(&self) -> &[Metric] {
        let run = self.untraced.as_ref().or(self.traced.as_ref());
        run.map_or(&[], |o| &o.end_to_end)
    }

    fn per_layer(&self) -> &[Metric] {
        self.traced.as_ref().map_or(&[], |o| &o.per_layer)
    }

    fn attempted(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|o| o.attempted)
            .sum()
    }

    fn failed(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|o| o.failed)
            .sum()
    }

    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("name", Value::str(self.workload.name)),
            ("why", Value::str(self.workload.why)),
            ("attempted", Value::Num(self.attempted() as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            (
                "end_to_end",
                Value::Arr(self.end_to_end().iter().map(metric_json).collect()),
            ),
            (
                "per_layer",
                Value::Arr(self.per_layer().iter().map(metric_json).collect()),
            ),
        ])
    }

    /// The driver's result object: every `end_to_end` metric of
    /// `BENCHMARK.json` for an untraced run, every `per_layer` metric
    /// (the ten end-to-end metrics the driver does not gate lead that
    /// list) for a traced one.
    fn driver_line(&self, trace: TraceMode) -> Value {
        let e2e = self.end_to_end();
        let metrics: Vec<&Metric> = if trace == TraceMode::Off {
            e2e[..END_TO_END.len()].iter().collect()
        } else {
            e2e[END_TO_END.len()..]
                .iter()
                .chain(self.per_layer())
                .collect()
        };
        Value::obj(vec![
            ("correct", Value::Bool(self.failed() == 0)),
            ("attempted", Value::Num(self.attempted().max(1) as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            (
                "metrics",
                Value::Obj(
                    metrics
                        .into_iter()
                        .map(|m| {
                            let body = Value::obj(vec![
                                ("value", Value::Num(m.value)),
                                ("unit", Value::str(&m.unit)),
                            ]);
                            (m.name.clone(), body)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn print(&self) {
        println!(
            "\n== {} — attempted {}, failed {}",
            self.workload.name,
            self.attempted(),
            self.failed()
        );
        for o in self.untraced.iter().chain(&self.traced) {
            for f in &o.failures {
                println!("   FAILED {f}");
            }
        }
        println!(
            "   {:<34} {:>16} {:<6} {:>6} {:>16} {:>16}",
            "metric", "value", "unit", "n", "q1", "q3"
        );
        for m in self.end_to_end().iter().chain(self.per_layer()) {
            println!(
                "   {:<34} {:>16.6} {:<6} {:>6} {:>16.6} {:>16.6}",
                m.name, m.value, m.unit, m.n, m.q1, m.q3
            );
        }
    }
}

/// The untraced context of this invocation; a traced run flips `trace`.
fn base_ctx(args: &Args) -> Ctx {
    let nproc = util::nproc();
    Ctx {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 0.5 } else { RUN_SECONDS }),
        quick: args.quick,
        trace: false,
        workers: nproc.min(4),
        nproc,
        inject_wrong_answer: false,
    }
}

fn run_reports(args: &Args, base: &Ctx) -> Result<Vec<Report>, String> {
    println!(
        "ledger: seed {}, {} s per workload, nproc {}, workers {}{}",
        base.seed,
        base.seconds,
        base.nproc,
        base.workers,
        if base.quick {
            ", QUICK (numbers not for the record)"
        } else {
            ""
        }
    );
    let mut reports = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
    {
        let run = |trace| {
            (w.run)(&Ctx {
                trace,
                ..base.clone()
            })
            .map_err(|e| format!("{}: {e}", w.name))
        };
        let report = Report {
            workload: w,
            untraced: (args.trace != TraceMode::Only)
                .then(|| run(false))
                .transpose()?,
            traced: (args.trace != TraceMode::Off)
                .then(|| run(true))
                .transpose()?,
        };
        report.print();
        reports.push(report);
    }
    Ok(reports)
}

/// The ledger file: `--out` appends this run to the file's `runs`, so
/// one file can hold the set of runs `--compare` takes medians over.
fn write_out(path: &str, ctx: &Ctx, reports: &[Report]) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("runs").and_then(Value::as_arr).map(<[_]>::to_vec))
            .ok_or_else(|| format!("{path} exists and is not a ledger file"))?,
        Err(_) => Vec::new(),
    };
    runs.push(Value::obj(vec![
        ("seed", Value::Num(ctx.seed as f64)),
        ("quick", Value::Bool(ctx.quick)),
        ("seconds", Value::Num(ctx.seconds)),
        ("nproc", Value::Num(ctx.nproc as f64)),
        ("workers", Value::Num(ctx.workers as f64)),
        (
            "workloads",
            Value::Arr(reports.iter().map(Report::to_json).collect()),
        ),
    ]));
    let doc = Value::obj(vec![
        ("schema", Value::str("fg-ledger/1")),
        ("runs", Value::Arr(runs)),
    ]);
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        let clean = compare::run(a, b)?;
        return Ok(if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        });
    }
    let ctx = base_ctx(&args);
    let reports = run_reports(&args, &ctx)?;
    if let Some(path) = &args.out {
        write_out(path, &ctx, &reports)?;
    }
    if let Some(path) = &args.trace_out {
        let spans: Vec<trace::Span> = reports
            .iter()
            .filter_map(|r| r.traced.as_ref())
            .flat_map(|o| o.spans.iter().cloned())
            .collect();
        std::fs::write(path, trace::to_json(&spans).render_pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let (Some(_), [report]) = (&args.workload, reports.as_slice()) {
        println!("{}", report.driver_line(args.trace).render());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::{END_TO_END_UNGATED, PER_LAYER};

    fn quick(trace: bool) -> Ctx {
        let nproc = util::nproc();
        Ctx {
            seed: 12,
            seconds: 1.0,
            quick: true,
            trace,
            workers: nproc.min(4),
            nproc,
            inject_wrong_answer: false,
        }
    }

    /// `--quick`: every workload, every probe and the JSON schema, at
    /// scale 10. The numbers are never recorded; what is checked is
    /// that every catalogued metric comes out, nothing fails, and the
    /// result survives a write → read round trip.
    #[test]
    fn quick_mode_runs_every_workload_probe_and_the_schema() {
        for w in &WORKLOADS {
            let traced = (w.run)(&quick(true)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(traced.failed, 0, "{}: {:?}", w.name, traced.failures);
            assert!(traced.attempted > 0);
            assert!(!traced.spans.is_empty());
            let report = Report {
                workload: w,
                untraced: None,
                traced: Some(traced),
            };

            let e2e = report.end_to_end();
            assert_eq!(e2e.len(), END_TO_END.len() + END_TO_END_UNGATED.len());
            // The last four exist on some workloads only, or are zero.
            let everywhere = END_TO_END.iter().chain(&END_TO_END_UNGATED[..6]);
            for (m, spec) in e2e.iter().zip(everywhere) {
                assert_eq!(m.name, spec.name);
                assert!(
                    m.value.is_finite() && m.value > 0.0 && m.n > 0,
                    "{} {} = {} (n {})",
                    w.name,
                    m.name,
                    m.value,
                    m.n
                );
            }
            let layers = report.per_layer();
            assert_eq!(layers.len(), PER_LAYER.len());
            for (m, spec) in layers.iter().zip(PER_LAYER) {
                assert_eq!(m.name, spec.name);
                assert!(m.value.is_finite(), "{} {}", w.name, m.name);
            }
            // Every probe reports a cost and its samples.
            for probe in [
                "ssdsim.read_ns_per_page",
                "safs.cache_get_ns",
                "safs.cache_insert_ns",
                "safs.hop_us",
                "safs.hop_batch_us_per_req",
                "format.locate_ns",
                "format.decode_ns_per_edge",
                "merge.ns_per_req",
                "engine.run_floor_us",
                "serve.admit_us",
                "delta.apply_ns_per_op",
                "delta.merged_list_ns_per_edge",
                "shard.one_shard_ratio",
            ] {
                let m = layers.iter().find(|m| m.name == probe).unwrap();
                assert!(
                    m.value > 0.0 && m.n >= 2,
                    "{} {probe} = {}",
                    w.name,
                    m.value
                );
            }

            // Write -> read round trip of the full result.
            let doc = report.to_json();
            assert_eq!(json::parse(&doc.render_pretty()).unwrap(), doc);

            // The driver's two result lines.
            for (mode, want) in [
                (TraceMode::Off, END_TO_END.len()),
                (TraceMode::Only, END_TO_END_UNGATED.len() + PER_LAYER.len()),
            ] {
                let line = json::parse(&report.driver_line(mode).render()).unwrap();
                let Value::Obj(fields) = &line else {
                    panic!("not an object")
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
                let Some(Value::Obj(metrics)) = line.get("metrics") else {
                    panic!("no metrics")
                };
                assert_eq!(metrics.len(), want);
            }
        }
    }

    #[test]
    fn an_injected_wrong_answer_fails_every_workload() {
        for w in &WORKLOADS {
            let ctx = Ctx {
                inject_wrong_answer: true,
                ..quick(false)
            };
            let out = (w.run)(&ctx).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(out.failed, 1, "{}: {:?}", w.name, out.failures);
            let share = out
                .end_to_end
                .iter()
                .find(|m| m.name == "failed_share")
                .unwrap();
            assert!(share.value > 0.0);
            assert!(out.per_layer.is_empty() && out.spans.is_empty());
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_and_the_issue_pass_them() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload tc_neighbor --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (7, Some(10.0), TraceMode::Only)
        );
        assert_eq!(a.workload.as_deref(), Some("tc_neighbor"));
        assert_eq!(parse("--trace 0").unwrap().trace, TraceMode::Off);
        assert_eq!(
            parse("--trace --out f.json").unwrap().trace,
            TraceMode::Both
        );
        assert_eq!(parse("--seed 12 --trace").unwrap().trace, TraceMode::Both);
        assert!(parse("--compare a.json b.json").unwrap().compare.is_some());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
        assert!(parse("--seed").is_err());
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// the catalogue and the workload list.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = END_TO_END_UNGATED
            .iter()
            .chain(PER_LAYER)
            .map(|s| s.name)
            .collect();
        assert_eq!(names("per_layer"), layers);
        for (m, spec) in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit));
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(spec.better.as_str())
            );
            assert_eq!(m.get("bound").and_then(Value::as_f64), spec.bound);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
