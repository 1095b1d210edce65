//! `fg_check` — the workspace's concurrency hygiene gate.
//!
//! * `fg_check --lint [root]` runs the static lint over every `.rs`
//!   file (default root: the enclosing workspace) and exits non-zero
//!   on any violation. CI runs this as a fail-the-build step.
//! * `fg_check --models` explores every protocol, all as shipped,
//!   unmutated and with each seeded mutation, and exits non-zero unless
//!   the unmutated ones pass and every mutation is caught. `FG_CHECK_DEPTH=n` deepens the exploration (CI's
//!   release stress step raises it); a value that is not a number
//!   exits 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fg_check::{lint, models, Config, FailureKind, Report};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--lint") => run_lint(args.get(1).map(PathBuf::from)),
        Some("--models") => run_models(),
        _ => {
            eprintln!("usage: fg_check --lint [root] | fg_check --models");
            eprintln!("  --lint    concurrency-hygiene lint over the workspace's .rs files");
            eprintln!("  --models  explore every protocol and its seeded mutations");
            eprintln!("            (FG_CHECK_DEPTH=n raises the preemption bound)");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the workspace root (the
/// outermost ancestor with a `Cargo.toml`).
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut best: Option<PathBuf> = None;
    let mut cur: Option<&Path> = Some(cwd.as_path());
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() {
            best = Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    best.unwrap_or(cwd)
}

fn run_lint(root: Option<PathBuf>) -> ExitCode {
    let root = root.unwrap_or_else(find_workspace_root);
    match lint::lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("fg_check --lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{}", v);
            }
            println!("fg_check --lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fg_check --lint: i/o error under {}: {}", root.display(), e);
            ExitCode::FAILURE
        }
    }
}

fn run_models() -> ExitCode {
    let cfg = match Config::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("fg_check --models: {}", e);
            return ExitCode::from(2);
        }
    };
    println!(
        "fg_check --models: preemption bound {}, max {} executions per exploration",
        cfg.preemption_bound, cfg.max_executions
    );
    // The table: each protocol, every one explored as the shipped code.
    macro_rules! protocol {
        ($name:ident) => {{
            use models::$name::{check, MUTATIONS};
            explore_protocol(stringify!($name), &MUTATIONS, check, &cfg)
        }};
    }
    let bad = protocol!(busy_bit)
        + protocol!(quiesce)
        + protocol!(ready_pool)
        + protocol!(rendezvous)
        + protocol!(gate)
        + protocol!(inflight_waiter)
        + {
            use models::inflight_waiter::{check_inline, INLINE_MUTATIONS};
            explore_protocol(
                "inflight_waiter_inline",
                &INLINE_MUTATIONS,
                check_inline,
                &cfg,
            )
        };
    if bad == 0 {
        println!("fg_check --models: all protocols verified, all mutations caught");
        ExitCode::SUCCESS
    } else {
        println!("fg_check --models: {} unexpected outcome(s)", bad);
        ExitCode::FAILURE
    }
}

/// Explores one protocol unmutated, then with each seeded mutation,
/// printing a row per exploration; returns how many ended unexpectedly
/// (an unmutated one must exhaust its schedule space without a
/// counterexample, a mutated one must produce one).
fn explore_protocol<M: Copy + std::fmt::Debug>(
    name: &str,
    mutations: &[M],
    check: fn(Option<M>, &Config) -> Report,
    cfg: &Config,
) -> usize {
    let mut bad = 0;
    for mutation in std::iter::once(None).chain(mutations.iter().copied().map(Some)) {
        let label = mutation.map_or(name.to_string(), |m| format!("{name}+{m:?}"));
        let report = check(mutation, cfg);
        // A fault that was never injected is no catch.
        let caught = report.failure.as_ref().map(|f| &f.kind);
        let caught = caught.filter(|k| !matches!(k, FailureKind::FaultNotReached(_)));
        let (ok, verdict) = match (mutation, caught) {
            (None, _) if report.passed() => (true, "pass (exhausted)".to_string()),
            (None, _) => (false, "FAIL (counterexample or incomplete)".to_string()),
            (Some(_), Some(kind)) => (true, format!("caught ({})", kind.name())),
            (Some(_), None) => (false, "MISSED (mutation not detected)".to_string()),
        };
        println!(
            "  {:<36} shipped  {:>7} executions  {}",
            label, report.executions, verdict
        );
        if let (false, Some(f)) = (ok, &report.failure) {
            println!("{}", f);
        }
        bad += usize::from(!ok);
    }
    bad
}
