//! Tier-1 gate for `fg_check`: every protocol model passes exhaustive
//! bounded exploration, every seeded mutation is detected with a
//! counterexample trace, and the workspace lint runs clean on this
//! repository.
//!
//! `FG_CHECK_DEPTH=n` raises the preemption bound (and scales the
//! execution budget) for deeper sweeps — CI's release stress step uses
//! it; the default bound keeps this suite fast enough for tier-1.

use fg_check::{lint, models, Config};

fn cfg() -> Config {
    Config::from_env()
}

/// Asserts an unmutated protocol explores to completion with no
/// counterexample.
fn assert_verified(name: &str, r: &fg_check::Report) {
    if let Some(f) = &r.failure {
        panic!("{}: unexpected counterexample:\n{}", name, f);
    }
    assert!(
        r.complete,
        "{}: exploration hit the execution budget before exhausting \
         the schedule space ({} executions)",
        name, r.executions
    );
}

/// Asserts a mutated protocol produces a counterexample with a
/// non-empty interleaving trace, and prints it (visible under
/// `cargo test -- --nocapture`, and in the failure output otherwise).
fn assert_caught(name: &str, r: &fg_check::Report) {
    let f = r
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("{}: seeded mutation was NOT detected", name));
    assert!(
        !f.trace.is_empty(),
        "{}: counterexample carries no interleaving trace",
        name
    );
    println!(
        "--- {} (detected after {} executions) ---\n{}",
        name, r.executions, f
    );
}

#[test]
fn busy_bit_protocol_verified() {
    assert_verified("busy_bit", &models::busy_bit::check(None, &cfg()));
}

#[test]
fn busy_bit_mutations_caught() {
    use fg_check::FailureKind;
    use models::busy_bit::{check, Mutation};
    let relaxed = check(Some(Mutation::RelaxedSync), &cfg());
    assert_caught("busy_bit+RelaxedSync", &relaxed);
    // The AcqRel → Relaxed downgrade keeps mutual exclusion (RMW
    // atomicity) but loses publication: specifically a data race.
    assert!(
        matches!(
            relaxed.failure.as_ref().unwrap().kind,
            FailureKind::DataRace(_)
        ),
        "RelaxedSync must surface as a lost publication (data race)"
    );
    let dropped = check(Some(Mutation::DroppedClear), &cfg());
    assert_caught("busy_bit+DroppedClear", &dropped);
    assert!(
        matches!(
            dropped.failure.as_ref().unwrap().kind,
            FailureKind::Livelock
        ),
        "DroppedClear must surface as the other claimant spinning"
    );
}

#[test]
fn quiesce_protocol_verified() {
    assert_verified("quiesce", &models::quiesce::check(None, &cfg()));
}

#[test]
fn quiesce_mutations_caught() {
    use models::quiesce::{check, Mutation};
    // The transient-zero window: quiesce observed with work queued.
    assert_caught(
        "quiesce+NoOuterObligation",
        &check(Some(Mutation::NoOuterObligation), &cfg()),
    );
    // The decrement downgrade the engine's `// ordering:` comments
    // cite this model as the referee for.
    assert_caught(
        "quiesce+RelaxedPublish",
        &check(Some(Mutation::RelaxedPublish), &cfg()),
    );
}

#[test]
fn ready_pool_protocol_verified() {
    assert_verified("ready_pool", &models::ready_pool::check(None, &cfg()));
}

#[test]
fn ready_pool_mutations_caught() {
    use models::ready_pool::{check, Mutation};
    assert_caught(
        "ready_pool+DropOnConflict",
        &check(Some(Mutation::DropOnConflict), &cfg()),
    );
    assert_caught(
        "ready_pool+StealWithoutLock",
        &check(Some(Mutation::StealWithoutLock), &cfg()),
    );
}

#[test]
fn sem_flush_protocol_verified() {
    assert_verified("sem_flush", &models::sem_flush::check(None, &cfg()));
}

#[test]
fn sem_flush_livelock_mutation_caught() {
    use fg_check::FailureKind;
    use models::sem_flush::{check, Mutation};
    // The PR 6 bug: flushing only on the batch-size trigger leaves a
    // sub-batch tail stranded and the waiter spinning.
    let r = check(Some(Mutation::SizeTriggerOnly), &cfg());
    assert_caught("sem_flush+SizeTriggerOnly", &r);
    assert!(
        matches!(r.failure.as_ref().unwrap().kind, FailureKind::Livelock),
        "the stranded tail must surface as a livelock"
    );
}

#[test]
fn rendezvous_protocol_verified() {
    assert_verified("rendezvous", &models::rendezvous::check(None, &cfg()));
}

#[test]
fn rendezvous_mutations_caught() {
    use models::rendezvous::{check, Mutation};
    assert_caught(
        "rendezvous+ArrivedPredicate",
        &check(Some(Mutation::ArrivedPredicate), &cfg()),
    );
    assert_caught(
        "rendezvous+PoisonNoNotify",
        &check(Some(Mutation::PoisonNoNotify), &cfg()),
    );
}

#[test]
fn inflight_waiter_protocol_verified() {
    assert_verified(
        "inflight_waiter",
        &models::inflight_waiter::check(None, &cfg()),
    );
}

#[test]
fn inflight_waiter_mutations_caught() {
    use fg_check::FailureKind;
    use models::inflight_waiter::{check, Mutation};
    // Resolve without notify: the attached waiter sleeps forever.
    let dropped = check(Some(Mutation::DroppedNotify), &cfg());
    assert_caught("inflight_waiter+DroppedNotify", &dropped);
    assert!(
        matches!(
            dropped.failure.as_ref().unwrap().kind,
            FailureKind::Deadlock(_)
        ),
        "a dropped waiter notify must surface as a deadlock"
    );
    // A Relaxed mailbox publish no longer carries the page bytes to
    // the fetcher: a data race on the page buffer.
    let relaxed = check(Some(Mutation::RelaxedPublish), &cfg());
    assert_caught("inflight_waiter+RelaxedPublish", &relaxed);
    assert!(
        matches!(
            relaxed.failure.as_ref().unwrap().kind,
            FailureKind::DataRace(_)
        ),
        "a Relaxed completion publish must surface as a data race"
    );
    // A claiming session that exits with its run still buffered: the
    // claims are never served and the attached waiter never wakes.
    let unkicked = check(Some(Mutation::DropWithoutKick), &cfg());
    assert_caught("inflight_waiter+DropWithoutKick", &unkicked);
    assert!(
        matches!(
            unkicked.failure.as_ref().unwrap().kind,
            FailureKind::Deadlock(_)
        ),
        "an undispatched claim must surface as a deadlock"
    );
}

#[test]
fn lint_clean_on_this_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = lint::lint_workspace(root).expect("walk workspace sources");
    assert!(
        violations.is_empty(),
        "fg_check --lint found violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lint_rejects_seeded_violations() {
    let bad = r#"
use std::sync::atomic::AtomicU64;
fn f(x: &AtomicU64) {
    let v = unsafe { *(x as *const AtomicU64 as *const u64) };
    x.store(v, Ordering::Relaxed);
}
"#;
    let violations = lint::lint_source("crates/demo/src/lib.rs", bad);
    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    assert!(
        rules.contains(&"raw-atomic"),
        "missing raw-atomic: {:?}",
        rules
    );
    assert!(
        rules.contains(&"unsafe-safety"),
        "missing unsafe-safety: {:?}",
        rules
    );
    assert!(
        rules.contains(&"ordering-justify"),
        "missing ordering-justify: {:?}",
        rules
    );
}

#[test]
fn depth_knob_scales_the_bounds() {
    // `Config::from_env` honours FG_CHECK_DEPTH; verify the scaling
    // logic directly rather than mutating the test process's
    // environment.
    let base = Config::default();
    let deep = base.clone().with_depth(4);
    assert!(deep.preemption_bound > base.preemption_bound);
    assert!(deep.max_executions > base.max_executions);
}
