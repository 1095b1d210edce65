//! Tier-1 gate for `fg_check`: every protocol — all six explored as
//! the shipped code, with the quiesce harness's swept-run cell and the
//! in-flight harness's inline cell — passes exhaustive bounded
//! exploration, every seeded mutation is detected with a
//! counterexample trace, and the workspace lint runs clean on this
//! repository.
//!
//! `FG_CHECK_DEPTH=n` raises the preemption bound (and scales the
//! execution budget) for deeper sweeps — CI's release stress step uses
//! it; the default bound keeps this suite fast enough for tier-1.

use fg_check::models::shipped_bitmap::AtomicBitmap;
use fg_check::{explore, lint, models, Config, FailureKind, Fault};
use fg_types::VertexId;

fn cfg() -> Config {
    Config::from_env().unwrap_or_else(|e| panic!("{e}"))
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

/// Asserts each mutation of a protocol produces a counterexample of
/// the expected kind ([`FailureKind::name`]; a fault that was never
/// injected is none of them) with a non-empty interleaving trace, and
/// prints it (visible under `cargo test -- --nocapture`, and in the
/// failure output otherwise).
fn assert_caught<M: Copy + std::fmt::Debug>(
    protocol: &str,
    check: fn(Option<M>, &Config) -> fg_check::Report,
    expected: &[(M, &str)],
) {
    for &(mutation, kind) in expected {
        let name = format!("{protocol}+{mutation:?}");
        let r = check(Some(mutation), &cfg());
        let f = r
            .failure
            .as_ref()
            .unwrap_or_else(|| panic!("{}: seeded mutation was NOT detected", name));
        assert_eq!(
            f.kind.name(),
            kind,
            "{}: wrong kind of failure\n{}",
            name,
            f
        );
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
}

#[test]
fn busy_bit_protocol_verified() {
    assert_verified("busy_bit", &models::busy_bit::check(None, &cfg()));
}

#[test]
fn busy_bit_mutations_caught() {
    use models::busy_bit::{check, Mutation};
    // The AcqRel → Relaxed downgrade keeps mutual exclusion (RMW
    // atomicity) but loses publication: specifically a data race. An
    // owner that never clears leaves the other claimant spinning.
    let expected = [
        (Mutation::RelaxedSync, "data race"),
        (Mutation::DroppedClear, "livelock"),
    ];
    assert_caught("busy_bit", check, &expected);
}

#[test]
fn quiesce_protocol_verified() {
    assert_verified("quiesce", &models::quiesce::check(None, &cfg()));
}

#[test]
fn quiesce_mutations_caught() {
    use models::quiesce::{check, Mutation};
    // The transient-zero window: quiesce observed with work queued.
    // And the decrement downgrade `pool.rs`' `// ordering:` comments
    // cite this harness as the referee for, injected into `release`
    // itself: delivered state read without a happens-before edge.
    // And the round form of the first: one `release(n)` that does not
    // wait for the round's last delivery, whose state is then written
    // behind the release that should have published it. And a release that counts
    // entries where the accepts counted deliveries: an obligation
    // left open for good, the workers polling a quiesce that never
    // comes.
    let expected = [
        (Mutation::NoOuterObligation, "assertion"),
        (Mutation::RelaxedPublish, "data race"),
        (Mutation::EarlyBatchRelease, "data race"),
        (Mutation::ReleasePerEntry, "livelock"),
    ];
    assert_caught("quiesce", check, &expected);
}

#[test]
fn quiesce_sweep_cell_verified() {
    assert_verified("quiesce_sweep", &models::quiesce::check_sweep(None, &cfg()));
}

#[test]
fn quiesce_sweep_cell_mutations_caught() {
    use models::quiesce::{check_sweep, Mutation, SWEEP_MUTATIONS};
    // A swept run's entry pushed before its obligations are accepted:
    // a thief delivers it, and releases, against nothing open.
    let expected = [(Mutation::LateSweepAccept, "assertion")];
    assert_eq!(expected.map(|(m, _)| m), SWEEP_MUTATIONS);
    assert_caught("quiesce_sweep", check_sweep, &expected);
}

#[test]
fn ready_pool_protocol_verified() {
    assert_verified("ready_pool", &models::ready_pool::check(None, &cfg()));
}

#[test]
fn ready_pool_mutations_caught() {
    use models::ready_pool::{check, Mutation};
    // A lost delivery is a pool that never quiesces; a lock granted
    // without acquiring, at `pop`'s steal, races the deque's owner.
    let expected = [
        (Mutation::DropOnConflict, "livelock"),
        (Mutation::StealWithoutLock, "data race"),
    ];
    assert_caught("ready_pool", check, &expected);
}

#[test]
fn rendezvous_protocol_verified() {
    assert_verified("rendezvous", &models::rendezvous::check(None, &cfg()));
}

#[test]
fn rendezvous_mutations_caught() {
    use models::rendezvous::{check, Mutation};
    // A dropped `notify_all`, at each of `rendezvous.rs`' two
    // broadcasts: the waiter it was for never wakes.
    let expected = [
        (Mutation::ReleaseNoNotify, "deadlock"),
        (Mutation::PoisonNoNotify, "deadlock"),
    ];
    assert_caught("rendezvous", check, &expected);
}

#[test]
fn rendezvous_check_reader_unwinds_on_poison() {
    // The `Relaxed` reader no transcription had: a party polling
    // `Rendezvous::check` away from the barrier while a peer poisons
    // unwinds in every interleaving — it never spins into the step
    // bound.
    assert_verified(
        "rendezvous check reader",
        &models::rendezvous::check_reader(&cfg()),
    );
}

#[test]
fn gate_protocol_verified() {
    assert_verified("gate", &models::gate::check(None, &cfg()));
}

#[test]
fn gate_mutations_caught() {
    use models::gate::{check, Mutation};
    // A dropped `notify_all`, at each of `gate.rs`' two broadcasts: a
    // waiter without a token waits untimed, and sleeps on beside the
    // slot a dropped permit — or a waiter whose token fired at its
    // grant — left free.
    let expected = [
        (Mutation::PermitDropNoNotify, "deadlock"),
        (Mutation::AbandonNoNotify, "deadlock"),
    ];
    assert_caught("gate", check, &expected);
}

#[test]
fn a_fault_that_is_never_injected_is_reported() {
    // A scenario that claims the bit and never clears it.
    let claim_only = |fault| {
        explore(&cfg(), &[fault], || {
            AtomicBitmap::new(1).set_sync(VertexId(0));
        })
    };
    for (fault, why) in [
        (Fault("bitmap.rs", "fetch_and", 1), "clear_sync never runs"),
        (Fault("bitmap.rs", "fetch_or", 9), "no tenth fetch_or"),
        (Fault("worker.rs", "fetch_or", 0), "not a mounted file"),
    ] {
        let kind = claim_only(fault).failure.map(|f| f.kind);
        assert!(
            matches!(kind, Some(FailureKind::FaultNotReached(_))),
            "{fault:?} ({why}) must fail the exploration, got {kind:?}"
        );
    }
    // With a fault it does reach, the same scenario passes: one
    // thread, nobody to lose a publication to.
    assert_verified("claim only", &claim_only(Fault("bitmap.rs", "fetch_or", 1)));
}

#[test]
fn a_double_outside_explore_is_a_plain_value() {
    // What lets a mounted file's own unit tests run in `fg_check`'s
    // test build: real threads, real blocking, no scheduler.
    use fg_check::sync::{AtomicU64, Condvar, Mutex, Ordering};
    let shared = std::sync::Arc::new((Mutex::new(0u32), Condvar::new(), AtomicU64::new(0)));
    std::thread::scope(|s| {
        for timed in [false, true, false, true] {
            let shared = &shared;
            s.spawn(move || {
                let (m, cv, hits) = &**shared;
                let mut g = m.lock();
                while *g == 0 {
                    g = match timed {
                        false => cv.wait(g),
                        true => cv.wait_timeout(g, std::time::Duration::from_millis(1)),
                    };
                }
                *g += 1;
                hits.fetch_add(1, Ordering::AcqRel);
            });
        }
        *shared.0.lock() = 1;
        shared.1.notify_all();
    });
    assert_eq!(*shared.0.lock(), 5);
    assert_eq!(shared.2.load(Ordering::Acquire), 4);

    // A channel is a real blocking queue: a receive waits for a send on
    // another thread, or for its last sender to go there.
    use fg_check::sync::channel::{unbounded, RecvTimeoutError, TryRecvError};
    let ms = std::time::Duration::from_millis;
    let (tx, rx) = unbounded();
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    assert_eq!(rx.recv_timeout(ms(1)), Err(RecvTimeoutError::Timeout));
    std::thread::scope(|s| {
        s.spawn(move || (0..3).for_each(|i| tx.clone().send(i).unwrap()));
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv_timeout(ms(10_000)), Ok(1));
        assert_eq!(rx.iter().collect::<Vec<_>>(), [2], "then the disconnect");
    });
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    // And from the other end: a send to a dropped receiver fails.
    let (tx, _) = unbounded();
    assert_eq!(tx.send(7).map_err(|e| e.0), Err(7));
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
    use models::inflight_waiter::{check, Mutation};
    // A pass's reply lost on its way, or a cancelled claimer's dispatch
    // lost on its way: the attached waiter never wakes. A reply taken
    // without the I/O thread's clock, or a claim without its stripe
    // lock: a data race.
    let expected = [
        (Mutation::LostReply, "deadlock"),
        (Mutation::UnorderedReply, "data race"),
        (Mutation::LostDispatch, "deadlock"),
        (Mutation::UnlockedClaim, "data race"),
    ];
    assert_caught("inflight_waiter", check, &expected);
}

#[test]
fn inflight_waiter_inline_cell_verified() {
    assert_verified(
        "inflight_waiter_inline",
        &models::inflight_waiter::check_inline(None, &cfg()),
    );
}

#[test]
fn inflight_waiter_inline_cell_mutations_caught() {
    use models::inflight_waiter::{check_inline, Mutation, INLINE_MUTATIONS};
    // The inline pass's reply to its own session lost: the reader waits
    // forever for a page it served. The second session's blocking
    // receive without the pass's clock, or a claim without its stripe
    // lock: a data race.
    let expected = [
        (Mutation::LostReply, "deadlock"),
        (Mutation::UnorderedReply, "data race"),
        (Mutation::UnlockedClaim, "data race"),
    ];
    assert_eq!(expected.map(|(m, _)| m), INLINE_MUTATIONS);
    assert_caught("inflight_waiter_inline", check_inline, &expected);
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
    assert!(rules.contains(&"raw-sync"), "missing raw-sync: {:?}", rules);
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

    // The fourth rule holds for the files `fg_check` mounts — the list
    // read from the mount's own attributes — and only for them.
    let mounted = lint::mounted_files();
    assert_eq!(
        mounted,
        [
            "crates/types/src/bitmap.rs",
            "crates/core/src/serve/gate.rs",
            "crates/safs/src/inflight.rs",
            "crates/safs/src/io_thread.rs",
            "crates/core/src/engine/pool.rs",
            "crates/core/src/rendezvous.rs",
            "crates/safs/src/session.rs"
        ]
    );
    let unseen = "use std::sync::Mutex;\nuse std::sync::Arc; // shares, no protocol\n";
    let rules = |v: Vec<lint::Violation>| v.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>();
    // A raw lock in a mounted file breaks two rules; anywhere else in a
    // shipped crate it still breaks the first — the second lock
    // vocabulary does not grow back — and test scaffolding keeps `std`.
    assert_eq!(
        rules(lint::lint_source(&mounted[2], unseen)),
        [(1, "raw-sync"), (1, "checked-imports")]
    );
    assert_eq!(
        rules(lint::lint_source("crates/core/src/shard.rs", unseen)),
        [(1, "raw-sync")]
    );
    assert_eq!(rules(lint::lint_source("tests/prop_serve.rs", unseen)), []);
    // A channel the checker cannot see is one too: its messages would
    // carry no clock.
    for path in [
        "std::sync::Mutex::new(0)",
        "fg_types::sync::AtomicU64",
        "fg_types::sync::channel::unbounded::<u32>()",
        "std::sync::mpsc::channel::<u32>()",
    ] {
        let src = format!("fn f() {{ let _ = {path}; }}\n");
        assert_eq!(
            rules(lint::lint_source(&mounted[0], &src)),
            [(1, "checked-imports")]
        );
    }
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
    // What `from_env` does with the variable's value: unset is the
    // default, a number deepens, anything else is an error — a typo in
    // CI's depth-3 step must not run the shallow sweep and report green.
    let unset = Config::from_depth(None).unwrap();
    assert_eq!(unset.preemption_bound, base.preemption_bound);
    let three = Config::from_depth(Some(" 3 ")).unwrap();
    assert_eq!(three.preemption_bound, 3);
    assert_eq!(three.max_executions, 3 * base.max_executions);
    for typo in ["three", "3x", "", "-1"] {
        let err = Config::from_depth(Some(typo)).unwrap_err();
        assert!(err.contains(&format!("{typo:?}")), "{err}");
    }
}
