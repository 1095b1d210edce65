//! The bounded model-checking scheduler.
//!
//! `fg_check` runs a *scenario* — a small closure that spawns threads
//! and touches shared state exclusively through the doubles in
//! [`crate::sync`], directly (a model) or by driving a shipped type
//! compiled against them (a harness) — many times, once per thread
//! interleaving, and reports the first interleaving that breaks an
//! invariant.
//!
//! # How an execution runs
//!
//! Real OS threads execute the model, but a single *token* serializes
//! them: every instrumented operation first parks at a **schedule
//! point** and waits until the scheduler hands it the token. The
//! thread that cedes the token picks the successor, so the whole
//! interleaving is one deterministic sequence of choices. Re-running
//! the model with a recorded choice prefix replays the exact same
//! interleaving — that is what makes counterexample traces stable.
//!
//! # How the schedule space is explored
//!
//! Depth-first search over the choice tree. At each schedule point
//! the ceding thread computes the deterministic, sorted set of
//! runnable candidates; the first execution always takes the first
//! candidate, and [`explore`] backtracks the deepest not-yet-exhausted
//! decision between executions. Two bounds keep the tree finite:
//!
//! * a **preemption bound** (`Config::preemption_bound`): switching
//!   away from a thread that could continue costs one preemption;
//!   paths that exceed the budget are not generated. Forced switches
//!   (the runner blocked, finished, or yielded) are free. Empirically
//!   almost all concurrency bugs need very few preemptions, which is
//!   what makes this bound useful.
//! * a **step bound** (`Config::max_steps`): an execution that runs
//!   more operations than this is reported as a livelock — the net
//!   that catches "nobody releases, everyone spins" bugs like a busy
//!   bit its owner never clears.
//!
//! Spin loops cooperate through [`crate::sync::cyield`]: at the yield
//! point the yielder is excluded from its own successor candidates (a
//! free, forced switch to whoever can make progress), so the default
//! DFS branch never spins a thread to the step bound while another
//! thread could have run. Afterwards the yielder is an ordinary
//! candidate again — re-scheduling it mid-window costs a preemption
//! like any other switch, which is precisely what lets the checker
//! drive a spinning observer into another thread's transient state.
//! A spinner that is the *only* runnable thread keeps running and
//! hits the step bound, which is how livelocks get reported.
//!
//! # What counts as a failure
//!
//! * **Data races.** Every thread carries a vector clock;
//!   happens-before edges flow through the doubles (release/acquire
//!   atomics, mutex hand-off, a message from send to receive,
//!   spawn/join). A [`crate::sync::CCell`] access that is not ordered
//!   after the previous conflicting access is a race. Crucially,
//!   `Relaxed` atomic operations move *values* but never clocks — so
//!   downgrading a publishing `AcqRel` to `Relaxed` shows up as a lost
//!   publication, exactly like the seeded busy-bit mutation.
//! * **Deadlocks.** No runnable threads, some still blocked — and none
//!   of them in a timed wait: a timeout fires when nothing else can
//!   run, never earlier, so a protocol that works only because someone
//!   polls still deadlocks its untimed waiters.
//! * **Livelocks.** The step bound, as above.
//! * **Assertion failures.** Models state invariants with
//!   [`crate::check_assert`]; an ordinary panic inside a model is
//!   reported the same way.
//!
//! The memory model here is deliberately *sequentially consistent in
//! values*: a load always observes the globally latest store, and only
//! the happens-before structure distinguishes orderings. Stale-value
//! reorderings are out of scope; lost publications, lost wakeups,
//! transiently-broken counters, and interleaving bugs are in scope,
//! and those are the classes the engine's protocols actually depend
//! on.

use std::panic::{self, AssertUnwindSafe, Location};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use fg_types::sync::Counter;

/// Exploration limits. `Default` matches the tier-1 CI budget; the
/// deep-exploration CI step raises it via `Config::from_env`.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum number of *voluntary* context switches per execution
    /// (switching away from a thread that could have continued).
    pub preemption_bound: usize,
    /// Cap on explored interleavings; hitting it clears
    /// [`Report::complete`].
    pub max_executions: usize,
    /// Per-execution operation budget; exceeding it is a livelock.
    pub max_steps: usize,
    /// Hard cap on threads a model may create (vector-clock width).
    pub max_threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 2,
            max_executions: 200_000,
            max_steps: 4_000,
            max_threads: 8,
        }
    }
}

impl Config {
    /// The default configuration, deepened by the `FG_CHECK_DEPTH`
    /// environment variable if set: `FG_CHECK_DEPTH=n` raises the
    /// preemption bound to `n` and scales the execution budget to
    /// match. This is the knob the CI stress step turns — so a value
    /// that is not a number is an error, not the shallow default.
    pub fn from_env() -> Result<Self, String> {
        let var = std::env::var_os("FG_CHECK_DEPTH");
        Config::from_depth(var.as_deref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// [`Config::from_env`] over the variable's value (`None`: unset).
    pub fn from_depth(var: Option<&str>) -> Result<Self, String> {
        let cfg = Config::default();
        match var.map(|v| (v, v.trim().parse::<usize>())) {
            None => Ok(cfg),
            Some((_, Ok(depth))) => Ok(cfg.with_depth(depth)),
            Some((v, Err(e))) => Err(format!("FG_CHECK_DEPTH={v:?} is not a depth: {e}")),
        }
    }

    /// Raises the preemption bound to `depth` and scales the execution
    /// budget to match.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.preemption_bound = self.preemption_bound.max(depth);
        self.max_executions = self.max_executions.saturating_mul(depth.max(1));
        self
    }
}

/// A protocol fault the doubles inject for one exploration:
/// `Fault(file, op, nth)` is the `nth` call of method `op` in the
/// mounted file `file`, counted in source order — a name that survives
/// unrelated edits to the file. What goes wrong follows from the
/// operation: an atomic access runs at `Relaxed` whatever the source
/// asks for, a `lock` is granted without acquiring, a `notify_all`
/// wakes nobody. A fault that names no call, or one the scenario never
/// makes, fails the exploration ([`FailureKind::FaultNotReached`])
/// instead of passing for a catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault(pub &'static str, pub &'static str, pub usize);

/// A [`Fault`], the source line of its call, and how often that ran.
type Armed = (Fault, u32, Counter);

impl Fault {
    /// Finds the call in the mounted file's source, as it is on disk.
    fn arm(self) -> Result<Armed, String> {
        let Fault(file, op, nth) = self;
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let src = crate::lint::mounted_files()
            .iter()
            .find(|f| Path::new(f).ends_with(file))
            .and_then(|f| std::fs::read_to_string(root.join(f)).ok())
            .ok_or_else(|| format!("{self:?}: not a mounted file"))?;
        let (call, lines) = (format!(".{op}("), crate::lint::split_lines(&src));
        let mut calls = (1u32..)
            .zip(&lines)
            .flat_map(|(n, l)| l.code.matches(&call).map(move |_| n));
        match calls.nth(nth) {
            Some(line) => Ok((self, line, Counter::new(0))),
            None => Err(format!("{self:?}: the file has no such call")),
        }
    }
}

/// Why an interleaving failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// A [`Fault`] named a call that does not exist or never ran: the
    /// exploration says nothing about it.
    FaultNotReached(String),
    /// Two unordered accesses to the same [`crate::sync::CCell`].
    DataRace(String),
    /// Threads blocked with no runnable thread left.
    Deadlock(String),
    /// The execution exceeded [`Config::max_steps`].
    Livelock,
    /// A [`crate::check_assert`] failed or the model panicked.
    Assert(String),
}

impl FailureKind {
    /// The kind without its details, as verdicts and tests name it.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::FaultNotReached(_) => "fault not reached",
            FailureKind::DataRace(_) => "data race",
            FailureKind::Deadlock(_) => "deadlock",
            FailureKind::Livelock => "livelock",
            FailureKind::Assert(_) => "assertion",
        }
    }
}

/// A failing interleaving: what broke, plus the full schedule that
/// reproduces it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    /// One line per granted operation, in execution order.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let detail = match &self.kind {
            FailureKind::Livelock => "step bound exceeded",
            FailureKind::DataRace(d)
            | FailureKind::Deadlock(d)
            | FailureKind::Assert(d)
            | FailureKind::FaultNotReached(d) => d,
        };
        writeln!(f, "{}: {}", self.kind.name(), detail)?;
        writeln!(
            f,
            "counterexample interleaving ({} steps):",
            self.trace.len()
        )?;
        const TAIL: usize = 60;
        let skip = self.trace.len().saturating_sub(TAIL);
        if skip > 0 {
            writeln!(f, "  ... {} earlier steps elided ...", skip)?;
        }
        for line in &self.trace[skip..] {
            writeln!(f, "  {}", line)?;
        }
        Ok(())
    }
}

/// The outcome of [`explore`].
#[derive(Clone, Debug)]
pub struct Report {
    /// Interleavings executed.
    pub executions: usize,
    /// True iff the bounded schedule space was exhausted (no failure
    /// and every decision alternative visited).
    pub complete: bool,
    /// The first failing interleaving, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Convenience for tests: exhaustively explored and clean.
    pub fn passed(&self) -> bool {
        self.complete && self.failure.is_none()
    }

    /// This report and `next`'s as one, for a protocol explored through
    /// several scenarios: the first failure wins.
    pub fn and(self, next: Report) -> Report {
        Report {
            executions: self.executions + next.executions,
            complete: self.complete && next.complete,
            failure: self.failure.or(next.failure),
        }
    }
}

/// Sentinel panic payload used to unwind model threads when an
/// execution aborts early (failure found). Never escapes [`explore`].
struct Aborted;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum St {
    /// Spawned, but its OS thread has not parked yet. Decisions wait
    /// for starters so the candidate set is deterministic.
    Starting,
    /// Parked at a schedule point, eligible to be granted the token.
    Parked,
    BlockedMutex(u64),
    /// In a condvar wait or a channel receive.
    BlockedCond(u64),
    /// `BlockedCond` with a timeout, which also ends it once nothing
    /// else can run.
    BlockedTimed(u64),
    BlockedJoin(usize),
    Finished,
}

/// One DFS decision: the candidate successors at a schedule point and
/// the index of the branch currently being explored.
struct Choice {
    candidates: Vec<usize>,
    idx: usize,
}

struct SchedState {
    status: Vec<St>,
    /// Description of the operation each parked thread will perform
    /// when granted.
    pending: Vec<String>,
    /// Vector clocks, indexed `[tid][tid]`; width `max_threads`.
    clocks: Vec<Vec<u32>>,
    active: usize,
    nthreads: usize,
    steps: usize,
    depth: usize,
    preemptions: usize,
    next_obj: u64,
    trace: Vec<String>,
    aborting: bool,
    failure: Option<Failure>,
}

pub(crate) struct Scheduler {
    cfg: Config,
    state: Mutex<SchedState>,
    cv: Condvar,
    /// The cross-execution DFS stack, shared with [`explore`].
    stack: Arc<Mutex<Vec<Choice>>>,
    /// The exploration's faults, shared across its executions.
    faults: Arc<Vec<Armed>>,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Scheduler>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn set_ctx(sched: Arc<Scheduler>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((sched, tid)));
}

impl Scheduler {
    /// Locks the scheduler state, shrugging off poison: the only
    /// panics raised under this lock are the deliberate `Aborted`
    /// teardown unwinds, which leave the state consistent
    /// (`aborting` set, the failure recorded).
    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Condvar wait with the same poison tolerance as `lock_state`.
    fn wait_cv<'a>(&'a self, st: MutexGuard<'a, SchedState>) -> MutexGuard<'a, SchedState> {
        self.cv.wait(st).unwrap_or_else(|e| e.into_inner())
    }

    /// The scheduler of the current model thread; `None` on any other
    /// thread, where a double is a plain value.
    pub(crate) fn try_current() -> Option<(Arc<Scheduler>, usize)> {
        CTX.with(|c| c.borrow().clone())
    }

    /// [`Scheduler::try_current`] for what only exists under
    /// [`explore`] (model threads, `CCell`s, invariants).
    pub(crate) fn current() -> (Arc<Scheduler>, usize) {
        Scheduler::try_current().expect("only meaningful inside fg_check::explore()")
    }

    /// True if this exploration faults the `op` call at `at`.
    pub(crate) fn faulted(&self, op: &str, at: &Location<'_>) -> bool {
        let hit = self.faults.iter().find(|(Fault(file, fop, _), line, _)| {
            *fop == op && *line == at.line() && Path::new(at.file()).ends_with(file)
        });
        hit.map(|(.., hits)| hits.inc()).is_some()
    }

    fn new(cfg: Config, stack: Arc<Mutex<Vec<Choice>>>, faults: Arc<Vec<Armed>>) -> Arc<Scheduler> {
        let nt = cfg.max_threads;
        Arc::new(Scheduler {
            cfg: cfg.clone(),
            state: Mutex::new(SchedState {
                status: vec![St::Starting; 1],
                pending: vec![String::from("start"); 1],
                clocks: vec![vec![0; nt]; 1],
                active: 0,
                nthreads: 1,
                steps: 0,
                depth: 0,
                preemptions: 0,
                next_obj: 0,
                trace: Vec::new(),
                aborting: false,
                failure: None,
            }),
            cv: Condvar::new(),
            stack,
            faults,
        })
    }

    pub(crate) fn fresh_obj_id(&self) -> u64 {
        let mut st = self.lock_state();
        st.next_obj += 1;
        st.next_obj
    }

    fn abort_check(&self, st: &SchedState) {
        if st.aborting {
            panic::panic_any(Aborted);
        }
    }

    /// Records `failure` (first one wins), wakes everyone for
    /// teardown, and unwinds the calling thread.
    pub(crate) fn fail(&self, kind: FailureKind) -> ! {
        let mut st = self.lock_state();
        self.fail_locked(&mut st, kind);
        drop(st);
        panic::panic_any(Aborted);
    }

    fn fail_locked(&self, st: &mut SchedState, kind: FailureKind) {
        if st.failure.is_none() {
            st.failure = Some(Failure {
                kind,
                trace: st.trace.clone(),
            });
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Runs `f` over the clock vector of `tid` plus a second borrowed
    /// clock table — the doubles use this to join and snapshot clocks.
    pub(crate) fn with_clocks<R>(&self, f: impl FnOnce(&mut Vec<Vec<u32>>) -> R) -> R {
        let mut st = self.lock_state();
        f(&mut st.clocks)
    }

    /// The granted-token gate: waits until this thread owns the token,
    /// then records the pending operation in the trace, bumps the step
    /// count and the thread's clock epoch, and returns with the token
    /// held (conceptually — the thread simply is the only runnable
    /// one).
    fn gate<'a>(
        &'a self,
        mut st: MutexGuard<'a, SchedState>,
        me: usize,
    ) -> MutexGuard<'a, SchedState> {
        loop {
            self.abort_check(&st);
            if st.active == me && st.status[me] == St::Parked {
                break;
            }
            st = self.wait_cv(st);
        }
        let line = format!("[t{}] {}", me, st.pending[me]);
        st.trace.push(line);
        st.steps += 1;
        if st.steps > self.cfg.max_steps {
            self.fail_locked(&mut st, FailureKind::Livelock);
            drop(st);
            panic::panic_any(Aborted);
        }
        st.clocks[me][me] += 1;
        st
    }

    /// A schedule point: park, cede the token, wait to be granted it
    /// again, then return so the caller performs exactly one
    /// instrumented operation.
    pub(crate) fn point(&self, me: usize, desc: &str) {
        let mut st = self.lock_state();
        self.abort_check(&st);
        st.status[me] = St::Parked;
        st.pending[me] = desc.to_string();
        let st = self.pick_next(st, me, false);
        let _st = self.gate(st, me);
    }

    /// Like [`Scheduler::point`] but a spin-loop hint: the yielder is
    /// excluded from its own successor candidates (unless it is the
    /// only runnable thread), so the default schedule always lets a
    /// progressing thread run instead of spinning to the step bound.
    pub(crate) fn yield_point(&self, me: usize) {
        let mut st = self.lock_state();
        self.abort_check(&st);
        st.status[me] = St::Parked;
        st.pending[me] = String::from("yield");
        let st = self.pick_next(st, me, true);
        let _st = self.gate(st, me);
    }

    /// Blocks the calling thread on `target` (a mutex, condvar, channel
    /// or join edge), cedes the token, and returns once the thread has
    /// been unblocked *and* granted the token again.
    pub(crate) fn block_on(&self, me: usize, target: St, desc: &str) {
        let mut st = self.lock_state();
        self.abort_check(&st);
        st.status[me] = target;
        st.pending[me] = desc.to_string();
        let st = self.pick_next(st, me, false);
        let _st = self.gate(st, me);
    }

    /// Moves every thread blocked on `pred` back to `Parked`. Caller
    /// holds the token; the unblocked threads compete at the next
    /// decision.
    fn unblock_where(&self, st: &mut SchedState, pred: impl Fn(St) -> bool) {
        for t in 0..st.nthreads {
            if pred(st.status[t]) {
                st.status[t] = St::Parked;
            }
        }
    }

    /// The current model thread's id (doubles that already hold an
    /// `Arc<Scheduler>` only need the tid).
    pub(crate) fn current_tid() -> usize {
        Scheduler::current().1
    }

    /// Wakes the threads blocked on `edge` (a mutex's unlock, a
    /// condvar's notify, a channel's send).
    pub(crate) fn unblock(&self, edge: St) {
        let mut st = self.lock_state();
        self.unblock_where(&mut st, |s| s == edge);
    }

    /// Registers a child thread: clock inherited from the parent
    /// (spawn is a happens-before edge). Returns the child tid.
    pub(crate) fn register_child(&self, parent: usize) -> usize {
        let mut st = self.lock_state();
        let tid = st.nthreads;
        if tid >= self.cfg.max_threads {
            self.fail_locked(
                &mut st,
                FailureKind::Assert(format!(
                    "model spawned more than max_threads={} threads",
                    self.cfg.max_threads
                )),
            );
            drop(st);
            panic::panic_any(Aborted);
        }
        st.nthreads += 1;
        st.status.push(St::Starting);
        st.pending.push(String::from("start"));
        let clock = st.clocks[parent].clone();
        st.clocks.push(clock);
        tid
    }

    /// Child-side birth: park, announce (decisions wait for starters),
    /// then wait for the first grant.
    fn first_park(&self, me: usize) {
        let mut st = self.lock_state();
        st.status[me] = St::Parked;
        self.cv.notify_all();
        let _st = self.gate(st, me);
    }

    /// Thread epilogue: mark finished, wake joiners, hand the token
    /// onward.
    fn finish(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lock_state();
        if let Some(msg) = panic_msg {
            self.fail_locked(&mut st, FailureKind::Assert(msg));
        }
        st.status[me] = St::Finished;
        self.unblock_where(&mut st, |s| s == St::BlockedJoin(me));
        if !st.aborting {
            st = self.pick_next(st, me, false);
        }
        self.cv.notify_all();
        drop(st);
    }

    pub(crate) fn is_finished(&self, tid: usize) -> bool {
        self.lock_state().status[tid] == St::Finished
    }

    /// The decision procedure. Called by the thread ceding the token
    /// (its own status already updated). Picks the next token holder —
    /// following the DFS stack during replay, extending it at the
    /// frontier — and publishes the grant.
    fn pick_next<'a>(
        &'a self,
        mut st: MutexGuard<'a, SchedState>,
        me: usize,
        yielding: bool,
    ) -> MutexGuard<'a, SchedState> {
        // Freshly spawned threads must park before we can enumerate
        // candidates, or the set would depend on OS timing.
        while st.status.contains(&St::Starting) && !st.aborting {
            st = self.wait_cv(st);
        }
        if st.aborting {
            return st;
        }

        if !st.status.contains(&St::Parked) {
            // The clock is slower than every thread: timeouts fire only
            // now, when nothing else can run, and all at once.
            self.unblock_where(&mut st, |s| matches!(s, St::BlockedTimed(_)));
        }
        let parked: Vec<usize> = (0..st.nthreads)
            .filter(|&t| st.status[t] == St::Parked)
            .collect();
        if parked.is_empty() {
            if (0..st.nthreads).all(|t| st.status[t] == St::Finished) {
                // Execution over; wake the executor.
                self.cv.notify_all();
                return st;
            }
            let stuck: Vec<String> = (0..st.nthreads)
                .filter(|&t| st.status[t] != St::Finished)
                .map(|t| format!("t{} {:?} at `{}`", t, st.status[t], st.pending[t]))
                .collect();
            self.fail_locked(&mut st, FailureKind::Deadlock(stuck.join("; ")));
            return st;
        }

        // A yield excludes the yielder from its own cede — unless it
        // is the only runnable thread, in which case it spins on (and
        // a genuine livelock meets the step bound).
        let me_eligible = parked.contains(&me) && !(yielding && parked.len() > 1);
        let mut cands = Vec::new();
        if me_eligible {
            // Continuing the current thread is always free.
            cands.push(me);
        }
        if !me_eligible || st.preemptions < self.cfg.preemption_bound {
            cands.extend(parked.iter().copied().filter(|&t| t != me));
        }
        let chosen = self.decide(&mut st, cands);
        // Switching away from a thread that could have continued is a
        // preemption; forced switches (blocked/finished/yielded) are
        // free.
        if chosen != me && me_eligible {
            st.preemptions += 1;
        }
        st.active = chosen;
        self.cv.notify_all();
        st
    }

    /// Records (or replays) one DFS decision and returns the chosen
    /// tid.
    fn decide(&self, st: &mut MutexGuard<'_, SchedState>, candidates: Vec<usize>) -> usize {
        let d = st.depth;
        st.depth += 1;
        let mut stack = self.stack.lock().unwrap();
        if d < stack.len() {
            let c = &stack[d];
            let chosen = c.candidates[c.idx];
            if !candidates.contains(&chosen) {
                // Granting a thread that cannot run would hang.
                let why = format!(
                    "replay divergence at depth {d}: t{chosen} not in {candidates:?} \
                     — the scenario is not deterministic"
                );
                drop(stack);
                self.fail_locked(st, FailureKind::Assert(why));
                return candidates[0];
            }
            chosen
        } else {
            let chosen = candidates[0];
            stack.push(Choice { candidates, idx: 0 });
            chosen
        }
    }
}

/// Spawns a model thread under the scheduler. Returned by
/// [`crate::sync::cspawn`].
pub struct CJoinHandle {
    tid: usize,
    os: Option<std::thread::JoinHandle<()>>,
}

pub(crate) fn spawn_model_thread(f: impl FnOnce() + Send + 'static) -> CJoinHandle {
    let (sched, me) = Scheduler::current();
    sched.point(me, "spawn");
    let tid = sched.register_child(me);
    let s2 = sched.clone();
    let s2_park = sched.clone();
    let os = std::thread::Builder::new()
        .name(format!("fg-check-t{}", tid))
        .spawn(move || {
            set_ctx(s2.clone(), tid);
            // The birth park sits *inside* the unwind catch: an abort
            // landing while this thread waits for its first grant must
            // still reach `finish`, or its status stays `Parked` and
            // the executor's settle loop waits on it forever.
            let r = panic::catch_unwind(AssertUnwindSafe(move || {
                s2_park.first_park(tid);
                f()
            }));
            let msg = panic_message(r);
            s2.finish(tid, msg);
        })
        .expect("spawn model thread");
    CJoinHandle { tid, os: Some(os) }
}

impl CJoinHandle {
    /// Joins the model thread: blocks (scheduler-wise) until it
    /// finishes and merges its clock into the caller's (join is a
    /// happens-before edge).
    pub fn join(mut self) {
        let (sched, me) = Scheduler::current();
        sched.point(me, &format!("join(t{})", self.tid));
        while !sched.is_finished(self.tid) {
            sched.block_on(me, St::BlockedJoin(self.tid), "join-wake");
        }
        let tid = self.tid;
        sched.with_clocks(|clocks| {
            let child = clocks[tid].clone();
            for (a, b) in clocks[me].iter_mut().zip(child) {
                *a = (*a).max(b);
            }
        });
        let _ = self.os.take().expect("not yet joined").join();
    }
}

impl Drop for CJoinHandle {
    fn drop(&mut self) {
        // An unjoined handle after an abort: let the OS thread wind
        // down on its own; `explore` owns overall teardown.
        if let Some(os) = self.os.take() {
            let _ = os.join();
        }
    }
}

/// Extracts a printable message from a caught panic, mapping the
/// internal abort sentinel to `None`.
fn panic_message(r: Result<(), Box<dyn std::any::Any + Send>>) -> Option<String> {
    match r {
        Ok(()) => None,
        Err(e) => {
            if e.is::<Aborted>() {
                None
            } else if let Some(s) = e.downcast_ref::<&str>() {
                Some((*s).to_string())
            } else if let Some(s) = e.downcast_ref::<String>() {
                Some(s.clone())
            } else {
                Some(String::from("model panicked"))
            }
        }
    }
}

/// Explores the scenario's bounded schedule space and reports the
/// first failing interleaving, if any.
///
/// The closure is the whole scenario: it runs once per interleaving on
/// a fresh scheduler, constructs its shared state from scratch (the
/// [`crate::sync`] doubles, or a shipped type built from them), spawns
/// threads with [`crate::sync::cspawn`], and asserts its invariants
/// with [`crate::check_assert`]; the doubles inject `faults` into it.
pub fn explore(cfg: &Config, faults: &[Fault], body: impl Fn() + Send + Sync + 'static) -> Report {
    let not_reached = |executions, why| Report {
        executions,
        complete: false,
        failure: Some(Failure {
            kind: FailureKind::FaultNotReached(why),
            trace: Vec::new(),
        }),
    };
    let armed: Result<Vec<Armed>, String> = faults.iter().map(|f| f.arm()).collect();
    let faults = match armed {
        Ok(armed) => Arc::new(armed),
        Err(why) => return not_reached(0, why),
    };

    // The `Aborted` teardown unwinds are deliberate; keep the default
    // hook from printing a backtrace for each one. Installed once,
    // chaining to the previous hook for every real panic.
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Aborted>() {
                prev(info);
            }
        }));
    });

    let body = Arc::new(body);
    let stack: Arc<Mutex<Vec<Choice>>> = Arc::new(Mutex::new(Vec::new()));
    let mut executions = 0usize;
    let (complete, failure) = 'explored: loop {
        if executions >= cfg.max_executions {
            break (false, None);
        }
        let sched = Scheduler::new(cfg.clone(), stack.clone(), faults.clone());
        let b = body.clone();
        let s2 = sched.clone();
        let root = std::thread::Builder::new()
            .name(String::from("fg-check-t0"))
            .spawn(move || {
                set_ctx(s2.clone(), 0);
                s2.first_park(0);
                let r = panic::catch_unwind(AssertUnwindSafe(move || b()));
                let msg = panic_message(r);
                s2.finish(0, msg);
            })
            .expect("spawn model root");
        let _ = root.join();
        executions += 1;

        // The root thread has exited, but a model thread it handed the
        // token to may still be draining; wait for every status to
        // settle before reading the verdict.
        let failure = {
            let mut st = sched.lock_state();
            while !(0..st.nthreads).all(|t| st.status[t] == St::Finished) {
                st = sched.wait_cv(st);
            }
            st.failure.clone()
        };
        if failure.is_some() {
            break (false, failure);
        }

        // Backtrack: advance the deepest decision with an unexplored
        // branch; drop exhausted suffixes. Empty stack ⇒ tree done.
        let mut sk = stack.lock().unwrap();
        loop {
            match sk.last_mut() {
                None => break 'explored (true, None),
                Some(c) => {
                    c.idx += 1;
                    if c.idx < c.candidates.len() {
                        break;
                    }
                    sk.pop();
                }
            }
        }
    };
    match faults.iter().find(|(.., hits)| hits.get() == 0) {
        Some((fault, ..)) => not_reached(
            executions,
            format!("{fault:?}: no execution made this call"),
        ),
        None => Report {
            executions,
            complete,
            failure,
        },
    }
}

/// A model invariant check: records a counterexample and aborts the
/// execution when `cond` is false.
pub fn check_assert(cond: bool, msg: &str) {
    if !cond {
        let (sched, _me) = Scheduler::current();
        sched.fail(FailureKind::Assert(msg.to_string()));
    }
}
