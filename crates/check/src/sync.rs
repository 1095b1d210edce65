//! Schedule-instrumented doubles of `fg_types::sync` — the primitives
//! the engine builds its protocols from, under the same names and with
//! the same constructors, so a file written against `super::sync::…`
//! compiles against either (see [`crate::models`]).
//!
//! Inside [`crate::explore`] every access is a schedule point (see
//! [`crate::sched`]), and the doubles maintain the vector-clock
//! bookkeeping that makes `Relaxed`-vs-`Acquire`/`Release` visibility
//! observable:
//!
//! * **Atomics** ([`AtomicU64`], [`AtomicUsize`], [`AtomicBool`]) have
//!   sequentially-consistent *value* semantics but ordering-faithful
//!   *clock* semantics. A `Release` store publishes the writer's clock
//!   on the atomic; an `Acquire` load joins it; an `AcqRel` RMW does
//!   both and accumulates (modelling release sequences through RMW
//!   chains); `Relaxed` operations move values only — a `Relaxed`
//!   store severs the release chain, and a `Relaxed` RMW continues it
//!   without contributing its own clock.
//! * **[`CCell`]** is non-atomic shared data, the payload a scenario
//!   protects with the protocol under test. Every access is checked
//!   against the clocks: an access not ordered after the previous
//!   conflicting access is reported as a data race. This is how a
//!   "lost publication" from an ordering downgrade actually surfaces.
//! * **[`Mutex`] / [`Condvar`]** transfer clocks through lock
//!   hand-off, block threads scheduler-side, and make lost wakeups
//!   visible as deadlocks. [`Condvar::wait_timeout`] times out only
//!   once no thread can run (see [`crate::sched`]): the poll it stands
//!   for never rescues a waiter the protocol forgot to wake.
//!
//! The atomics, `Mutex` and `Condvar` are also where a [`crate::Fault`]
//! lands: each operation knows its call site (`#[track_caller]`) and
//! asks the scheduler whether this exploration breaks it. A double's
//! trace name is its creation site and ordinal (`pool.rs:41#3`).
//!
//! A double created on a thread that is not a model thread is a *plain
//! value*: the same state behind the same real lock, no scheduler, no
//! clocks — a slow but correct atomic, mutex or condvar, which is what
//! lets a mounted file's own `#[cfg(test)]` module run, real threads
//! and all, in this crate's test build. So is any double while its
//! thread unwinds: what runs then is a `Drop` of the code under test
//! (an admission permit giving its slot back) as an aborted execution
//! is torn down, and a schedule point there would panic inside a
//! panic. Nothing here is a real atomic: under the scheduler exactly
//! one model thread runs at a time.

use std::fmt;
use std::panic::Location;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard};
use std::time::Duration;

pub use crate::sched::CJoinHandle;
use crate::sched::{FailureKind, Scheduler, St};

/// Memory orderings, re-exported like `fg_types::sync` does.
pub use fg_types::sync::Ordering;

fn acquire_half(ord: Ordering) -> bool {
    // ordering: classification of a scenario's ordering, not an access.
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn release_half(ord: Ordering) -> bool {
    // ordering: classification of a scenario's ordering, not an access.
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn join_into(dst: &mut [u32], src: &[u32]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a = (*a).max(*b);
    }
}

/// Locks a double's own bookkeeping. Poison there only means an
/// execution was torn down mid-access; the state is still the state.
fn relock<T>(m: &StdMutex<T>) -> StdGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spawns a model thread. The handle must be joined before the
/// scenario returns (join is also the happens-before edge the final
/// asserts rely on).
pub fn cspawn(f: impl FnOnce() + Send + 'static) -> CJoinHandle {
    crate::sched::spawn_model_thread(f)
}

/// Spawns `n` model threads running `f(0)` … `f(n - 1)` and joins
/// them all, in that order.
pub fn cspawn_each(n: usize, f: impl Fn(usize) + Send + Sync + 'static) {
    let f = Arc::new(f);
    let spawn = |i| {
        cspawn({
            let f = f.clone();
            move || f(i)
        })
    };
    let handles: Vec<CJoinHandle> = (0..n).map(spawn).collect();
    handles.into_iter().for_each(CJoinHandle::join);
}

/// A spin-loop hint: parks the thread at a schedule point and tells
/// the scheduler to deprioritize it until no non-yielded thread can
/// run. Use it wherever the real code spins or parks.
pub fn cyield() {
    let (sched, me) = Scheduler::current();
    sched.yield_point(me);
}

/// What a double created inside [`crate::explore`] carries; a plain
/// value has none.
struct Tracked {
    sched: Arc<Scheduler>,
    id: u64,
    name: String,
}

/// The model side of a double for an operation made now: `None` for a
/// plain value, and while the calling thread unwinds (module docs).
fn live(model: &Option<Tracked>) -> Option<&Tracked> {
    model.as_ref().filter(|_| !std::thread::panicking())
}

impl Tracked {
    #[track_caller]
    fn new() -> Option<Tracked> {
        let (sched, _) = Scheduler::try_current()?;
        let at = Location::caller();
        let id = sched.fresh_obj_id();
        let file = at.file().rsplit('/').next().unwrap_or_default();
        let name = format!("{}:{}#{}", file, at.line(), id);
        Some(Tracked { sched, id, name })
    }

    /// A zeroed clock of this exploration's width.
    fn clock(&self) -> Vec<u32> {
        vec![0; self.sched.with_clocks(|c| c[0].len())]
    }
}

struct AtomicMeta {
    value: u64,
    /// The clock a synchronizing reader acquires; all-zero when the
    /// release chain is severed.
    release: Vec<u32>,
}

/// An instrumented 64-bit atomic.
pub struct AtomicU64 {
    model: Option<Tracked>,
    meta: StdMutex<AtomicMeta>,
}

impl fmt::Debug for AtomicU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AtomicU64({})", relock(&self.meta).value)
    }
}

impl AtomicU64 {
    #[track_caller]
    pub fn new(v: u64) -> Self {
        let model = Tracked::new();
        let release = model.as_ref().map_or(Vec::new(), Tracked::clock);
        AtomicU64 {
            model,
            meta: StdMutex::new(AtomicMeta { value: v, release }),
        }
    }

    /// The schedule point of one access. Returns the model thread and
    /// the ordering to apply — `Relaxed` if this exploration faults
    /// the call at `at` — or `None` for a plain value.
    fn enter(
        &self,
        at: &Location<'_>,
        op: &str,
        arg: Option<u64>,
        ord: Ordering,
    ) -> Option<(&Tracked, usize, Ordering)> {
        let t = live(&self.model)?;
        let me = Scheduler::current_tid();
        let arg = arg.map_or(String::new(), |a| format!("{:#x}, ", a));
        t.sched
            .point(me, &format!("{}.{}({}{:?})", t.name, op, arg, ord));
        if t.sched.faulted(op, at) {
            // ordering: the injected downgrade (see `crate::Fault`).
            return Some((t, me, Ordering::Relaxed));
        }
        Some((t, me, ord))
    }

    fn rmw(
        &self,
        at: &Location<'_>,
        op: &str,
        arg: u64,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let site = self.enter(at, op, Some(arg), ord);
        let mut m = relock(&self.meta);
        let old = m.value;
        m.value = f(old);
        if let Some((t, me, ord)) = site {
            t.sched.with_clocks(|clocks| {
                if acquire_half(ord) {
                    join_into(&mut clocks[me], &m.release);
                }
                if release_half(ord) {
                    join_into(&mut m.release, &clocks[me]);
                }
                // A Relaxed RMW continues the release sequence without
                // adding its own clock: `m.release` is left as-is.
            });
        }
        old
    }

    #[track_caller]
    pub fn load(&self, ord: Ordering) -> u64 {
        let site = self.enter(Location::caller(), "load", None, ord);
        let m = relock(&self.meta);
        if let Some((t, me, ord)) = site {
            // Loads never release; only the acquire half applies.
            if acquire_half(ord) {
                t.sched
                    .with_clocks(|clocks| join_into(&mut clocks[me], &m.release));
            }
        }
        m.value
    }

    #[track_caller]
    pub fn store(&self, v: u64, ord: Ordering) {
        let site = self.enter(Location::caller(), "store", Some(v), ord);
        let mut m = relock(&self.meta);
        m.value = v;
        if let Some((t, me, ord)) = site {
            if release_half(ord) {
                // A plain store *replaces* the release clock: it starts
                // a fresh release sequence (unlike an RMW, which
                // continues the old one).
                m.release = t.sched.with_clocks(|clocks| clocks[me].clone());
            } else {
                // A Relaxed store severs the chain entirely.
                m.release.fill(0);
            }
        }
    }

    #[track_caller]
    pub fn fetch_add(&self, n: u64, ord: Ordering) -> u64 {
        self.rmw(Location::caller(), "fetch_add", n, ord, |v| {
            v.wrapping_add(n)
        })
    }

    #[track_caller]
    pub fn fetch_sub(&self, n: u64, ord: Ordering) -> u64 {
        self.rmw(Location::caller(), "fetch_sub", n, ord, |v| {
            v.wrapping_sub(n)
        })
    }

    #[track_caller]
    pub fn fetch_or(&self, n: u64, ord: Ordering) -> u64 {
        self.rmw(Location::caller(), "fetch_or", n, ord, |v| v | n)
    }

    #[track_caller]
    pub fn fetch_and(&self, n: u64, ord: Ordering) -> u64 {
        self.rmw(Location::caller(), "fetch_and", n, ord, |v| v & n)
    }
}

/// An instrumented `usize` atomic (stored as u64).
pub struct AtomicUsize(AtomicU64);

impl AtomicUsize {
    #[track_caller]
    pub fn new(v: usize) -> Self {
        AtomicUsize(AtomicU64::new(v as u64))
    }
    #[track_caller]
    pub fn load(&self, ord: Ordering) -> usize {
        self.0.load(ord) as usize
    }
    #[track_caller]
    pub fn store(&self, v: usize, ord: Ordering) {
        self.0.store(v as u64, ord)
    }
    #[track_caller]
    pub fn fetch_add(&self, n: usize, ord: Ordering) -> usize {
        self.0.fetch_add(n as u64, ord) as usize
    }
}

/// An instrumented boolean atomic.
pub struct AtomicBool(AtomicU64);

impl AtomicBool {
    #[track_caller]
    pub fn new(v: bool) -> Self {
        AtomicBool(AtomicU64::new(v as u64))
    }
    #[track_caller]
    pub fn load(&self, ord: Ordering) -> bool {
        self.0.load(ord) != 0
    }
    #[track_caller]
    pub fn store(&self, v: bool, ord: Ordering) {
        self.0.store(v as u64, ord)
    }
}

struct CellMeta<T> {
    data: T,
    /// Writer tid and its epoch at the last write.
    last_write: Option<(usize, u32)>,
    /// Per-tid epoch of the last read since the last write.
    reads: Vec<u32>,
}

/// Non-atomic shared data with FastTrack-style race detection.
///
/// Stands in for the engine's `UnsafeCell` state (vertex states, the
/// `ActiveSet` lists): every read/write checks that it is ordered
/// after all conflicting accesses, and reports a data race otherwise.
/// Only exists under [`crate::explore`].
pub struct CCell<T> {
    sched: Arc<Scheduler>,
    name: String,
    meta: StdMutex<CellMeta<T>>,
}

impl<T> CCell<T> {
    pub fn new(name: &str, v: T) -> Self {
        let (sched, _) = Scheduler::current();
        let width = sched.with_clocks(|c| c[0].len());
        CCell {
            sched,
            name: name.to_string(),
            meta: StdMutex::new(CellMeta {
                data: v,
                last_write: None,
                reads: vec![0; width],
            }),
        }
    }

    /// Reads through `f`. Races with the previous write if that write
    /// does not happen-before this thread.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let me = Scheduler::current_tid();
        self.sched.point(me, &format!("{}.read", self.name));
        let mut m = relock(&self.meta);
        let (hb, my_epoch) = self.sched.with_clocks(|clocks| {
            let hb = match m.last_write {
                None => true,
                Some((w, e)) => clocks[me][w] >= e,
            };
            (hb, clocks[me][me])
        });
        if !hb {
            let (w, _) = m.last_write.unwrap();
            let msg = format!(
                "`{}`: read by t{} races with write by t{} (no happens-before edge)",
                self.name, me, w
            );
            drop(m);
            self.sched.fail(FailureKind::DataRace(msg));
        }
        m.reads[me] = my_epoch;
        f(&m.data)
    }

    /// Writes through `f`. Races with the previous write *or any read
    /// since it* that does not happen-before this thread.
    pub fn write<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let me = Scheduler::current_tid();
        self.sched.point(me, &format!("{}.write", self.name));
        let mut m = relock(&self.meta);
        let (conflict, my_epoch) = self.sched.with_clocks(|clocks| {
            let mut conflict = None;
            if let Some((w, e)) = m.last_write {
                if clocks[me][w] < e {
                    conflict = Some(w);
                }
            }
            for (t, &e) in m.reads.iter().enumerate() {
                if e != 0 && clocks[me][t] < e {
                    conflict = Some(t);
                }
            }
            (conflict, clocks[me][me])
        });
        if let Some(other) = conflict {
            let msg = format!(
                "`{}`: write by t{} races with access by t{} (no happens-before edge)",
                self.name, me, other
            );
            drop(m);
            self.sched.fail(FailureKind::DataRace(msg));
        }
        m.last_write = Some((me, my_epoch));
        m.reads.fill(0);
        f(&mut m.data)
    }
}

#[derive(Default)]
struct MutexMeta {
    held_by: Option<usize>,
    clock: Vec<u32>,
    /// The last unlocker and its epoch then — what a faulted `lock`,
    /// which acquires nothing, must already be ordered after.
    last: Option<(usize, u32)>,
}

/// An instrumented mutex: blocks scheduler-side, transfers clocks on
/// hand-off.
pub struct Mutex<T> {
    model: Option<Tracked>,
    meta: StdMutex<MutexMeta>,
    data: StdMutex<T>,
}

/// RAII guard for [`Mutex`]; unlocking is itself a schedule point.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    /// `None` once handed to [`Condvar::wait`] or released.
    data: Option<StdGuard<'a, T>>,
}

impl<T> Mutex<T> {
    #[track_caller]
    pub fn new(v: T) -> Self {
        let model = Tracked::new();
        let clock = model.as_ref().map_or(Vec::new(), Tracked::clock);
        Mutex {
            model,
            meta: StdMutex::new(MutexMeta {
                clock,
                ..MutexMeta::default()
            }),
            data: StdMutex::new(v),
        }
    }

    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(t) = live(&self.model) {
            let me = Scheduler::current_tid();
            t.sched.point(me, &format!("{}.lock", t.name));
            self.acquire(t, me, t.sched.faulted("lock", Location::caller()));
        }
        // Uncontended under the scheduler (`held_by` is the model's
        // lock); the real, blocking lock of a plain value.
        MutexGuard {
            mutex: self,
            data: Some(relock(&self.data)),
        }
    }

    /// Takes the model's lock for `me`, who holds a fresh token grant
    /// (`lock` and the re-acquisition after a `wait`). A `faulted`
    /// acquisition neither waits for the holder nor joins its clock:
    /// unless `me` is ordered after the last holder anyway, two
    /// threads are in the critical section unordered — a data race.
    fn acquire(&self, t: &Tracked, me: usize, faulted: bool) {
        loop {
            let mut m = relock(&self.meta);
            if faulted {
                let unordered = m.held_by.or_else(|| {
                    let (w, e) = m.last?;
                    t.sched.with_clocks(|clocks| clocks[me][w] < e).then_some(w)
                });
                if let Some(other) = unordered {
                    drop(m);
                    t.sched.fail(FailureKind::DataRace(format!(
                        "`{}`: t{} entered without the lock, unordered with holder t{}",
                        t.name, me, other
                    )));
                }
                m.held_by = Some(me);
                return;
            }
            if m.held_by.is_none() {
                m.held_by = Some(me);
                t.sched
                    .with_clocks(|clocks| join_into(&mut clocks[me], &m.clock));
                return;
            }
            drop(m);
            let desc = format!("{}.lock (blocked)", t.name);
            t.sched.block_on(me, St::BlockedMutex(t.id), &desc);
        }
    }

    /// Releases the model's lock and wakes blocked lockers; shared by
    /// guard drop and [`Condvar::wait`].
    fn release(&self, t: &Tracked, me: usize) {
        let mut m = relock(&self.meta);
        debug_assert_eq!(m.held_by, Some(me), "unlock by non-owner");
        m.held_by = None;
        t.sched.with_clocks(|clocks| {
            join_into(&mut m.clock, &clocks[me]);
            m.last = Some((me, clocks[me][me]));
        });
        drop(m);
        t.sched.unblock(St::BlockedMutex(t.id));
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard still holds data")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard still holds data")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let (Some(t), true) = (&self.mutex.model, self.data.is_some()) else {
            return; // a plain value (the field drop unlocks), or handed to `wait`
        };
        if std::thread::panicking() {
            // Execution is being torn down; release silently so other
            // unwinding threads are not blocked on the real mutex.
            self.data = None;
            relock(&self.mutex.meta).held_by = None;
            return;
        }
        let me = Scheduler::current_tid();
        t.sched.point(me, &format!("{}.unlock", t.name));
        self.data = None;
        self.mutex.release(t, me);
    }
}

/// An instrumented condition variable. No spurious wakeups — which
/// only *under*-approximates real behaviour, so anything it flags is
/// reachable with a real condvar too. `notify` without a waiter is
/// lost, exactly like the real thing: a missing notify shows up as a
/// deadlock.
pub struct Condvar {
    model: Option<Tracked>,
    real: StdCondvar,
}

impl Default for Condvar {
    #[track_caller]
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    #[track_caller]
    pub fn new() -> Self {
        Condvar {
            model: Tracked::new(),
            real: StdCondvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and blocks until
    /// notified, then re-acquires. Returns the re-acquired guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.park(guard, None)
    }

    /// [`Condvar::wait`] that a timeout ends too — under the scheduler,
    /// once no thread can run (however long `timeout` is).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        self.park(guard, Some(timeout))
    }

    fn park<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, T> {
        let held = guard.data.take().expect("guard still holds data");
        let mutex = guard.mutex;
        let (Some(t), Some(mt)) = (&self.model, &mutex.model) else {
            let woken = match timeout {
                None => self.real.wait(held).unwrap_or_else(|e| e.into_inner()),
                Some(t) => {
                    let timed = self.real.wait_timeout(held, t);
                    timed.unwrap_or_else(|e| e.into_inner()).0
                }
            };
            guard.data = Some(woken);
            return guard;
        };
        let me = Scheduler::current_tid();
        let (op, edge) = match timeout {
            None => ("wait", St::BlockedCond(t.id)),
            Some(_) => ("wait_timeout", St::BlockedTimed(t.id)),
        };
        t.sched.point(me, &format!("{}.{}", t.name, op));
        // Release without a second schedule point: the unlock is part
        // of the wait operation.
        drop(held);
        mutex.release(mt, me);
        let desc = format!("{}.wake", t.name);
        t.sched.block_on(me, edge, &desc);
        mutex.acquire(mt, me, false);
        guard.data = Some(relock(&mutex.data));
        guard
    }

    #[track_caller]
    pub fn notify_all(&self) {
        let Some(t) = live(&self.model) else {
            return self.real.notify_all();
        };
        let me = Scheduler::current_tid();
        t.sched.point(me, &format!("{}.notify_all", t.name));
        if !t.sched.faulted("notify_all", Location::caller()) {
            t.sched.unblock(St::BlockedCond(t.id));
            t.sched.unblock(St::BlockedTimed(t.id));
        }
    }
}
