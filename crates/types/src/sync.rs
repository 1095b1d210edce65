//! The workspace's single gateway to `std::sync`: atomics, locks and
//! channels.
//!
//! Every crate in the workspace that needs an atomic, a mutex, a
//! reader-writer lock, a condition variable or a channel imports it
//! from here instead of from `std` — `fg_check --lint` rejects raw
//! `std::sync::atomic` paths outside `fg_types`, and raw
//! `std::sync::{Mutex, RwLock, Condvar, mpsc}` paths in the shipped
//! library crates. Funnelling the imports through one module keeps
//! the audit surface in one place: the lint then only has to police
//! *orderings* (every `Ordering::Relaxed`/`Ordering::SeqCst` site
//! needs an `// ordering:` justification) and `unsafe` hygiene, and
//! there is one answer to "what happens to this lock when its holder
//! panics".
//!
//! That answer: [`Mutex`], [`RwLock`] and [`Condvar`] **never
//! poison**. A holder that panicked leaves the state as its last
//! completed statement left it, the next `lock()` returns it, and
//! what a dead peer means is the protocol's business (`Rendezvous`
//! has a flag for it; the admission gate's `Permit` releases its slot
//! on unwind). A critical section must therefore keep its data valid
//! at every statement that can panic — each lock site whose section
//! calls out to foreign code says how it does.
//!
//! They are also what lets the checker read the code that ships: a
//! protocol written against nothing but this module
//! (`super::sync::…`) is one `fg_check` can compile, unchanged,
//! against its instrumented doubles and explore as shipped —
//! `AtomicBitmap`, the engine's `ReadyPool`, its `Rendezvous`, the
//! serving layer's admission `Gate` and SAFS's in-flight read table
//! are.
//!
//! [`channel`] is `std::sync::mpsc` under the three names SAFS uses;
//! `fg_check`'s double of it carries a message's clock from its send
//! to its receive, which is what lets the read-dedup table's fan-out
//! be explored over the shipped table.
//!
//! [`Counter`] exists because by far the most common atomic in this
//! workspace is a monotonic statistic (I/O counters, cache counters,
//! per-run engine counters) whose contract is always the same:
//! exact under concurrent RMW updates, read either racily (progress
//! reporting) or at a quiesced point (barriers, joins) where the
//! happens-before edge comes from the synchronization structure that
//! created the quiesce, not from the counter itself. Encoding that
//! contract once here removes ~100 per-site `Ordering::Relaxed`
//! tokens from the rest of the workspace.

// ordering: this is the one sanctioned raw `std::sync::atomic` import
// of the workspace (see module docs); everything below justifies its
// own orderings.
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// The one poison policy: take what the lock holds, whoever died
/// holding it (module docs).
fn unpoisoned<G>(locked: std::sync::LockResult<G>) -> G {
    locked.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A mutex whose `lock` returns the guard, poisoned or not.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// RAII guard of a [`Mutex`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        unpoisoned(self.0.lock())
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        unpoisoned(self.0.into_inner())
    }
}

/// A reader-writer lock whose `read` / `write` return the guard,
/// poisoned or not.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

/// RAII read guard of a [`RwLock`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// RAII write guard of a [`RwLock`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires a shared read lock.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        unpoisoned(self.0.read())
    }

    /// Acquires the exclusive write lock.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        unpoisoned(self.0.write())
    }
}

/// A condition variable over [`Mutex`] guards.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Releases `guard`'s mutex, blocks until notified (or woken
    /// spuriously) and returns the re-acquired guard.
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        unpoisoned(self.0.wait(guard))
    }

    /// [`Condvar::wait`] that also returns once `timeout` has passed.
    /// Which of the two happened is not reported: like any condvar
    /// wait this one can wake spuriously, so the caller re-checks its
    /// predicate — and its clock — either way.
    #[inline]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> MutexGuard<'a, T> {
        unpoisoned(self.0.wait_timeout(guard, timeout)).0
    }

    /// Wakes every thread blocked in [`Condvar::wait`] or
    /// [`Condvar::wait_timeout`].
    #[inline]
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Unbounded multi-producer, single-consumer channels: SAFS's
/// one-receiver-per-I/O-thread and one-receiver-per-session topology.
/// A peer that is gone is a protocol state here too — `send` and
/// `recv` return `Err`, they never panic or poison.
pub mod channel {
    pub use std::sync::mpsc::{Receiver, Sender};

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

/// A relaxed statistics counter.
///
/// All operations are atomic read-modify-writes (or plain loads and
/// stores), so concurrent updates never lose increments — atomicity
/// is an RMW property, independent of memory ordering. What `Relaxed`
/// gives up is *publication*: reading a `Counter` does not establish
/// a happens-before edge with its writers. That is the contract:
/// counters are statistics, and every exact read in the workspace
/// happens at a point that is already synchronized by other means
/// (an iteration barrier, a thread join, a quiesced engine).
///
/// Do **not** use a `Counter` as a control-flow gate between threads
/// (termination votes, obligation counts): those need acquire/release
/// pairs and live as explicit atomics with `// ordering:` comments —
/// and have models in the `fg_check` crate proving their protocol.
///
/// # Example
///
/// ```
/// use fg_types::sync::Counter;
///
/// let c = Counter::new(0);
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter holding `v`.
    pub const fn new(v: u64) -> Self {
        Counter(AtomicU64::new(v))
    }

    /// Adds `n`, returning the new value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        // ordering: statistic, exactness comes from RMW atomicity; see
        // the type-level contract.
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Adds one, returning the new value.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Subtracts `n`, returning the new value. Wraps like
    /// `fetch_sub`; use [`Counter::dec_saturating`] for gauges that
    /// may see unpaired decrements.
    #[inline]
    pub fn sub(&self, n: u64) -> u64 {
        // ordering: statistic; see the type-level contract.
        self.0.fetch_sub(n, Ordering::Relaxed) - n
    }

    /// Subtracts one, clamping at zero, and returns the *previous*
    /// value (the shape gauge-style callers need to sample the level
    /// they just left).
    #[inline]
    pub fn dec_saturating(&self) -> u64 {
        self.0
            // ordering: statistic; see the type-level contract.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            })
            .expect("update closure never fails")
    }

    /// Raises the counter to at least `v` (a high-watermark).
    #[inline]
    pub fn max(&self, v: u64) {
        // ordering: statistic; see the type-level contract.
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value. Exact only at externally synchronized points;
    /// see the type-level contract.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: statistic; see the type-level contract.
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (reset between measured phases).
    #[inline]
    pub fn set(&self, v: u64) {
        // ordering: statistic; see the type-level contract.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Consumes the counter, returning the final value (exact: sole
    /// ownership proves all writers are done).
    #[inline]
    pub fn into_inner(self) -> u64 {
        self.0.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_arithmetic() {
        let c = Counter::new(5);
        assert_eq!(c.add(10), 15);
        assert_eq!(c.inc(), 16);
        assert_eq!(c.sub(6), 10);
        c.max(3);
        assert_eq!(c.get(), 10, "max never lowers");
        c.max(12);
        assert_eq!(c.get(), 12);
        c.set(0);
        assert_eq!(c.dec_saturating(), 0, "returns previous, clamped");
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn a_panicking_holder_does_not_poison_the_mutex() {
        let m = Mutex::new(7);
        let died = std::thread::scope(|s| {
            let holder = s.spawn(|| {
                *m.lock() = 8;
                let _held = m.lock();
                panic!("holder dies with the lock");
            });
            holder.join()
        });
        assert!(died.is_err());
        assert_eq!(*m.lock(), 8, "the next lock() returns the inner state");
    }

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn lock_survives_holder_panic() {
        let (m, l) = (Mutex::new(7), RwLock::new(7));
        let died = std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let (_m, mut w) = (m.lock(), l.write());
                *w = 8;
                panic!("poison both");
            });
            holder.join()
        });
        assert!(died.is_err());
        assert_eq!(*m.lock(), 7);
        assert_eq!(*l.read(), 8, "readers see the dead writer's last store");
        *l.write() += 1;
        assert_eq!((*l.read(), m.into_inner()), (9, 7));
    }

    #[test]
    fn send_recv_try_recv() {
        let (tx, rx) = channel::unbounded();
        tx.send(5).unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
        assert!(rx.try_recv().is_err());
        let tx2 = tx.clone();
        tx2.send(6).unwrap();
        drop((tx, tx2));
        assert_eq!(rx.try_recv().unwrap(), 6);
        assert!(rx.recv().is_err(), "closed after all senders dropped");
    }

    #[test]
    fn wait_timeout_returns_without_a_notify() {
        let (m, cv) = (Mutex::new(0u32), Condvar::new());
        let g = cv.wait_timeout(m.lock(), std::time::Duration::from_millis(1));
        assert_eq!(*g, 0, "the guard handed back still guards `m`");
    }

    #[test]
    fn condvar_wait_returns_its_guard_and_wakes_on_notify_all() {
        let (m, cv) = (Mutex::new(0u32), Condvar::new());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut g = m.lock();
                while *g == 0 {
                    g = cv.wait(g);
                }
                *g += 1; // the guard handed back still guards `m`
            });
            *m.lock() = 41;
            cv.notify_all();
            waiter.join().unwrap();
        });
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn counter_is_exact_under_contention() {
        let c = std::sync::Arc::new(Counter::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Exactness holds despite Relaxed: RMWs are atomic, and the
        // joins above provide the happens-before edge for this read.
        assert_eq!(c.get(), 80_000);
    }
}
