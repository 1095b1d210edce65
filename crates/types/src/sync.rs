//! The workspace's single gateway to `std::sync::atomic`.
//!
//! Every crate in the workspace that needs an atomic imports it from
//! here instead of from `std` — `fg_check --lint` rejects raw
//! `std::sync::atomic` paths outside `fg_types`. Funnelling the
//! imports through one module keeps the audit surface in one place:
//! the lint then only has to police *orderings* (every
//! `Ordering::Relaxed`/`Ordering::SeqCst` site needs an
//! `// ordering:` justification) and `unsafe` hygiene.
//!
//! [`Mutex`] and [`Condvar`] are here for the same reason: a protocol
//! written against nothing but this module (`super::sync::…`) is one
//! `fg_check` can compile, unchanged, against its instrumented
//! doubles and explore as shipped — `AtomicBitmap`, the engine's
//! `ReadyPool` and its `Rendezvous` are. Neither poisons: a holder
//! that panicked leaves the state as it was, and what a dead peer
//! means is the protocol's business (`Rendezvous` has a flag for it).
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
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
        self.0
            .wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wakes every thread blocked in [`Condvar::wait`].
    #[inline]
    pub fn notify_all(&self) {
        self.0.notify_all();
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
