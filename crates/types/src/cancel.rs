//! Cooperative cancellation and deadlines.
//!
//! A [`CancelToken`] is the handle a serving layer keeps to stop a
//! runaway query: cloning is cheap (one `Arc`), any clone can
//! [`CancelToken::cancel`], and the engine polls
//! [`CancelToken::check`] at iteration boundaries. Cancellation is
//! *cooperative*: nothing is interrupted mid-iteration, so the
//! observable state a cancelled run leaves behind (admission slots,
//! session queues, shared caches) is always a consistent
//! iteration-boundary state.
//!
//! A token may carry a deadline. The deadline is part of the token —
//! not of any configuration struct — so one clock governs both the
//! admission queue wait and the run itself.

use std::sync::Arc;
use std::time::Instant;

use crate::error::{FgError, Result};
use crate::sync::{AtomicBool, Ordering};

/// Why a run stopped before converging — the payload an engine
/// records when a [`CancelToken`] fires at an iteration boundary.
/// Converts into the matching [`FgError`] at the driver layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    DeadlineExpired,
}

impl From<CancelCause> for FgError {
    fn from(c: CancelCause) -> Self {
        match c {
            CancelCause::Cancelled => FgError::Cancelled,
            CancelCause::DeadlineExpired => FgError::DeadlineExpired,
        }
    }
}

/// Shared cancellation flag + optional deadline for one query.
///
/// `Default` builds a token that never fires (no deadline, not
/// cancelled) — the zero-cost stand-in for queries that opted out.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation. Idempotent; takes effect at the
    /// target's next [`CancelToken::check`].
    pub fn cancel(&self) {
        // ordering: Release pairs with the Acquire in `is_cancelled`
        // so a run observing the flag also observes everything the
        // canceller wrote before cancelling. The flag itself carries
        // no payload, but keeping the pair costs nothing on x86 and
        // spares every caller a subtle-publication audit.
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called (ignores the
    /// deadline).
    fn is_cancelled(&self) -> bool {
        // ordering: Acquire pairs with the Release in `cancel`.
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The deadline, when one was attached.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// How long until the deadline, when one was attached. Zero once
    /// it has passed.
    pub fn time_left(&self) -> Option<std::time::Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Polls the token: `Err(FgError::Cancelled)` after an explicit
    /// cancel, `Err(FgError::DeadlineExpired)` past the deadline,
    /// `Ok(())` otherwise. Explicit cancellation wins when both hold
    /// (the caller acted; the clock merely elapsed).
    pub fn check(&self) -> Result<()> {
        match self.cause() {
            None => Ok(()),
            Some(c) => Err(c.into()),
        }
    }

    /// Like [`CancelToken::check`], but as data: the cause that would
    /// make `check` fail right now, or `None`.
    pub fn cause(&self) -> Option<CancelCause> {
        if self.is_cancelled() {
            return Some(CancelCause::Cancelled);
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                return Some(CancelCause::DeadlineExpired);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_token_never_fires() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline(), None);
        assert_eq!(t.time_left(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let peer = t.clone();
        peer.cancel();
        assert!(matches!(t.check(), Err(FgError::Cancelled)));
        // Idempotent.
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(t.check(), Err(FgError::DeadlineExpired)));
        let fresh = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(fresh.check().is_ok());
        assert!(fresh.time_left().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert!(matches!(t.check(), Err(FgError::Cancelled)));
    }
}
