//! The workspace-wide error type.

use std::fmt;
use std::io;

/// Convenience alias used across the FlashGraph workspace.
pub type Result<T> = std::result::Result<T, FgError>;

/// Errors surfaced by the FlashGraph reproduction crates.
///
/// The variants are intentionally coarse: components report *what
/// kind* of thing failed plus a human-readable detail string, which
/// mirrors how a storage system reports failures upward.
#[derive(Debug)]
pub enum FgError {
    /// An operation referenced a vertex outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending id.
        vertex: u64,
        /// Number of vertices in the graph.
        num_vertices: u64,
    },
    /// An on-disk image failed validation (bad magic, truncated
    /// section, inconsistent counts...).
    CorruptImage(String),
    /// A configuration value is unusable (zero page size, zero SSDs...).
    InvalidConfig(String),
    /// An I/O request was malformed (zero length, out of device bounds...).
    InvalidRequest(String),
    /// The underlying operating-system I/O failed.
    Io(io::Error),
    /// A graph algorithm was asked to run on input it does not support.
    Unsupported(String),
    /// The query was cancelled cooperatively (its
    /// [`crate::CancelToken`] was triggered) before it converged. Any
    /// partial results are consistent but incomplete.
    Cancelled,
    /// The query's deadline passed — either while it waited for
    /// admission or between iterations of its run.
    DeadlineExpired,
    /// A vertex-program callback (or the engine under it) panicked on
    /// a worker thread; the run was abandoned after every thread
    /// joined. Carries the panic message.
    WorkerPanicked(String),
}

impl fmt::Display for FgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FgError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph with {num_vertices} vertices"
            ),
            FgError::CorruptImage(msg) => write!(f, "corrupt graph image: {msg}"),
            FgError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            FgError::InvalidRequest(msg) => write!(f, "invalid I/O request: {msg}"),
            FgError::Io(e) => write!(f, "i/o error: {e}"),
            FgError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            FgError::Cancelled => write!(f, "query cancelled before completion"),
            FgError::DeadlineExpired => write!(f, "query deadline expired"),
            FgError::WorkerPanicked(msg) => write!(f, "worker thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for FgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FgError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FgError {
    fn from(e: io::Error) -> Self {
        FgError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = FgError::VertexOutOfRange {
            vertex: 10,
            num_vertices: 5,
        };
        assert_eq!(
            e.to_string(),
            "vertex 10 out of range for graph with 5 vertices"
        );
        assert!(FgError::CorruptImage("bad magic".into())
            .to_string()
            .contains("bad magic"));
        assert!(FgError::Cancelled.to_string().contains("cancelled"));
        assert!(FgError::DeadlineExpired.to_string().contains("deadline"));
    }

    #[test]
    fn io_error_round_trips_as_source() {
        let inner = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e = FgError::from(inner);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FgError>();
    }
}
