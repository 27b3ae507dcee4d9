//! The library's error type: every recoverable failure of the public
//! API surfaces as a [`TapiocaError`] instead of a panic.
//!
//! The contract (see `CONTRIBUTING.md`): public functions return
//! [`Result`] for invalid configuration, I/O failure, and degraded
//! recovery. Panics are reserved for *caller protocol bugs*
//! that would otherwise deadlock the collective (e.g. finalizing with
//! declared-but-never-issued writes), and are documented per function.

use tapioca_mpi::IoError;

/// `Result` specialized to [`TapiocaError`].
pub type Result<T> = std::result::Result<T, TapiocaError>;

/// Why a TAPIOCA operation failed.
#[non_exhaustive]
#[derive(Debug)]
pub enum TapiocaError {
    /// The configuration (or a call argument) violates an invariant.
    InvalidConfig(String),
    /// A file operation failed after `attempts` tries.
    Io {
        /// The failing operation (e.g. `"iwrite_at"`).
        op: &'static str,
        /// Attempts made before giving up.
        attempts: u32,
        /// The underlying OS error of the last attempt.
        source: std::io::Error,
    },
    /// A partition's aggregator failed and could not be replaced.
    AggregatorFailed {
        /// Global rank of the failed aggregator.
        rank: usize,
        /// Pipeline round at which it failed.
        round: u32,
    },
    /// A partition fell back to direct per-rank writes after its retry
    /// budget was exhausted. The data is durable, but the collective
    /// optimization was lost.
    Degraded {
        /// The degraded partition.
        partition: u32,
        /// First round written directly.
        round: u32,
    },
}

impl std::fmt::Display for TapiocaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TapiocaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TapiocaError::Io { op, attempts, source } => {
                write!(f, "{op} failed after {attempts} attempts: {source}")
            }
            TapiocaError::AggregatorFailed { rank, round } => {
                write!(f, "aggregator rank {rank} failed at round {round}")
            }
            TapiocaError::Degraded { partition, round } => {
                write!(f, "partition {partition} degraded to direct writes at round {round}")
            }
        }
    }
}

impl std::error::Error for TapiocaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TapiocaError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<IoError> for TapiocaError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Exhausted { op, attempts, kind, msg } => TapiocaError::Io {
                op,
                attempts,
                source: std::io::Error::new(kind, msg),
            },
            IoError::Disconnected { op } => TapiocaError::Io {
                op,
                attempts: 0,
                source: std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "I/O worker disconnected",
                ),
            },
        }
    }
}

/// Shorthand for I/O errors from one-shot (single-attempt) operations.
pub(crate) fn io_err(op: &'static str, source: std::io::Error) -> TapiocaError {
    TapiocaError::Io { op, attempts: 1, source }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = TapiocaError::InvalidConfig("zero aggregators".into());
        assert!(e.to_string().contains("zero aggregators"));
        let e = TapiocaError::Degraded { partition: 3, round: 1 };
        assert!(e.to_string().contains("partition 3"));
        let e: TapiocaError = IoError::Disconnected { op: "iwrite_at" }.into();
        assert!(e.to_string().contains("iwrite_at") && e.to_string().contains("disconnected"));
    }

    #[test]
    fn io_variant_chains_source() {
        use std::error::Error;
        let e: TapiocaError = IoError::Exhausted {
            op: "iwrite_at",
            attempts: 4,
            kind: std::io::ErrorKind::Interrupted,
            msg: "injected".into(),
        }
        .into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("4 attempts"));
    }
}
