//! Per-request service errors.
//!
//! A batch never fails wholesale: each request resolves to
//! `Result<_, ServiceError>` so one malformed target cannot poison a
//! thousand-circuit batch. Errors are `Clone` because one failed cold
//! synthesis may have to be reported to every request that deduplicated
//! onto the same class.

use std::fmt;

/// Why one request in a batch could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The target is not a 4×4 unitary (or the circuit is structurally
    /// unusable: overlapping pair, wire out of range).
    InvalidRequest {
        /// What was wrong.
        detail: String,
    },
    /// Cold synthesis of the request's Weyl class failed.
    Synth {
        /// The underlying [`ashn_ir::SynthError`], rendered.
        detail: String,
    },
    /// Routing or IR assembly failed.
    Assembly {
        /// The underlying error, rendered.
        detail: String,
    },
    /// The optimizer pipeline failed.
    Opt {
        /// The underlying [`ashn_opt::OptError`], rendered.
        detail: String,
    },
    /// The request's grid cannot hold its circuit.
    Config {
        /// What was wrong.
        detail: String,
    },
    /// A worker panicked while processing this request, and neither the
    /// serial repair pass nor the degradation tier could produce a circuit.
    WorkerPanic {
        /// The panic message, when it was a string.
        detail: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidRequest { detail } => write!(f, "invalid request: {detail}"),
            ServiceError::Synth { detail } => write!(f, "synthesis failed: {detail}"),
            ServiceError::Assembly { detail } => write!(f, "assembly failed: {detail}"),
            ServiceError::Opt { detail } => write!(f, "optimization failed: {detail}"),
            ServiceError::Config { detail } => write!(f, "configuration error: {detail}"),
            ServiceError::WorkerPanic { detail } => write!(f, "worker panicked: {detail}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ashn_ir::SynthError> for ServiceError {
    fn from(e: ashn_ir::SynthError) -> Self {
        ServiceError::Synth {
            detail: e.to_string(),
        }
    }
}

impl From<ashn_ir::IrError> for ServiceError {
    fn from(e: ashn_ir::IrError) -> Self {
        ServiceError::Assembly {
            detail: e.to_string(),
        }
    }
}

impl From<ashn_opt::OptError> for ServiceError {
    fn from(e: ashn_opt::OptError) -> Self {
        ServiceError::Opt {
            detail: e.to_string(),
        }
    }
}

/// An undersized grid is a configuration error, an unroutable instruction
/// an invalid request, and an embedding failure an assembly error.
impl From<ashn_route::RouteError> for ServiceError {
    fn from(e: ashn_route::RouteError) -> Self {
        use ashn_route::RouteError;
        let detail = e.to_string();
        match e {
            RouteError::GridTooSmall { .. } => ServiceError::Config { detail },
            RouteError::BadWires { .. } | RouteError::TooWide { .. } => {
                ServiceError::InvalidRequest { detail }
            }
            RouteError::Ir(_) => ServiceError::Assembly { detail },
        }
    }
}
