//! Typed server errors with stable wire codes.
//!
//! Every failing request is answered with one `ERR <CODE> <message>` line.
//! The code is a **stable contract**: clients branch on it (see
//! [`ErrorCode`]), while the human-readable message may be
//! reworded freely.  Like every error type in the workspace, the `Display`
//! form is guaranteed newline-free (pinned by `tests/single_line_errors.rs`)
//! so messages ship verbatim as one protocol line.

use std::fmt;

/// A request-level failure, categorised for the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// `INSTANCE` with a name that is already taken (`EEXISTS`).
    InstanceExists {
        /// The requested instance name.
        name: String,
    },
    /// A request named an instance the store does not hold (`ENOINST`).
    UnknownInstance {
        /// The requested instance name.
        name: String,
    },
    /// `UPDATE` named a matrix variable the instance does not bind
    /// (`ENOVAR`).
    UnknownVariable {
        /// The requested variable name.
        var: String,
    },
    /// `EXEC` with a query id that was never returned by `PREPARE`
    /// (`ENOQUERY`).
    UnknownQueryId {
        /// The out-of-range query id.
        qid: usize,
    },
    /// `EXEC` before any `PREPARE` on the instance (`ENOPREP`).
    NoPreparedQueries,
    /// The query text failed to parse (`EPARSE`).
    Parse {
        /// The parser's message.
        message: String,
    },
    /// The query text failed to type-check (`ETYPE`).
    Type {
        /// The type checker's message.
        message: String,
    },
    /// Evaluation failed at runtime (`EEVAL`).
    Eval {
        /// The evaluator's message.
        message: String,
    },
    /// A storage-layer operation failed — bad shapes, out-of-bounds
    /// entries, unassigned size symbols (`ESTORE`).
    Storage {
        /// The storage layer's message.
        message: String,
    },
    /// The request line itself was malformed or arrived out of protocol
    /// (`EPROTO`).
    Protocol {
        /// What was wrong with the request.
        message: String,
    },
    /// A request or `LOAD` entry line was longer than the server buffers
    /// (`ETOOBIG`); it was discarded unread and the session carries on.
    /// The cap is [`crate::protocol::MAX_LINE_BYTES`].
    LineTooLong,
}

/// The stable error category of a failed request, as a client sees it:
/// one per wire code of [`ServerError::code`], plus the client-local
/// failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// `EEXISTS` — the instance name is already taken.
    InstanceExists,
    /// `ENOINST` — no such instance.
    UnknownInstance,
    /// `ENOVAR` — no such matrix variable.
    UnknownVariable,
    /// `ENOQUERY` — no such prepared query id.
    UnknownQueryId,
    /// `ENOPREP` — `EXEC` before any `PREPARE`.
    NoPreparedQueries,
    /// `EPARSE` — the query text failed to parse.
    Parse,
    /// `ETYPE` — the query text failed to type-check.
    Type,
    /// `EEVAL` — evaluation failed at runtime.
    Eval,
    /// `ESTORE` — a storage-layer operation failed.
    Storage,
    /// `EPROTO` — the request was malformed or out of protocol.
    Protocol,
    /// `ETOOBIG` — a line was longer than the server buffers.
    TooBig,
    /// A local I/O failure — the socket, not the server, failed.
    Io,
    /// The server's reply did not match the protocol grammar.
    Malformed,
    /// An `ERR` code this client version does not know (a newer server).
    Unknown,
}

/// Every wire error code and its category: the one table both
/// [`ServerError::code`] and [`ErrorCode::from_wire`] read.
const WIRE_CODES: [(ErrorCode, &str); 11] = [
    (ErrorCode::InstanceExists, "EEXISTS"),
    (ErrorCode::UnknownInstance, "ENOINST"),
    (ErrorCode::UnknownVariable, "ENOVAR"),
    (ErrorCode::UnknownQueryId, "ENOQUERY"),
    (ErrorCode::NoPreparedQueries, "ENOPREP"),
    (ErrorCode::Parse, "EPARSE"),
    (ErrorCode::Type, "ETYPE"),
    (ErrorCode::Eval, "EEVAL"),
    (ErrorCode::Storage, "ESTORE"),
    (ErrorCode::Protocol, "EPROTO"),
    (ErrorCode::TooBig, "ETOOBIG"),
];

impl ErrorCode {
    /// Maps a wire code token to its category, if this client knows it.
    pub fn from_wire(code: &str) -> Option<ErrorCode> {
        WIRE_CODES
            .iter()
            .find(|(_, wire)| *wire == code)
            .map(|&(category, _)| category)
    }
}

impl ServerError {
    /// The category a client reads this error as.
    pub(crate) fn category(&self) -> ErrorCode {
        match self {
            ServerError::InstanceExists { .. } => ErrorCode::InstanceExists,
            ServerError::UnknownInstance { .. } => ErrorCode::UnknownInstance,
            ServerError::UnknownVariable { .. } => ErrorCode::UnknownVariable,
            ServerError::UnknownQueryId { .. } => ErrorCode::UnknownQueryId,
            ServerError::NoPreparedQueries => ErrorCode::NoPreparedQueries,
            ServerError::Parse { .. } => ErrorCode::Parse,
            ServerError::Type { .. } => ErrorCode::Type,
            ServerError::Eval { .. } => ErrorCode::Eval,
            ServerError::Storage { .. } => ErrorCode::Storage,
            ServerError::Protocol { .. } => ErrorCode::Protocol,
            ServerError::LineTooLong => ErrorCode::TooBig,
        }
    }

    /// The stable, whitespace-free wire code for this error category.
    pub fn code(&self) -> &'static str {
        let category = self.category();
        WIRE_CODES
            .iter()
            .find(|(code, _)| *code == category)
            .map(|&(_, wire)| wire)
            .expect("every server error category has a wire code")
    }

    /// Shorthand for a protocol-level error.
    pub fn protocol(message: impl Into<String>) -> ServerError {
        ServerError::Protocol {
            message: message.into(),
        }
    }

    /// Shorthand for a storage-level error.
    pub fn storage(message: impl Into<String>) -> ServerError {
        ServerError::Storage {
            message: message.into(),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::InstanceExists { name } => {
                write!(f, "instance `{name}` already exists")
            }
            ServerError::UnknownInstance { name } => write!(f, "unknown instance `{name}`"),
            ServerError::UnknownVariable { var } => write!(f, "unknown variable `{var}`"),
            ServerError::UnknownQueryId { qid } => write!(f, "unknown query id {qid}"),
            ServerError::NoPreparedQueries => {
                write!(f, "no prepared queries on this instance")
            }
            ServerError::Parse { message } => write!(f, "parse error: {message}"),
            ServerError::Type { message } => write!(f, "type error: {message}"),
            ServerError::Eval { message } => write!(f, "eval error: {message}"),
            ServerError::Storage { message } => write!(f, "{message}"),
            ServerError::Protocol { message } => write!(f, "{message}"),
            ServerError::LineTooLong => {
                write!(f, "line exceeds {} bytes", crate::protocol::MAX_LINE_BYTES)
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// A snapshot or WAL that cannot be used is a storage failure.
impl From<crate::persist::PersistError> for ServerError {
    fn from(e: crate::persist::PersistError) -> Self {
        ServerError::storage(e.to_string())
    }
}

/// A matrix shape or bounds violation is a storage failure.
impl From<matlang_matrix::MatrixError> for ServerError {
    fn from(e: matlang_matrix::MatrixError) -> Self {
        ServerError::storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_single_tokens() {
        let all = [
            ServerError::InstanceExists { name: "g".into() },
            ServerError::UnknownInstance { name: "g".into() },
            ServerError::UnknownVariable { var: "G".into() },
            ServerError::UnknownQueryId { qid: 9 },
            ServerError::NoPreparedQueries,
            ServerError::Parse {
                message: "x".into(),
            },
            ServerError::Type {
                message: "x".into(),
            },
            ServerError::Eval {
                message: "x".into(),
            },
            ServerError::storage("x"),
            ServerError::protocol("x"),
            ServerError::LineTooLong,
        ];
        let codes: Vec<&str> = all.iter().map(ServerError::code).collect();
        assert_eq!(
            codes,
            vec![
                "EEXISTS", "ENOINST", "ENOVAR", "ENOQUERY", "ENOPREP", "EPARSE", "ETYPE", "EEVAL",
                "ESTORE", "EPROTO", "ETOOBIG",
            ]
        );
        for (e, code) in all.iter().zip(&codes) {
            assert!(!code.contains(char::is_whitespace));
            assert!(!e.to_string().contains('\n'), "single-line Display");
        }
    }
}
