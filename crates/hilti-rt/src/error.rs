//! Runtime errors, mirroring HILTI's exception model (§3.2).
//!
//! HILTI instructions validate their operands and raise well-defined
//! exceptions instead of exhibiting undefined behaviour (§7 "Safe Execution
//! Environment"). At the runtime-library level every fallible operation
//! returns an [`RtError`] whose [`ExceptionKind`] corresponds to one of the
//! exception types the abstract machine exposes to programs (e.g.
//! `Hilti::IndexError` in Figure 5 of the paper).

use std::borrow::Cow;
use std::fmt;

/// The exception classes the HILTI runtime can raise.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExceptionKind {
    /// Lookup of a missing element (`Hilti::IndexError`).
    IndexError,
    /// Malformed value or operand (bad literal, bad conversion).
    ValueError,
    /// Arithmetic fault: division by zero, overflow in checked ops.
    ArithmeticError,
    /// Iterator moved outside its container or the container changed.
    InvalidIterator,
    /// `bytes` operation needed data past the frozen end of input.
    WouldBlock,
    /// Operation on a frozen/finalized object that forbids it.
    Frozen,
    /// Pattern-compilation or matching fault in the regexp engine.
    PatternError,
    /// Channel operation on a closed/empty channel that cannot proceed.
    ChannelError,
    /// Type-confusion detected at runtime (engine bug or unchecked input).
    TypeError,
    /// Resource exhaustion (e.g. container hit a hard size cap).
    ResourceExhausted,
    /// I/O failure in `file`/`iosrc` functionality.
    IoError,
    /// Generic runtime error raised by host applications.
    RuntimeError,
}

impl ExceptionKind {
    /// The HILTI-level name of the exception type, as programs see it.
    pub fn name(&self) -> &'static str {
        match self {
            ExceptionKind::IndexError => "Hilti::IndexError",
            ExceptionKind::ValueError => "Hilti::ValueError",
            ExceptionKind::ArithmeticError => "Hilti::ArithmeticError",
            ExceptionKind::InvalidIterator => "Hilti::InvalidIterator",
            ExceptionKind::WouldBlock => "Hilti::WouldBlock",
            ExceptionKind::Frozen => "Hilti::Frozen",
            ExceptionKind::PatternError => "Hilti::PatternError",
            ExceptionKind::ChannelError => "Hilti::ChannelError",
            ExceptionKind::TypeError => "Hilti::TypeError",
            ExceptionKind::ResourceExhausted => "Hilti::ResourceExhausted",
            ExceptionKind::IoError => "Hilti::IoError",
            ExceptionKind::RuntimeError => "Hilti::RuntimeError",
        }
    }
}

impl fmt::Display for ExceptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime error: an exception kind plus a human-readable message.
///
/// The message is a `Cow` so that errors raised with a literal — the
/// per-packet ones a `catch` drops again at once, like the classifier's
/// "no matching rule" — cost no allocation; `format!`ed messages are owned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RtError {
    pub kind: ExceptionKind,
    pub message: Cow<'static, str>,
}

impl RtError {
    pub fn new(kind: ExceptionKind, message: impl Into<Cow<'static, str>>) -> Self {
        RtError {
            kind,
            message: message.into(),
        }
    }

    pub fn index(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::IndexError, message)
    }

    pub fn value(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::ValueError, message)
    }

    pub fn arithmetic(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::ArithmeticError, message)
    }

    pub fn would_block() -> Self {
        Self::new(ExceptionKind::WouldBlock, "insufficient input")
    }

    pub fn frozen(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::Frozen, message)
    }

    pub fn pattern(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::PatternError, message)
    }

    pub fn type_error(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::TypeError, message)
    }

    pub fn io(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::IoError, message)
    }

    pub fn runtime(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::RuntimeError, message)
    }

    pub fn resource_exhausted(message: impl Into<Cow<'static, str>>) -> Self {
        Self::new(ExceptionKind::ResourceExhausted, message)
    }
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for RtError {}

/// Convenience alias used throughout the runtime.
pub type RtResult<T> = Result<T, RtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = RtError::index("no such element");
        assert_eq!(e.to_string(), "Hilti::IndexError: no such element");
    }

    #[test]
    fn kind_names_are_namespaced() {
        assert_eq!(ExceptionKind::WouldBlock.name(), "Hilti::WouldBlock");
        assert_eq!(ExceptionKind::PatternError.name(), "Hilti::PatternError");
    }

    #[test]
    fn constructors_set_kinds() {
        assert_eq!(RtError::would_block().kind, ExceptionKind::WouldBlock);
        assert_eq!(RtError::value("x").kind, ExceptionKind::ValueError);
        assert_eq!(RtError::io("x").kind, ExceptionKind::IoError);
    }
}
