//! Workspace-wide error type.
//!
//! Every layer (parsing, analysis, storage, evaluation, runtime, rewriting)
//! reports failures through the single [`Error`] enum so that callers at the
//! public API boundary handle one type.

use std::fmt;

/// Convenient alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// All failures the library can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexical or syntactic error while parsing Datalog source.
    Parse {
        /// 1-based line of the offending token.
        line: u32,
        /// 1-based column of the offending token.
        column: u32,
        /// Human-readable description.
        message: String,
    },
    /// Static analysis rejected the program (unsafe rule, head base
    /// predicate, arity clash, ...).
    Analysis(String),
    /// A program was not in the shape a transformation requires
    /// (e.g. not a linear sirup).
    Shape(String),
    /// A discriminating sequence/function failed validation
    /// (e.g. variables not appearing in the rule body).
    Discriminator(String),
    /// Storage-level failure (unknown relation, arity mismatch on insert).
    Storage(String),
    /// Evaluation failure (plan compilation, unbound variable at runtime).
    Eval(String),
    /// Parallel runtime failure (worker panic, channel breakage).
    Runtime(String),
    /// A processor program's rule heads an outgoing channel or the
    /// processor's own inbox but is not a pure selection, so the runtime
    /// cannot route it.
    Route {
        /// The processor whose program holds the rule.
        processor: usize,
        /// The rule's index in that program.
        rule: usize,
        /// The rule, pretty-printed.
        text: String,
        /// Why the rule is not a pure selection.
        reason: String,
    },
}

impl Error {
    /// Construct a parse error.
    pub fn parse(line: u32, column: u32, message: impl Into<String>) -> Self {
        Error::Parse {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            Error::Analysis(m) => write!(f, "analysis error: {m}"),
            Error::Shape(m) => write!(f, "program shape error: {m}"),
            Error::Discriminator(m) => write!(f, "discriminator error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Runtime(m) => write!(f, "runtime error: {m}"),
            Error::Route {
                processor,
                rule,
                text,
                reason,
            } => write!(
                f,
                "routing error: processor {processor} rule #{rule} `{text}`: {reason}"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_error_includes_location() {
        let e = Error::parse(3, 14, "unexpected ')'");
        assert_eq!(e.to_string(), "parse error at 3:14: unexpected ')'");
    }

    #[test]
    fn display_variants() {
        assert!(Error::Analysis("x".into()).to_string().contains("analysis"));
        assert!(Error::Shape("x".into()).to_string().contains("shape"));
        assert!(Error::Discriminator("x".into())
            .to_string()
            .contains("discriminator"));
        assert!(Error::Storage("x".into()).to_string().contains("storage"));
        assert!(Error::Eval("x".into()).to_string().contains("evaluation"));
        assert!(Error::Runtime("x".into()).to_string().contains("runtime"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
