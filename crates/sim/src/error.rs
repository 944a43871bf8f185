use std::error::Error;
use std::fmt;

use mis_digital::SimError;

/// Errors produced while parsing, validating or lowering a `.bench`
/// netlist. Every malformed-input class has its own variant so callers
/// (and the error-path tests) can tell a syntax slip from a semantic
/// violation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BenchError {
    /// A line that is neither a directive, a gate definition nor a
    /// comment — or a definition with broken call syntax.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the violation.
        reason: String,
    },
    /// A gate definition names a function the simulator does not model
    /// (e.g. `DFF` — the engine is purely combinational).
    UnknownFunction {
        /// 1-based line number.
        line: usize,
        /// The offending function name, as written.
        name: String,
    },
    /// A function applied to the wrong number of operands (unary `NOT`/
    /// `BUFF` need exactly one input, every other function at least two).
    BadArity {
        /// 1-based line number.
        line: usize,
        /// Canonical function name.
        function: String,
        /// Operand count found.
        count: usize,
    },
    /// A signal defined twice — two gate definitions, two `INPUT`
    /// declarations, or a gate driving a declared input.
    Duplicate {
        /// 1-based line number of the second definition.
        line: usize,
        /// The redefined signal.
        name: String,
    },
    /// A referenced signal (gate operand or `OUTPUT` declaration) that no
    /// `INPUT` declaration or gate definition produces.
    Undefined {
        /// 1-based line number of the first reference (the gate or
        /// `OUTPUT` declaration naming the dangling signal).
        line: usize,
        /// The dangling signal name.
        name: String,
    },
    /// The definitions contain a combinational cycle; `name` is the
    /// first gate in file order that is on, or downstream of, it.
    Cycle {
        /// 1-based line number of that gate's definition.
        line: usize,
        /// The gate's output signal.
        name: String,
    },
    /// The netlist declares no primary inputs at all (an empty or
    /// comment-only file).
    Empty,
    /// Lowering onto a [`mis_digital::Network`] failed (defensive: the
    /// parser validates everything the builder checks).
    Build(SimError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Syntax { line, reason } => {
                write!(f, "bench syntax error on line {line}: {reason}")
            }
            BenchError::UnknownFunction { line, name } => {
                write!(f, "line {line}: unknown gate function '{name}'")
            }
            BenchError::BadArity {
                line,
                function,
                count,
            } => write!(f, "line {line}: {function} applied to {count} operand(s)"),
            BenchError::Duplicate { line, name } => {
                write!(f, "line {line}: signal '{name}' defined more than once")
            }
            BenchError::Undefined { line, name } => {
                write!(
                    f,
                    "line {line}: signal '{name}' is referenced but never defined"
                )
            }
            BenchError::Cycle { line, name } => {
                write!(
                    f,
                    "line {line}: combinational cycle through signal '{name}'"
                )
            }
            BenchError::Empty => write!(f, "netlist declares no primary inputs"),
            BenchError::Build(e) => write!(f, "netlist lowering failed: {e}"),
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = BenchError::Syntax {
            line: 3,
            reason: "missing '='".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.source().is_none());
        let e = BenchError::Build(SimError::Network { reason: "x".into() });
        assert!(e.source().is_some());
    }
}
