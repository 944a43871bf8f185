//! The diagnostic vocabulary of the linter: stable codes, severities,
//! and the report container the `lint_bench` CLI and CI gate consume.
//!
//! Codes are **stable identifiers**: once shipped, a code keeps its
//! meaning forever (CI configurations and commit messages reference
//! them), so new checks append new codes rather than renumbering. The
//! registry lives in [`DiagCode`]; `DESIGN.md` mirrors it prose-side.

use std::fmt;

/// How bad a diagnostic is.
///
/// * [`Severity::Error`] — the netlist cannot be simulated as written
///   (today only `A007`: the lowered size exceeds the `u32` index
///   width, so [`mis_sim::Simulator::new`] (signal count) or
///   [`mis_sim::ConeReplay::new`] (fan-out edge count) is guaranteed to
///   reject it).
/// * [`Severity::Warning`] — the netlist simulates, but something is
///   structurally suspicious (dead logic, unused declarations,
///   degenerate fan-ins). CI promotes warnings to failures for the
///   committed fixtures via `lint_bench --deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Structurally suspicious but simulable.
    Warning,
    /// Guaranteed to fail at lowering or engine construction.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The diagnostic code registry. One variant per structural check; the
/// numeric part is stable across releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// `A001` — a declared signal (primary input or gate output) that no
    /// gate reads and no `OUTPUT` declaration exports.
    UnusedSignal,
    /// `A002` — an `OUTPUT` that names a primary input: the "cone"
    /// feeding it is empty, so the output merely echoes an input.
    OutputWithoutCone,
    /// `A003` — a gate listing the same operand more than once.
    DuplicateOperand,
    /// `A004` — a non-unary gate whose operands are all one signal: its
    /// value is a constant or a copy (`AND(a, a) = a`, `XOR(a, a) = 0`),
    /// so the gate folds away.
    ConstantFoldableGate,
    /// `A005` — a gate outside every output cone: no path from its
    /// output to any `OUTPUT` declaration, so it burns simulation time
    /// without affecting any observable signal.
    DeadGate,
    /// `A006` — a gate whose fan-in exceeds the configured maximum
    /// ([`crate::LintConfig::max_fan_in`]). Wide gates lower into deep
    /// zero-time reduction trees; past the library's characterized
    /// range the single-cell delay model stops being meaningful.
    ExcessiveFanIn,
    /// `A007` — the lowered netlist would exceed the engines' `u32`
    /// index width ([`mis_sim::ENGINE_INDEX_MAX`] signals or fan-out
    /// edges), predicted via [`mis_sim::BenchNetlist::lowered_stats`]
    /// before any allocation happens.
    IndexWidthOverflow,
}

impl DiagCode {
    /// The stable code string, e.g. `"A001"`.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::UnusedSignal => "A001",
            DiagCode::OutputWithoutCone => "A002",
            DiagCode::DuplicateOperand => "A003",
            DiagCode::ConstantFoldableGate => "A004",
            DiagCode::DeadGate => "A005",
            DiagCode::ExcessiveFanIn => "A006",
            DiagCode::IndexWidthOverflow => "A007",
        }
    }

    /// The fixed severity of this check (see [`Severity`]).
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::IndexWidthOverflow => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One finding: a code, where it points, and a rendered message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: DiagCode,
    /// 1-based `.bench` source line the finding anchors to, `0` for
    /// netlist-wide findings such as `A007`.
    pub line: usize,
    /// The signal or gate-output name involved, when the finding is
    /// about one.
    pub signal: Option<String>,
    /// Rendered explanation.
    pub message: String,
}

impl Diagnostic {
    /// The severity of this finding — fixed per code.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity(), self.code.code())?;
        if self.line > 0 {
            write!(f, " line {}", self.line)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything the linter found, sorted by (line, code, signal) so output
/// is deterministic and reads in source order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wraps and sorts a finding list (line, then code, then signal).
    #[must_use]
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| (a.line, a.code, &a.signal).cmp(&(b.line, b.code, &b.signal)));
        LintReport { diagnostics }
    }

    /// The findings, in report order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when nothing fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Count of [`Severity::Error`] findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Count of [`Severity::Warning`] findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` when at least one finding is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_titles_severities_are_wired() {
        let all = [
            DiagCode::UnusedSignal,
            DiagCode::OutputWithoutCone,
            DiagCode::DuplicateOperand,
            DiagCode::ConstantFoldableGate,
            DiagCode::DeadGate,
            DiagCode::ExcessiveFanIn,
            DiagCode::IndexWidthOverflow,
        ];
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.code(), format!("A{:03}", i + 1));
        }
        assert_eq!(DiagCode::IndexWidthOverflow.severity(), Severity::Error);
        assert_eq!(DiagCode::UnusedSignal.severity(), Severity::Warning);
    }

    #[test]
    fn report_sorts_and_counts() {
        let d = |code: DiagCode, line: usize| Diagnostic {
            code,
            line,
            signal: None,
            message: format!("{code} here"),
        };
        let report = LintReport::new(vec![
            d(DiagCode::DeadGate, 9),
            d(DiagCode::IndexWidthOverflow, 0),
            d(DiagCode::UnusedSignal, 9),
            d(DiagCode::DuplicateOperand, 4),
        ]);
        let lines: Vec<usize> = report.diagnostics().iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![0, 4, 9, 9]);
        assert_eq!(report.diagnostics()[2].code, DiagCode::UnusedSignal);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 3);
        assert!(report.has_errors());
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("error[A007]"));
        assert!(text.contains("warning[A001] line 9"));
        assert!(LintReport::default().is_clean());
    }
}
