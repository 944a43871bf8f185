//! Structural lints over a validated [`BenchNetlist`].
//!
//! Everything here runs on the *parsed* netlist, before lowering: the
//! parser has already rejected hard structural violations (duplicates,
//! dangling references, cycles), so the linter's job is the gray zone —
//! constructs that lower and simulate fine but are almost certainly
//! mistakes (dead logic, unused declarations, degenerate operand
//! lists), plus the one predictable hard failure the parser cannot see:
//! a netlist whose lowered size exceeds the engines' index width
//! (`A007`, checked against [`mis_sim::ENGINE_INDEX_MAX`] via
//! [`BenchNetlist::lowered_stats`] without allocating anything).
//!
//! Findings anchor to real `.bench` source lines: the parser retains a
//! span per declaration ([`BenchNetlist::gate_lines`] and friends), so
//! a CI failure points at the line to fix. The checks read the
//! netlist's definition indices ([`BenchNetlist::operands`],
//! [`BenchNetlist::outputs`]) and keep one flag per definition; names
//! are spelled only for the findings they report.

use mis_sim::{BenchNetlist, ENGINE_INDEX_MAX};

use crate::diag::{DiagCode, Diagnostic, LintReport};

/// Tunables for the structural checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Fan-in count above which `A006` fires. The default (16) keeps
    /// the committed ISCAS fixtures clean — c432's 9-input gates are
    /// legitimate — while still flagging netlists whose reduction trees
    /// dwarf the timed cell at the root.
    pub max_fan_in: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig { max_fan_in: 16 }
    }
}

/// Runs every structural check over `nl` and returns the sorted report.
///
/// The netlist is already validated (it exists), so the linter never
/// fails — it only reports. Checks implemented, by code:
///
/// * `A001` unused signal — declared but never read nor exported;
/// * `A002` output without a driving cone — `OUTPUT` names an `INPUT`;
/// * `A003` duplicate fan-in operand;
/// * `A004` constant-foldable gate — one distinct operand on a
///   non-unary gate;
/// * `A005` dead gate — outside every output cone;
/// * `A006` excessive fan-in — above [`LintConfig::max_fan_in`];
/// * `A007` index-width overflow — lowered size would exceed
///   [`ENGINE_INDEX_MAX`] (the only error-severity finding).
#[must_use]
pub fn lint(nl: &BenchNetlist, config: &LintConfig) -> LintReport {
    let mut out: Vec<Diagnostic> = Vec::new();
    let ni = nl.input_count();
    let defs = ni + nl.gate_count();

    // Per definition index: read by a gate or named by an OUTPUT.
    let mut used = vec![false; defs];
    for &d in (0..nl.gate_count())
        .flat_map(|g| nl.operands(g))
        .chain(nl.outputs())
    {
        used[d] = true;
    }

    // A001 — unused signals, at their declaration line.
    for (d, &line) in nl.input_lines().iter().enumerate() {
        if !used[d] {
            let name = nl.name(d);
            out.push(Diagnostic {
                code: DiagCode::UnusedSignal,
                line,
                signal: Some(name.to_owned()),
                message: format!("input '{name}' is never read by a gate nor exported"),
            });
        }
    }
    for (g, &line) in nl.gate_lines().iter().enumerate() {
        if !used[ni + g] {
            let name = nl.name(ni + g);
            out.push(Diagnostic {
                code: DiagCode::UnusedSignal,
                line,
                signal: Some(name.to_owned()),
                message: format!("gate output '{name}' is never read nor exported"),
            });
        }
    }

    // A002 — outputs that are primary inputs, at the OUTPUT line.
    for (&d, &line) in nl.outputs().iter().zip(nl.output_lines()) {
        if d < ni {
            let name = nl.name(d);
            out.push(Diagnostic {
                code: DiagCode::OutputWithoutCone,
                line,
                signal: Some(name.to_owned()),
                message: format!(
                    "output '{name}' is a primary input: no gate drives it, it only \
                     echoes the input"
                ),
            });
        }
    }

    // Per-gate operand-shape checks: A003, A004, A006. `seen` flags the
    // current gate's operands and is cleared again after each gate.
    let mut seen = vec![false; defs];
    for (g, &line) in nl.gate_lines().iter().enumerate() {
        let ops = nl.operands(g);
        let name = nl.name(ni + g);
        let mut dup: Option<usize> = None;
        let mut distinct = 0;
        for &d in ops {
            if std::mem::replace(&mut seen[d], true) {
                dup.get_or_insert(d);
            } else {
                distinct += 1;
            }
        }
        for &d in ops {
            seen[d] = false;
        }
        if let Some(d) = dup {
            out.push(Diagnostic {
                code: DiagCode::DuplicateOperand,
                line,
                signal: Some(name.to_owned()),
                message: format!(
                    "gate '{name}' lists operand '{}' more than once",
                    nl.name(d)
                ),
            });
        }
        let func = nl.func(g);
        if distinct == 1 && !func.is_unary() {
            out.push(Diagnostic {
                code: DiagCode::ConstantFoldableGate,
                line,
                signal: Some(name.to_owned()),
                message: format!(
                    "gate '{name}' = {}({}, ...) reduces to a constant or a copy of its \
                     single distinct operand",
                    func.name(),
                    nl.name(ops[0])
                ),
            });
        }
        if ops.len() > config.max_fan_in {
            out.push(Diagnostic {
                code: DiagCode::ExcessiveFanIn,
                line,
                signal: Some(name.to_owned()),
                message: format!(
                    "gate '{name}' has fan-in {} (limit {}): the delay model covers the \
                     timed root cell, not a reduction tree this deep",
                    ops.len(),
                    config.max_fan_in
                ),
            });
        }
    }

    // A005 — dead gates: walk the fan-in relation backward from every
    // OUTPUT; gates whose outputs the walk never reaches cannot affect
    // any observable signal.
    let mut alive = vec![false; defs];
    let mut stack: Vec<usize> = nl.outputs().to_vec();
    while let Some(d) = stack.pop() {
        if std::mem::replace(&mut alive[d], true) {
            continue;
        }
        if let Some(g) = d.checked_sub(ni) {
            stack.extend_from_slice(nl.operands(g));
        }
    }
    for (g, &line) in nl.gate_lines().iter().enumerate() {
        if !alive[ni + g] {
            let name = nl.name(ni + g);
            out.push(Diagnostic {
                code: DiagCode::DeadGate,
                line,
                signal: Some(name.to_owned()),
                message: format!("gate '{name}' feeds no OUTPUT: it is simulated but unobservable"),
            });
        }
    }

    // A007 — index-width pre-flight: the one finding that predicts a
    // hard engine failure rather than a smell.
    let stats = nl.lowered_stats();
    if stats.signals > ENGINE_INDEX_MAX || stats.edges > ENGINE_INDEX_MAX {
        out.push(Diagnostic {
            code: DiagCode::IndexWidthOverflow,
            line: 0,
            signal: None,
            message: format!(
                "lowering would produce {} signals and {} fan-out edges; the engine \
                 and the cone replay index both as u32 (max {ENGINE_INDEX_MAX}), so \
                 Simulator::new (signals) or ConeReplay::new (fan-out edges) is \
                 guaranteed to reject this netlist",
                stats.signals, stats.edges
            ),
        });
    }

    LintReport::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn codes(report: &LintReport) -> Vec<(DiagCode, usize)> {
        report
            .diagnostics()
            .iter()
            .map(|d| (d.code, d.line))
            .collect()
    }

    #[test]
    fn clean_netlist_stays_clean() {
        let nl = BenchNetlist::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NAND(a, b)\ny = NOT(n)")
            .unwrap();
        let report = lint(&nl, &LintConfig::default());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn every_warning_code_fires_at_its_source_line() {
        // Line:            1         2         3         4
        let text = "INPUT(a)\nINPUT(b)\nINPUT(unused)\nOUTPUT(y)\n\
                    OUTPUT(a)\ndup = AND(a, b, a)\nfold = OR(b, b)\n\
                    dead = NOR(a, dup)\nlost = NOT(fold)\ny = NAND(a, b)";
        // Lines: 5 OUTPUT(a), 6 dup, 7 fold, 8 dead, 9 lost, 10 y.
        let nl = BenchNetlist::parse(text).unwrap();
        let report = lint(&nl, &LintConfig::default());
        let got = codes(&report);
        assert_eq!(
            got,
            vec![
                (DiagCode::UnusedSignal, 3),         // INPUT(unused)
                (DiagCode::OutputWithoutCone, 5),    // OUTPUT(a)
                (DiagCode::DuplicateOperand, 6),     // dup = AND(a, b, a)
                (DiagCode::DeadGate, 6),             // dup feeds only dead
                (DiagCode::DuplicateOperand, 7),     // fold = OR(b, b)
                (DiagCode::ConstantFoldableGate, 7), // fold = OR(b, b)
                (DiagCode::DeadGate, 7),             // fold feeds only lost
                (DiagCode::UnusedSignal, 8),         // dead never read nor exported
                (DiagCode::DeadGate, 8),             // dead = NOR(a, dup)
                (DiagCode::UnusedSignal, 9),         // lost never read nor exported
                (DiagCode::DeadGate, 9),             // lost = NOT(fold)
            ],
            "report was:\n{report}"
        );
        assert!(!report.has_errors());
        assert_eq!(report.warning_count(), 11);
    }

    #[test]
    fn duplicate_operand_on_foldable_gate_reports_both() {
        let nl = BenchNetlist::parse("INPUT(a)\nOUTPUT(y)\ny = XOR(a, a)").unwrap();
        let report = lint(&nl, &LintConfig::default());
        assert_eq!(
            codes(&report),
            vec![
                (DiagCode::DuplicateOperand, 3),
                (DiagCode::ConstantFoldableGate, 3),
            ]
        );
    }

    #[test]
    fn fan_in_limit_is_configurable() {
        let nl = BenchNetlist::parse("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b, c)")
            .unwrap();
        assert!(lint(&nl, &LintConfig::default()).is_clean());
        let tight = LintConfig { max_fan_in: 2 };
        let report = lint(&nl, &tight);
        assert_eq!(codes(&report), vec![(DiagCode::ExcessiveFanIn, 5)]);
        assert_eq!(report.diagnostics()[0].signal.as_deref(), Some("y"));
    }

    #[test]
    fn severity_split_matches_registry() {
        let nl = BenchNetlist::parse("INPUT(a)\nOUTPUT(a)").unwrap();
        let report = lint(&nl, &LintConfig::default());
        assert_eq!(codes(&report), vec![(DiagCode::OutputWithoutCone, 2)]);
        assert_eq!(report.diagnostics()[0].severity(), Severity::Warning);
    }
}
