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
//! a CI failure points at the line to fix. Programmatic netlists carry
//! line `0` throughout.

use std::collections::{HashMap, HashSet};

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

    let outputs: HashSet<&str> = nl.outputs().iter().map(String::as_str).collect();
    let inputs: HashSet<&str> = nl.inputs().iter().map(String::as_str).collect();
    let mut read: HashSet<&str> = HashSet::new();
    for g in nl.gates() {
        for op in &g.inputs {
            read.insert(op.as_str());
        }
    }

    // A001 — unused signals, at their declaration line.
    for (name, &line) in nl.inputs().iter().zip(nl.input_lines()) {
        if !read.contains(name.as_str()) && !outputs.contains(name.as_str()) {
            out.push(Diagnostic {
                code: DiagCode::UnusedSignal,
                line,
                signal: Some(name.clone()),
                message: format!("input '{name}' is never read by a gate nor exported"),
            });
        }
    }
    for (g, &line) in nl.gates().iter().zip(nl.gate_lines()) {
        if !read.contains(g.output.as_str()) && !outputs.contains(g.output.as_str()) {
            out.push(Diagnostic {
                code: DiagCode::UnusedSignal,
                line,
                signal: Some(g.output.clone()),
                message: format!("gate output '{}' is never read nor exported", g.output),
            });
        }
    }

    // A002 — outputs that are primary inputs, at the OUTPUT line.
    for (name, &line) in nl.outputs().iter().zip(nl.output_lines()) {
        if inputs.contains(name.as_str()) {
            out.push(Diagnostic {
                code: DiagCode::OutputWithoutCone,
                line,
                signal: Some(name.clone()),
                message: format!(
                    "output '{name}' is a primary input: no gate drives it, it only \
                     echoes the input"
                ),
            });
        }
    }

    // Per-gate operand-shape checks: A003, A004, A006.
    for (g, &line) in nl.gates().iter().zip(nl.gate_lines()) {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut dup: Option<&str> = None;
        for op in &g.inputs {
            if !seen.insert(op.as_str()) && dup.is_none() {
                dup = Some(op.as_str());
            }
        }
        if let Some(d) = dup {
            out.push(Diagnostic {
                code: DiagCode::DuplicateOperand,
                line,
                signal: Some(g.output.clone()),
                message: format!("gate '{}' lists operand '{d}' more than once", g.output),
            });
        }
        if seen.len() == 1 && !g.func.is_unary() {
            out.push(Diagnostic {
                code: DiagCode::ConstantFoldableGate,
                line,
                signal: Some(g.output.clone()),
                message: format!(
                    "gate '{}' = {}({}, ...) reduces to a constant or a copy of its \
                     single distinct operand",
                    g.output,
                    g.func.name(),
                    g.inputs[0]
                ),
            });
        }
        if g.inputs.len() > config.max_fan_in {
            out.push(Diagnostic {
                code: DiagCode::ExcessiveFanIn,
                line,
                signal: Some(g.output.clone()),
                message: format!(
                    "gate '{}' has fan-in {} (limit {}): the delay model covers the \
                     timed root cell, not a reduction tree this deep",
                    g.output,
                    g.inputs.len(),
                    config.max_fan_in
                ),
            });
        }
    }

    // A005 — dead gates: walk the fan-in relation backward from every
    // OUTPUT; gates whose outputs the walk never reaches cannot affect
    // any observable signal.
    let gate_of: HashMap<&str, usize> = nl
        .gates()
        .iter()
        .enumerate()
        .map(|(i, g)| (g.output.as_str(), i))
        .collect();
    let mut alive: HashSet<&str> = HashSet::new();
    let mut stack: Vec<&str> = nl.outputs().iter().map(String::as_str).collect();
    while let Some(name) = stack.pop() {
        if !alive.insert(name) {
            continue;
        }
        if let Some(&gi) = gate_of.get(name) {
            for op in &nl.gates()[gi].inputs {
                stack.push(op.as_str());
            }
        }
    }
    for (g, &line) in nl.gates().iter().zip(nl.gate_lines()) {
        if !alive.contains(g.output.as_str()) {
            out.push(Diagnostic {
                code: DiagCode::DeadGate,
                line,
                signal: Some(g.output.clone()),
                message: format!(
                    "gate '{}' feeds no OUTPUT: it is simulated but unobservable",
                    g.output
                ),
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
    fn programmatic_netlists_report_line_zero() {
        use mis_sim::{BenchFunc, BenchGate};
        let nl = BenchNetlist::new(
            vec!["a".into(), "b".into()],
            vec!["y".into()],
            vec![
                BenchGate {
                    output: "y".into(),
                    func: BenchFunc::Nor,
                    inputs: vec!["a".into(), "a".into()],
                },
                BenchGate {
                    output: "z".into(),
                    func: BenchFunc::Not,
                    inputs: vec!["b".into()],
                },
            ],
        )
        .unwrap();
        let report = lint(&nl, &LintConfig::default());
        for d in report.diagnostics() {
            assert_eq!(d.line, 0);
        }
        let got: Vec<DiagCode> = report.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(
            got,
            vec![
                DiagCode::UnusedSignal,         // z, never read nor exported
                DiagCode::DuplicateOperand,     // y = NOR(a, a)
                DiagCode::ConstantFoldableGate, // y = NOR(a, a)
                DiagCode::DeadGate,             // z feeds no OUTPUT
            ]
        );
    }

    #[test]
    fn severity_split_matches_registry() {
        let nl = BenchNetlist::parse("INPUT(a)\nOUTPUT(a)").unwrap();
        let report = lint(&nl, &LintConfig::default());
        assert_eq!(codes(&report), vec![(DiagCode::OutputWithoutCone, 2)]);
        assert_eq!(report.diagnostics()[0].severity(), Severity::Warning);
    }
}
