//! Regenerates the committed artifacts under `data/`:
//!
//! * `data/charlib/nor_paper.mislib` — the paper-Table-1 NOR gate
//!   characterized at the default budget (`CharConfig::default`), in the
//!   bit-exact `mis-charlib` text form, format 2: with the resample
//!   counts that `CachedHybridChannel`'s search picks, so loading it
//!   tabulates each family once (NAND cells reuse it through the
//!   duality, so no NAND library is characterized);
//! * `data/bench/c432.bench` — the C432-scale benchmark circuit (see
//!   below), emitted through the canonical `mis-sim` `.bench` writer;
//! * `data/bench/c880.bench` — the C880-scale 8-bit ALU (see below),
//!   the fixture of the headline benchmark and its fault campaigns.
//!
//! The committed files let benches, examples and tests skip
//! re-characterization; this binary exists so they stay reproducible.
//! Run from anywhere inside the workspace:
//! `cargo run --release -p mis-bench --bin make_data`
//!
//! With `--check`, nothing is written: every artifact is regenerated
//! in memory and compared byte-for-byte against the committed file, and
//! any drift (or a missing file) fails the run — the reproducibility
//! gate of `scripts/ci.sh`'s default run. A drifted artifact's first
//! differing line is printed on both sides, so a one-line drift (say,
//! a resample count) reads at a glance.
//!
//! # The C432-scale circuit
//!
//! The original ISCAS-85 C432 is a 36-input, 7-output priority-channel
//! interrupt controller. Its gate-level distribution file is not
//! redistributable from memory, so the committed fixture is a
//! **structural reconstruction** of that controller (after the
//! behavioral description in Hansen, Yalcin, Hayes, *"Unveiling the
//! ISCAS-85 benchmarks"*, IEEE D&T 1999), not the byte-identical
//! original: four 9-bit input buses (enable E, requests A > B > C),
//! per-bus grant outputs `PA`/`PB`/`PC`, and a 4-bit winning-channel
//! address `CHAN3..CHAN0`. It matches the original's scale and shape
//! where the simulator cares: 36 inputs, 7 outputs, 132 gates spanning
//! NOT/NOR/NAND/AND/OR/XOR/BUFF with fan-in up to nine, deep
//! reconvergent fan-out, and one-hot priority logic.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use mis_bench::netlist::workspace_root;
use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::CachedHybridChannel;
use mis_sim::{BenchFunc, BenchNetlist};

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    let dir = path
        .parent()
        .ok_or_else(|| format!("{}: artifact path has no parent directory", path.display()))?;
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Builds every committed `data/` artifact in memory, as
/// (workspace-relative path, exact file contents) pairs.
fn build_artifacts() -> Result<Vec<(&'static str, String)>, String> {
    let cfg = CharConfig::default();

    println!("characterizing NOR (paper Table 1, default budget)...");
    let nor = CharLib::nor(&NorParams::paper_table1(), &cfg)
        .map_err(|e| format!("NOR characterization: {e}"))?;
    let counts = CachedHybridChannel::search_resample_counts(&nor);
    let nor = nor.with_resample_counts(counts);

    let c432 = c432_reconstruction();
    let mut c432_text = String::new();
    let _ = writeln!(
        c432_text,
        "# c432 — C432-scale priority-channel interrupt controller.\n\
         # Structural reconstruction after Hansen/Yalcin/Hayes (1999); NOT the\n\
         # byte-identical ISCAS-85 distribution netlist. {} inputs, {} outputs,\n\
         # {} gates, fan-in up to 9. Regenerate: cargo run -p mis-bench --bin make_data",
        c432.input_count(),
        c432.outputs().len(),
        c432.gate_count()
    );
    c432_text.push_str(&c432.to_text());

    let c880 = c880_reconstruction();
    let mut c880_text = String::new();
    let _ = writeln!(
        c880_text,
        "# c880 — C880-scale 8-bit ALU.\n\
         # Structural reconstruction after Hansen/Yalcin/Hayes (1999); NOT the\n\
         # byte-identical ISCAS-85 distribution netlist. {} inputs, {} outputs,\n\
         # {} gates, fan-in up to 8. Regenerate: cargo run -p mis-bench --bin make_data",
        c880.input_count(),
        c880.outputs().len(),
        c880.gate_count()
    );
    c880_text.push_str(&c880.to_text());

    Ok(vec![
        ("data/charlib/nor_paper.mislib", nor.to_text()),
        ("data/bench/c432.bench", c432_text),
        ("data/bench/c880.bench", c880_text),
    ])
}

fn main() -> ExitCode {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let root = workspace_root();
    let artifacts = match build_artifacts() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("make_data: {e}");
            return ExitCode::from(1);
        }
    };
    if !check {
        for (rel, contents) in &artifacts {
            if let Err(e) = write_file(&root.join(rel), contents) {
                eprintln!("make_data: {e}");
                return ExitCode::from(1);
            }
        }
        return ExitCode::SUCCESS;
    }
    // --check: regenerate in memory only and fail on any drift against
    // the committed bytes, so the committed artifacts provably remain a
    // pure function of this binary.
    let mut drift = 0usize;
    for (rel, contents) in &artifacts {
        let path = root.join(rel);
        match fs::read_to_string(&path) {
            Ok(committed) if committed == *contents => println!("ok       {rel}"),
            Ok(committed) => {
                println!(
                    "DRIFT    {rel}: committed {} bytes != regenerated {} bytes",
                    committed.len(),
                    contents.len()
                );
                println!("{}", first_difference(&committed, contents));
                drift += 1;
            }
            Err(e) => {
                println!("MISSING  {rel}: {e}");
                drift += 1;
            }
        }
    }
    if drift > 0 {
        eprintln!(
            "make_data --check: FAILED ({drift} artifact(s) drifted; \
             refresh with `cargo run --release -p mis-bench --bin make_data`)"
        );
        return ExitCode::from(1);
    }
    println!("make_data --check: OK ({} artifacts)", artifacts.len());
    ExitCode::SUCCESS
}

/// The first line at which `committed` and `regenerated` differ, both
/// sides quoted (`<end of file>` past the shorter one).
fn first_difference(committed: &str, regenerated: &str) -> String {
    let (mut old, mut new) = (committed.lines(), regenerated.lines());
    let mut no = 1;
    loop {
        match (old.next(), new.next()) {
            (a, b) if a == b && a.is_some() => no += 1,
            (None, None) => return "         same lines; line endings differ".into(),
            (a, b) => {
                let quote =
                    |l: Option<&str>| l.map_or("<end of file>".into(), |l| format!("'{l}'"));
                return format!(
                    "         first difference at line {no}:\n           committed   {}\n           regenerated {}",
                    quote(a),
                    quote(b)
                );
            }
        }
    }
}

/// Builds the C432-scale interrupt controller: enable bus `E`, request
/// buses `A` (highest priority) > `B` > `C`, channel 0 beats channel 8
/// within a bus. One-hot grants feed an XOR-tree address encoder (over
/// one-hot signals XOR ≡ OR, so the parity trees are exact).
fn c432_reconstruction() -> BenchNetlist {
    let mut inputs = Vec::new();
    let mut gates = String::new();
    let mut gate = |output: &str, func: BenchFunc, ops: &[String]| {
        let _ = writeln!(gates, "{output} = {}({})", func.name(), ops.join(", "));
    };
    let bus = |name: &str, i: usize| format!("{name}{i}");
    for b in ["E", "A", "B", "C"] {
        for i in 0..9 {
            inputs.push(bus(b, i));
        }
    }
    // Input inverters (the original's 36-inverter front rank).
    for b in ["E", "A", "B", "C"] {
        for i in 0..9 {
            gate(&format!("N{b}{i}"), BenchFunc::Not, &[bus(b, i)]);
        }
    }
    // Enabled requests per bus: V<bus>i = <bus>i AND Ei, in NOR form.
    for b in ["A", "B", "C"] {
        for i in 0..9 {
            gate(
                &format!("V{b}{i}"),
                BenchFunc::Nor,
                &[format!("N{b}{i}"), format!("NE{i}")],
            );
        }
    }
    // Bus-level "no request" (9-input NORs) and the priority grants.
    for b in ["A", "B", "C"] {
        let all: Vec<String> = (0..9).map(|i| format!("V{b}{i}")).collect();
        gate(&format!("NONE{b}"), BenchFunc::Nor, &all);
    }
    gate("PA", BenchFunc::Not, &["NONEA".into()]);
    gate("NNONEB", BenchFunc::Not, &["NONEB".into()]);
    gate("PB", BenchFunc::And, &["NONEA".into(), "NNONEB".into()]);
    gate("NNONEC", BenchFunc::Not, &["NONEC".into()]);
    gate(
        "PC",
        BenchFunc::And,
        &["NONEA".into(), "NONEB".into(), "NNONEC".into()],
    );
    // Winning-bus request per channel, alternating AND/OR and NAND/NAND
    // forms (same Boolean function by De Morgan; mixes the gate census).
    for i in 0..9 {
        let (leaf, root) = if i % 2 == 0 {
            (BenchFunc::And, BenchFunc::Or)
        } else {
            (BenchFunc::Nand, BenchFunc::Nand)
        };
        for (b, grant) in [("A", "PA"), ("B", "PB"), ("C", "PC")] {
            gate(
                &format!("R{b}{i}"),
                leaf,
                &[format!("V{b}{i}"), grant.into()],
            );
        }
        gate(
            &format!("R{i}"),
            root,
            &[format!("RA{i}"), format!("RB{i}"), format!("RC{i}")],
        );
    }
    // Within-bus priority: channel i wins iff it requests and no lower
    // channel does.
    gate("M1", BenchFunc::Not, &["R0".into()]);
    for i in 2..9 {
        let lower: Vec<String> = (0..i).map(|j| format!("R{j}")).collect();
        gate(&format!("M{i}"), BenchFunc::Nor, &lower);
    }
    for i in 1..9 {
        gate(
            &format!("G{i}"),
            BenchFunc::And,
            &[format!("R{i}"), format!("M{i}")],
        );
    }
    // One-hot to binary address through XOR trees (XOR ≡ OR on one-hot).
    gate("T13", BenchFunc::Xor, &["G1".into(), "G3".into()]);
    gate("T57", BenchFunc::Xor, &["G5".into(), "G7".into()]);
    gate("CHAN0", BenchFunc::Xor, &["T13".into(), "T57".into()]);
    gate("T23", BenchFunc::Xor, &["G2".into(), "G3".into()]);
    gate("T67", BenchFunc::Xor, &["G6".into(), "G7".into()]);
    gate("CHAN1", BenchFunc::Xor, &["T23".into(), "T67".into()]);
    gate("T45", BenchFunc::Xor, &["G4".into(), "G5".into()]);
    gate("CHAN2", BenchFunc::Xor, &["T45".into(), "T67".into()]);
    gate("CHAN3", BenchFunc::Buff, &["G8".into()]);
    let outputs = ["PA", "PB", "PC", "CHAN3", "CHAN2", "CHAN1", "CHAN0"].map(String::from);
    assemble(&inputs, &outputs, &gates)
}

/// Builds the C880-scale 8-bit ALU: operand buses `A`/`B` through an
/// 8-function logic/arithmetic unit (two 4-bit carry-lookahead adder
/// blocks, function select `F3 F2 F1`, output inversion `F0`, result
/// gating mask `G`), a `C`/`D` pass bus with select/enable (`PS0`,
/// `TEN`) and enable mask `E`, result flags (carry, overflow, parity,
/// zero), an unsigned comparator (`EQ`, `AGB`), and a highest-set-bit
/// priority encoder over the pass bus (binary index `K2..K0` plus the
/// any-lane-set valid flag `KV`). 60 inputs, 27
/// outputs, 366 gates, fan-in up to 8 — and, deliberately, many
/// output cones that only partially overlap, so most faults reach
/// only part of the circuit.
fn c880_reconstruction() -> BenchNetlist {
    let mut inputs = Vec::new();
    let mut gates = String::new();
    let mut gate = |output: &str, func: BenchFunc, ops: &[String]| {
        let _ = writeln!(gates, "{output} = {}({})", func.name(), ops.join(", "));
    };
    let bus = |name: &str, i: usize| format!("{name}{i}");
    for b in ["A", "B", "C", "D", "E", "G"] {
        for i in 0..8 {
            inputs.push(bus(b, i));
        }
    }
    for name in [
        "F0", "F1", "F2", "F3", "CIN", "INV", "PS0", "PS1", "TEN", "ZEN", "PEN", "OEN",
    ] {
        inputs.push(name.to_owned());
    }
    // Front inverter ranks (the original's big input-inverter tier).
    for b in ["A", "B", "C", "D", "E", "G"] {
        for i in 0..8 {
            gate(&format!("N{b}{i}"), BenchFunc::Not, &[bus(b, i)]);
        }
    }
    for f in ["F1", "F2", "F3", "PS0"] {
        gate(&format!("N{f}"), BenchFunc::Not, &[f.to_string()]);
    }
    // Adder operand: B conditionally inverted (add/subtract control).
    for i in 0..8 {
        gate(&bus("XB", i), BenchFunc::Xor, &[bus("B", i), "INV".into()]);
    }
    // Propagate/generate, then two 4-bit carry-lookahead blocks.
    for i in 0..8 {
        gate(&bus("PP", i), BenchFunc::Xor, &[bus("A", i), bus("XB", i)]);
        gate(&bus("GN", i), BenchFunc::And, &[bus("A", i), bus("XB", i)]);
    }
    for block in 0..2usize {
        let base = 4 * block;
        let cin = if block == 0 {
            "CIN".to_owned()
        } else {
            "CY4".into()
        };
        for i in 1..=4usize {
            let m = base + i;
            let carry = if m == 8 {
                "COUT".to_owned()
            } else {
                bus("CY", m)
            };
            let mut terms = vec![bus("GN", m - 1)];
            for j in (0..i - 1).rev() {
                // ANDs of the propagate run above generate bit `base+j`.
                let name = format!("CY{m}T{j}");
                let mut ops: Vec<String> = (base + j + 1..m).map(|k| bus("PP", k)).collect();
                ops.push(bus("GN", base + j));
                gate(&name, BenchFunc::And, &ops);
                terms.push(name);
            }
            let tc = format!("CY{m}TC");
            let mut ops: Vec<String> = (base..m).map(|k| bus("PP", k)).collect();
            ops.push(cin.clone());
            gate(&tc, BenchFunc::And, &ops);
            terms.push(tc);
            gate(&carry, BenchFunc::Or, &terms);
        }
    }
    // Sum bits and the overflow flag (carry-into vs carry-out of bit 7).
    gate(&bus("S", 0), BenchFunc::Xor, &[bus("PP", 0), "CIN".into()]);
    for i in 1..8 {
        gate(&bus("S", i), BenchFunc::Xor, &[bus("PP", i), bus("CY", i)]);
    }
    gate("OVX", BenchFunc::Xor, &[bus("CY", 7), "COUT".into()]);
    gate("OVF", BenchFunc::And, &["OVX".into(), "OEN".into()]);
    // The logic unit: six bitwise functions (AND/OR through the inverter
    // ranks, by De Morgan — mixes the gate census like the original).
    for i in 0..8 {
        gate(&bus("AB", i), BenchFunc::Nor, &[bus("NA", i), bus("NB", i)]);
        gate(
            &bus("OB", i),
            BenchFunc::Nand,
            &[bus("NA", i), bus("NB", i)],
        );
        gate(&bus("NDB", i), BenchFunc::Nand, &[bus("A", i), bus("B", i)]);
        gate(&bus("NRB", i), BenchFunc::Nor, &[bus("A", i), bus("B", i)]);
        gate(&bus("XR", i), BenchFunc::Xor, &[bus("A", i), bus("B", i)]);
        gate(&bus("Q", i), BenchFunc::Xnor, &[bus("A", i), bus("B", i)]);
    }
    // 3-bit function decode (F3 F2 F1) and the per-bit 8-way mux.
    for k in 0..8usize {
        let pick = |set: bool, name: &str| {
            if set {
                name.to_owned()
            } else {
                format!("N{name}")
            }
        };
        gate(
            &bus("DEC", k),
            BenchFunc::And,
            &[
                pick(k & 4 != 0, "F3"),
                pick(k & 2 != 0, "F2"),
                pick(k & 1 != 0, "F1"),
            ],
        );
    }
    for i in 0..8 {
        let fns = [
            bus("S", i),
            bus("AB", i),
            bus("OB", i),
            bus("XR", i),
            bus("NDB", i),
            bus("NRB", i),
            bus("Q", i),
            bus("A", i),
        ];
        let mut terms = Vec::with_capacity(8);
        for (k, f) in fns.iter().enumerate() {
            let name = format!("M{i}K{k}");
            gate(&name, BenchFunc::And, &[bus("DEC", k), f.clone()]);
            terms.push(name);
        }
        gate(&bus("M", i), BenchFunc::Or, &terms);
        gate(&bus("Y", i), BenchFunc::Xor, &[bus("M", i), "F0".into()]);
        gate(&bus("NY", i), BenchFunc::Not, &[bus("Y", i)]);
        gate(&bus("R", i), BenchFunc::Nor, &[bus("NY", i), bus("NG", i)]);
    }
    // Result flags: zero detect and gated parity.
    gate(
        "Z0",
        BenchFunc::Nor,
        &(0..4).map(|i| bus("Y", i)).collect::<Vec<_>>(),
    );
    gate(
        "Z1",
        BenchFunc::Nor,
        &(4..8).map(|i| bus("Y", i)).collect::<Vec<_>>(),
    );
    gate("ZA", BenchFunc::And, &["Z0".into(), "Z1".into()]);
    gate("ZERO", BenchFunc::And, &["ZA".into(), "ZEN".into()]);
    let parity_tree = |gate: &mut dyn FnMut(&str, BenchFunc, &[String]), tag: &str, leaf: &str| {
        for p in 0..4 {
            gate(
                &format!("{tag}{p}"),
                BenchFunc::Xor,
                &[bus(leaf, 2 * p), bus(leaf, 2 * p + 1)],
            );
        }
        gate(
            &format!("{tag}A"),
            BenchFunc::Xor,
            &[format!("{tag}0"), format!("{tag}1")],
        );
        gate(
            &format!("{tag}B"),
            BenchFunc::Xor,
            &[format!("{tag}2"), format!("{tag}3")],
        );
        gate(
            &format!("{tag}R"),
            BenchFunc::Xor,
            &[format!("{tag}A"), format!("{tag}B")],
        );
    };
    parity_tree(&mut gate, "PY", "Y");
    gate("PAR", BenchFunc::And, &["PYR".into(), "PEN".into()]);
    // Pass bus: C or D (PS0) under the TEN enable, masked by E.
    gate("PDEC0", BenchFunc::And, &["TEN".into(), "NPS0".into()]);
    gate("PDEC1", BenchFunc::And, &["TEN".into(), "PS0".into()]);
    gate("NPD0", BenchFunc::Not, &["PDEC0".into()]);
    gate("NPD1", BenchFunc::Not, &["PDEC1".into()]);
    for i in 0..8 {
        gate(&bus("U", i), BenchFunc::Nor, &[bus("NC", i), "NPD0".into()]);
        gate(&bus("V", i), BenchFunc::Nor, &[bus("ND", i), "NPD1".into()]);
        gate(&bus("TV", i), BenchFunc::Or, &[bus("U", i), bus("V", i)]);
        gate(&bus("NTV", i), BenchFunc::Not, &[bus("TV", i)]);
        gate(&bus("T", i), BenchFunc::Nor, &[bus("NTV", i), bus("NE", i)]);
    }
    parity_tree(&mut gate, "PX", "T");
    gate("PT", BenchFunc::Xor, &["PXR".into(), "PS1".into()]);
    // Unsigned comparator: equality tree plus MSB-first greater-than.
    gate(
        "QA",
        BenchFunc::And,
        &(0..4).map(|i| bus("Q", i)).collect::<Vec<_>>(),
    );
    gate(
        "QB",
        BenchFunc::And,
        &(4..8).map(|i| bus("Q", i)).collect::<Vec<_>>(),
    );
    gate("EQ", BenchFunc::And, &["QA".into(), "QB".into()]);
    gate("EA5", BenchFunc::And, &[bus("Q", 7), bus("Q", 6)]);
    for i in (0..5).rev() {
        gate(
            &bus("EA", i),
            BenchFunc::And,
            &[bus("EA", i + 1), bus("Q", i + 1)],
        );
    }
    gate("GT7", BenchFunc::And, &[bus("A", 7), bus("NB", 7)]);
    gate(
        "GT6",
        BenchFunc::And,
        &[bus("A", 6), bus("NB", 6), bus("Q", 7)],
    );
    for i in (0..6).rev() {
        gate(
            &bus("GT", i),
            BenchFunc::And,
            &[bus("A", i), bus("NB", i), bus("EA", i)],
        );
    }
    gate(
        "AGB",
        BenchFunc::Or,
        &(0..8).map(|i| bus("GT", i)).collect::<Vec<_>>(),
    );
    // Highest-set-bit priority encoder over the pass bus.
    gate("NS6", BenchFunc::Not, &[bus("T", 7)]);
    for i in (0..6).rev() {
        gate(
            &bus("NS", i),
            BenchFunc::Nor,
            &(i + 1..8).map(|j| bus("T", j)).collect::<Vec<_>>(),
        );
    }
    for i in 0..7 {
        gate(&bus("H", i), BenchFunc::And, &[bus("T", i), bus("NS", i)]);
    }
    gate(
        "K0",
        BenchFunc::Or,
        &["H1".into(), "H3".into(), "H5".into(), bus("T", 7)],
    );
    gate(
        "K1",
        BenchFunc::Or,
        &["H2".into(), "H3".into(), "H6".into(), bus("T", 7)],
    );
    gate(
        "K2",
        BenchFunc::Or,
        &["H4".into(), "H5".into(), "H6".into(), bus("T", 7)],
    );
    // The encoder's valid flag: some pass-bus lane is set. Also the
    // only consumer of lane H0 — without it H0 (and NS0 behind it) is
    // dead logic, which the mis-analyze A005 lint rightly flags.
    let mut kv_ops: Vec<String> = (0..7).map(|i| bus("H", i)).collect();
    kv_ops.push(bus("T", 7));
    gate("KV", BenchFunc::Or, &kv_ops);
    let mut outputs: Vec<String> = (0..8).map(|i| bus("R", i)).collect();
    outputs.extend(["COUT", "OVF", "PAR", "ZERO"].map(String::from));
    outputs.extend((0..8).map(|i| bus("T", i)));
    outputs.extend(["PT", "EQ", "AGB", "K2", "K1", "K0", "KV"].map(String::from));
    assemble(&inputs, &outputs, &gates)
}

/// Parses a reconstruction from its `.bench` parts: the `INPUT` and
/// `OUTPUT` names and the gate definition lines.
fn assemble(inputs: &[String], outputs: &[String], gates: &str) -> BenchNetlist {
    let mut text = String::new();
    for i in inputs {
        let _ = writeln!(text, "INPUT({i})");
    }
    for o in outputs {
        let _ = writeln!(text, "OUTPUT({o})");
    }
    text.push_str(gates);
    BenchNetlist::parse(&text).expect("reconstruction is well-formed")
}
