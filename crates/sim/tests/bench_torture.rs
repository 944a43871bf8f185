//! No-panic property torture for the `.bench` parser: adversarial
//! inputs — multi-KiB lines, huge fan-in, duplicated and overlong
//! identifiers, truncated files, random byte soup — must always come
//! back as `Ok` or a typed [`BenchError`], never a panic. Each case
//! additionally pins the error *kind* where the input's defect is
//! unambiguous, so the parser's diagnostics can't silently degrade into
//! a catch-all.

use mis_sim::{BenchError, BenchNetlist};
use mis_testkit::rng::TestRng;

/// Parses inside `catch_unwind` so a panic fails the test with the
/// offending input attached instead of aborting the harness run.
fn parse_must_not_panic(input: &str) -> Result<BenchNetlist, BenchError> {
    std::panic::catch_unwind(|| BenchNetlist::parse(input))
        .unwrap_or_else(|_| panic!("parser panicked on {:?}...", &input[..input.len().min(120)]))
}

#[test]
fn multi_kib_lines_parse_or_error_cleanly() {
    // A 64 KiB comment line, a 64 KiB identifier, and a definition
    // whose operand list alone is hundreds of KiB.
    let long_comment = format!("# {}\nINPUT(a)\nOUTPUT(a)\n", "x".repeat(65_536));
    assert!(parse_must_not_panic(&long_comment).is_ok());

    let long_name = "n".repeat(65_536);
    let giant_ident = format!("INPUT({long_name})\nOUTPUT({long_name})\n");
    let parsed = parse_must_not_panic(&giant_ident).expect("long identifiers are just names");
    assert_eq!(parsed.input_count(), 1);

    let mut soup = String::from("INPUT(a)\nOUTPUT(y)\n");
    soup.push_str("y = AND(");
    for _ in 0..40_000 {
        soup.push_str("a, ");
    }
    soup.push_str("a)\n");
    let parsed = parse_must_not_panic(&soup).expect("huge fan-in is legal");
    assert_eq!(parsed.operands(0).len(), 40_001);
}

#[test]
fn duplicate_definitions_are_typed_errors() {
    for input in [
        "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n",
        "INPUT(a)\ny = NOT(a)\ny = NOT(a)\nOUTPUT(y)\n",
        "INPUT(a)\na = NOT(a)\nOUTPUT(a)\n",
    ] {
        match parse_must_not_panic(input) {
            Err(BenchError::Duplicate { .. }) => {}
            other => panic!("expected Duplicate for {input:?}, got {other:?}"),
        }
    }
}

#[test]
fn truncated_files_never_panic() {
    // Every prefix of a valid netlist (cut at each byte boundary) must
    // parse or produce a typed error — truncation mid-token included.
    let full = "# c-ish\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\ny = NOR(t, b)\n";
    for cut in 0..full.len() {
        if !full.is_char_boundary(cut) {
            continue;
        }
        let _ = parse_must_not_panic(&full[..cut]);
    }
}

#[test]
fn malformed_syntax_is_a_typed_error_not_a_panic() {
    for input in [
        "INPUT(",
        "INPUT)a(",
        "y = ",
        "y = AND",
        "y = AND(",
        "y = AND)a, b(",
        "= AND(a, b)",
        "y == AND(a, b)",
        "INPUT(a) OUTPUT(a)",
        "\u{0}\u{1}\u{2}",
        "y = AND(a, b) trailing",
        "OUTPUT()",
        "INPUT()",
        "y = AND(,)",
        "y = AND(a,, b)",
    ] {
        if let Ok(nl) = parse_must_not_panic(input) {
            panic!("malformed {input:?} parsed as {nl:?}");
        }
    }
}

#[test]
fn unknown_functions_and_bad_arity_are_typed() {
    match parse_must_not_panic("INPUT(a)\ny = DFF(a)\nOUTPUT(y)\n") {
        Err(BenchError::UnknownFunction { name, .. }) => assert_eq!(name, "DFF"),
        other => panic!("expected UnknownFunction, got {other:?}"),
    }
    match parse_must_not_panic("INPUT(a)\ny = NOT(a, a)\nOUTPUT(y)\n") {
        Err(BenchError::BadArity { .. }) => {}
        other => panic!("expected BadArity, got {other:?}"),
    }
    match parse_must_not_panic("INPUT(a)\ny = AND(a)\nOUTPUT(y)\n") {
        Err(BenchError::BadArity { .. }) => {}
        other => panic!("expected BadArity, got {other:?}"),
    }
}

#[test]
fn random_ascii_soup_never_panics() {
    // 400 random pseudo-netlists over a hostile alphabet: directive
    // fragments, parens, commas, newlines, long runs. The only
    // requirement is totality — Ok or typed error, never a panic.
    const ALPHABET: &[u8] = b"INPUTOUTAND(),= \n\t#abz019_.-\r";
    let mut rng = TestRng::seed_from_u64(0xbe7c4);
    for _ in 0..400 {
        let len = rng.gen_u64_below(2048) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| ALPHABET[rng.gen_u64_below(ALPHABET.len() as u64) as usize])
            .collect();
        let input = String::from_utf8(bytes).expect("alphabet is ASCII");
        let _ = parse_must_not_panic(&input);
    }
}

#[test]
fn random_mutations_of_a_valid_netlist_never_panic() {
    // Flip, delete or duplicate one region of a real fixture per round:
    // near-valid inputs stress later pipeline stages (arity checks,
    // duplicate detection, topological validation) rather than the
    // tokenizer.
    let base = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
                t1 = NAND(a, b)\nt2 = NOR(b, c)\ny = AND(t1, t2)\nz = XOR(t1, c)\n";
    let mut rng = TestRng::seed_from_u64(0x10a7);
    for _ in 0..400 {
        let mut s = base.as_bytes().to_vec();
        let at = rng.gen_u64_below(s.len() as u64) as usize;
        match rng.gen_u64_below(3) {
            0 => s[at] = b'(' + (rng.gen_u64_below(26) as u8),
            1 => {
                let end = (at + 1 + rng.gen_u64_below(16) as usize).min(s.len());
                s.drain(at..end);
            }
            _ => {
                let chunk: Vec<u8> = s[at..(at + 12).min(s.len())].to_vec();
                s.splice(at..at, chunk);
            }
        }
        if let Ok(input) = String::from_utf8(s) {
            let _ = parse_must_not_panic(&input);
        }
    }
}

#[test]
fn a_long_chain_listed_against_dependency_order_lowers_in_chain_order() {
    // g1 = NOT(a), g2 = NOT(g1), ..., written last gate first: every
    // gate's operand comes later in the file. A pass-per-level sort is
    // quadratic here (seconds at 16k gates); the chain must parse and
    // lower in dependency order.
    const GATES: usize = 50_000;
    let mut text = format!("INPUT(a)\nOUTPUT(g{GATES})\n");
    for k in (2..=GATES).rev() {
        text.push_str(&format!("g{k} = NOT(g{})\n", k - 1));
    }
    text.push_str("g1 = NOT(a)\n");
    let nl = parse_must_not_panic(&text).expect("a reversed chain is a valid netlist");
    let lowered = nl
        .lower(&mis_sim::CellLibrary::ideal())
        .expect("chain lowers");
    assert_eq!(lowered.net.signal_count(), GATES + 1);
    for k in [1, 2, GATES / 2, GATES] {
        let id = lowered.net.signal_id(k).expect("in range");
        assert_eq!(lowered.net.signal_name(id), format!("g{k}"));
    }
}
