//! No-panic property torture for the `.mislib` loader: truncated files,
//! rewritten counts, non-finite floats and random byte soup must always
//! come back as `Ok` or a typed [`CharError`], never a panic (or an
//! allocation abort, which would take the whole harness down). Cases
//! whose defect is unambiguous also pin that they are rejected, so a
//! corrupted table cannot load silently.

use std::path::PathBuf;

use mis_charlib::{CharError, CharLib};
use mis_testkit::rng::TestRng;

/// The committed NOR library, the loader's real-world input.
fn committed() -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data/charlib/nor_paper.mislib");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Loads inside `catch_unwind` so a panic fails the test with the
/// offending input attached instead of aborting the harness run.
fn load_must_not_panic(input: &str) -> Result<CharLib, CharError> {
    std::panic::catch_unwind(|| CharLib::from_text(input))
        .unwrap_or_else(|_| panic!("loader panicked on {:?}...", &input[..input.len().min(160)]))
}

/// `text` with whitespace-separated token `tok` of line `line` replaced
/// by `with`.
fn replace_token(text: &str, line: usize, tok: usize, with: &str) -> String {
    let mut out = String::with_capacity(text.len() + with.len());
    for (i, l) in text.lines().enumerate() {
        if i == line {
            let mut toks: Vec<&str> = l.split_whitespace().collect();
            toks[tok] = with;
            out.push_str(&toks.join(" "));
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    out
}

#[test]
fn the_committed_library_loads() {
    assert!(load_must_not_panic(&committed()).is_ok());
}

#[test]
fn truncation_at_every_line_is_a_typed_error() {
    // Every proper line prefix misses at least the closing `end`, and
    // every prefix cut inside a line breaks that line's last token.
    let text = committed();
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let prefix = lines[..keep].join("\n");
        assert!(
            load_must_not_panic(&prefix).is_err(),
            "{keep}-line prefix loaded"
        );
        let mid = lines[keep].len() / 2;
        let cut = format!("{prefix}\n{}", &lines[keep][..mid]);
        assert!(load_must_not_panic(&cut).is_err(), "line {keep} cut loaded");
    }
}

#[test]
fn rewritten_counts_are_typed_errors() {
    // (The format-2 `resample <family> N` counts size a consumer's
    // table, not the loader's, so a huge one loads; the cached channel
    // rejects it past its cap.)
    // Each count token (`falling N`, `rising N`, `slice V N`) replaced
    // by zero, the largest u64, a negative, junk, and a count that fits
    // but whose up-front reservation would request terabytes — both in
    // the whole file and in the file cut right after the rewritten line.
    let text = committed();
    let counts: Vec<(usize, usize)> = text
        .lines()
        .enumerate()
        .filter_map(|(i, l)| match l.split_whitespace().next() {
            Some("falling" | "rising") => Some((i, 1)),
            Some("slice") => Some((i, 2)),
            _ => None,
        })
        .collect();
    assert!(counts.len() >= 4, "fixture has families and slices");
    let max = u64::MAX.to_string();
    for &(line, tok) in &counts {
        for with in ["0", max.as_str(), "-1", "x7", "1000000000000"] {
            let whole = replace_token(&text, line, tok, with);
            let cut: String = whole
                .lines()
                .take(line + 1)
                .map(|l| format!("{l}\n"))
                .collect();
            for input in [&whole, &cut] {
                assert!(
                    load_must_not_panic(input).is_err(),
                    "count {with} on line {} loaded",
                    line + 1
                );
            }
        }
    }
}

#[test]
fn non_finite_floats_are_typed_errors() {
    // NaN and ±inf in every float field kind: the budget, each model
    // parameter, a slice voltage, and both columns of sample rows.
    let text = committed();
    let lines: Vec<&str> = text.lines().collect();
    let mut fields: Vec<(usize, usize)> = vec![(2, 1)];
    fields.extend((1..=9).map(|t| (3, t)));
    for (i, l) in lines.iter().enumerate() {
        let first = l.split_whitespace().next();
        if first == Some("slice") {
            fields.push((i, 1));
            // The slice's first and last sample rows.
            let n: usize = l.split_whitespace().nth(2).unwrap().parse().unwrap();
            for row in [i + 1, i + n] {
                fields.push((row, 0));
                fields.push((row, 1));
            }
        }
    }
    for &(line, tok) in &fields {
        for with in ["NaN", "inf", "-inf"] {
            let input = replace_token(&text, line, tok, with);
            assert!(
                load_must_not_panic(&input).is_err(),
                "{with} at line {} token {tok} loaded",
                line + 1
            );
        }
    }
    // The explicit-voltage policy takes a float too.
    for with in ["NaN", "inf", "-inf"] {
        let input = text.replacen("policy gnd", &format!("policy explicit {with}"), 1);
        assert!(load_must_not_panic(&input).is_err(), "policy {with} loaded");
    }
}

#[test]
fn random_byte_soup_never_panics() {
    // 400 random inputs over a hostile alphabet of the format's own
    // keywords, digits, signs, exponents and separators, plus raw
    // bytes decoded lossily. The only requirement is totality.
    const ALPHABET: &[u8] = b"mis-charlib 1\nmis-charlib 2\ngate norand\nbudget params \
                              policy gnd resample falling rising slice end 0123456789.e-+ \
                              \t\nNaNinf";
    let mut rng = TestRng::seed_from_u64(0x15_11b);
    for round in 0..400 {
        let len = rng.gen_u64_below(2048) as usize;
        let bytes: Vec<u8> = if round % 2 == 0 {
            (0..len)
                .map(|_| ALPHABET[rng.gen_u64_below(ALPHABET.len() as u64) as usize])
                .collect()
        } else {
            (0..len).map(|_| rng.next_u64() as u8).collect()
        };
        let _ = load_must_not_panic(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn random_mutations_of_the_committed_library_never_panic() {
    // Flip, delete or duplicate one region of the committed library per
    // round: near-valid inputs reach the table validators rather than
    // stopping at the header.
    let base = committed();
    let mut rng = TestRng::seed_from_u64(0x3115);
    for _ in 0..400 {
        let mut s = base.as_bytes().to_vec();
        let at = rng.gen_u64_below(s.len() as u64) as usize;
        match rng.gen_u64_below(3) {
            0 => s[at] = b"0123456789-+.e \nx"[rng.gen_u64_below(17) as usize],
            1 => {
                let end = (at + 1 + rng.gen_u64_below(32) as usize).min(s.len());
                s.drain(at..end);
            }
            _ => {
                let chunk: Vec<u8> = s[at..(at + 40).min(s.len())].to_vec();
                s.splice(at..at, chunk);
            }
        }
        let _ = load_must_not_panic(&String::from_utf8_lossy(&s));
    }
}
