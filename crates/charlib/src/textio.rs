//! Zero-dependency text serialization of characterized libraries.
//!
//! The format is line-oriented and human-diffable so characterized
//! libraries can be committed next to the code and reloaded without
//! re-sweeping. Floats are written with Rust's shortest-round-trip
//! formatting, so `build → save → load` reproduces every sample (and
//! therefore every interpolant tangent) bit for bit.
//!
//! Every library is a NOR library (NAND cells reuse it through the
//! duality), so `gate nor` is the one gate line written and accepted;
//! the line stays so that format version 1 files keep their bytes.
//!
//! Format 2 adds one `resample <family> <points>` header line per
//! surface family: the uniform table size at which the cached channel's
//! resampling meets a quarter of the budget ([`crate::ResampleCounts`]),
//! so a loader tabulates each family once instead of searching for the
//! size. The lines are keyed by family name and may come in any order;
//! each family of the library needs exactly one, and a cell added to the
//! format later adds its own families' lines. A library without counts
//! is written as format 1, and format 1 files still load (their
//! consumers search).
//!
//! ```text
//! mis-charlib 2
//! gate nor
//! budget 1e-13
//! params <r1> <r2> <r3> <r4> <cn> <co> <vdd> <vth> <delta_min>
//! policy gnd
//! resample falling 513
//! resample rising 1025
//! falling 1
//! slice 0e0 65
//! <delta> <delay>
//! ...
//! rising 5
//! slice 0e0 81
//! ...
//! end
//! ```

use std::fmt::Write as _;

use mis_core::{NorParams, RisingInitialVn};

use crate::{CharError, CharLib, DelaySurface, ResampleCounts, SurfaceFamily};

const MAGIC: &str = "mis-charlib";

impl CharLib {
    /// Renders the library as its committed text form.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let version = if self.resample.is_some() { 2 } else { 1 };
        let _ = writeln!(s, "{MAGIC} {version}");
        s.push_str("gate nor\n");
        let _ = writeln!(s, "budget {:e}", self.budget);
        let p = &self.params;
        let _ = writeln!(
            s,
            "params {:e} {:e} {:e} {:e} {:e} {:e} {:e} {:e} {:e}",
            p.r1, p.r2, p.r3, p.r4, p.cn, p.co, p.vdd, p.vth, p.delta_min
        );
        match p.vn_policy {
            RisingInitialVn::Gnd => s.push_str("policy gnd\n"),
            RisingInitialVn::HalfVdd => s.push_str("policy half\n"),
            RisingInitialVn::Vdd => s.push_str("policy vdd\n"),
            RisingInitialVn::Tracked => s.push_str("policy tracked\n"),
            RisingInitialVn::Explicit(v) => {
                let _ = writeln!(s, "policy explicit {v:e}");
            }
        }
        if let Some(counts) = self.resample {
            let _ = writeln!(s, "resample falling {}", counts.falling);
            let _ = writeln!(s, "resample rising {}", counts.rising);
        }
        write_family(&mut s, "falling", &self.falling);
        write_family(&mut s, "rising", &self.rising);
        s.push_str("end\n");
        s
    }

    /// Parses a library from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`CharError::Parse`] with a 1-based line number for any
    /// structural or numeric violation, and propagates table/parameter
    /// validation failures.
    pub fn from_text(text: &str) -> Result<Self, CharError> {
        let mut lines = text.lines().enumerate();
        let (header_no, header) = next_line(&mut lines)?;
        let mut it = header.split_whitespace();
        let version = match (it.next(), it.next(), it.next()) {
            (Some(MAGIC), Some("1"), None) => 1,
            (Some(MAGIC), Some("2"), None) => 2,
            _ => {
                return Err(parse_err(
                    header_no,
                    "expected header 'mis-charlib 1' or 'mis-charlib 2'",
                ))
            }
        };
        let (gate_no, gate_line) = next_line(&mut lines)?;
        if strip_keyword(gate_line, "gate") != Some("nor") {
            return Err(parse_err(gate_no, "expected 'gate nor'"));
        }
        let (budget_no, budget_line) = next_line(&mut lines)?;
        let budget = strip_keyword(budget_line, "budget")
            .ok_or_else(|| parse_err(budget_no, "expected 'budget <seconds>'"))
            .and_then(|t| parse_f64(t, budget_no))?;
        let (pline_no, pline) = next_line(&mut lines)?;
        let mut pit = pline.split_whitespace();
        if pit.next() != Some("params") {
            return Err(parse_err(pline_no, "expected 'params' line"));
        }
        let mut nine = [0.0_f64; 9];
        for slot in &mut nine {
            *slot = pit
                .next()
                .ok_or_else(|| parse_err(pline_no, "params needs nine values"))
                .and_then(|t| parse_f64(t, pline_no))?;
        }
        if pit.next().is_some() {
            return Err(parse_err(pline_no, "trailing tokens on params line"));
        }
        let (pol_no, pol_line) = next_line(&mut lines)?;
        let mut pol = pol_line.split_whitespace();
        if pol.next() != Some("policy") {
            return Err(parse_err(pol_no, "expected 'policy' line"));
        }
        let vn_policy = match pol.next() {
            Some("gnd") => RisingInitialVn::Gnd,
            Some("half") => RisingInitialVn::HalfVdd,
            Some("vdd") => RisingInitialVn::Vdd,
            Some("tracked") => RisingInitialVn::Tracked,
            Some("explicit") => {
                let v = pol
                    .next()
                    .ok_or_else(|| parse_err(pol_no, "explicit policy needs a voltage"))
                    .and_then(|t| parse_f64(t, pol_no))?;
                RisingInitialVn::Explicit(v)
            }
            _ => return Err(parse_err(pol_no, "unknown policy")),
        };
        let params = NorParams {
            r1: nine[0],
            r2: nine[1],
            r3: nine[2],
            r4: nine[3],
            cn: nine[4],
            co: nine[5],
            vdd: nine[6],
            vth: nine[7],
            delta_min: nine[8],
            vn_policy,
        };
        params.validate()?;
        if !(budget > 0.0) || !budget.is_finite() {
            return Err(CharError::InvalidInput {
                reason: "budget must be positive and finite".into(),
            });
        }
        let (resample, falling_head) = if version == 2 {
            let (counts, head) = read_resample_counts(&mut lines)?;
            (Some(counts), head)
        } else {
            (None, next_line(&mut lines)?)
        };
        let falling = read_family(&mut lines, falling_head, "falling")?;
        let rising_head = next_line(&mut lines)?;
        let rising = read_family(&mut lines, rising_head, "rising")?;
        let (end_no, end) = next_line(&mut lines)?;
        if end != "end" {
            return Err(parse_err(end_no, "expected 'end'"));
        }
        Ok(CharLib {
            params,
            budget,
            falling,
            rising,
            resample,
        })
    }
}

type Lines<'a> = std::iter::Enumerate<std::str::Lines<'a>>;

fn write_family(s: &mut String, name: &str, fam: &SurfaceFamily) {
    let _ = writeln!(s, "{name} {}", fam.slices().len());
    for (v, slice) in fam.voltages().iter().zip(fam.slices()) {
        let _ = writeln!(s, "slice {v:e} {}", slice.len());
        for (d, y) in slice.deltas().iter().zip(slice.delays()) {
            let _ = writeln!(s, "{d:e} {y:e}");
        }
    }
}

/// Reads the format-2 `resample <family> <points>` lines, returning the
/// counts and the first line after them (the first family's head).
fn read_resample_counts<'a>(
    lines: &mut Lines<'a>,
) -> Result<(ResampleCounts, (usize, &'a str)), CharError> {
    let (mut falling, mut rising) = (None, None);
    loop {
        let (no, line) = next_line(lines)?;
        let Some(rest) = strip_keyword(line, "resample") else {
            let (Some(falling), Some(rising)) = (falling, rising) else {
                return Err(parse_err(
                    no,
                    "format 2 needs 'resample falling <points>' and 'resample rising <points>'",
                ));
            };
            return Ok((ResampleCounts { falling, rising }, (no, line)));
        };
        let mut it = rest.split_whitespace();
        let slot = match it.next() {
            Some("falling") => &mut falling,
            Some("rising") => &mut rising,
            _ => return Err(parse_err(no, "resample names an unknown family")),
        };
        let points = it
            .next()
            .ok_or_else(|| parse_err(no, "resample needs a point count"))
            .and_then(|t| parse_usize(t, no))?;
        if it.next().is_some() {
            return Err(parse_err(no, "trailing tokens on resample line"));
        }
        if points < 2 {
            return Err(parse_err(no, "a resampled table needs at least two points"));
        }
        if slot.replace(points).is_some() {
            return Err(parse_err(no, "family resampled twice"));
        }
    }
}

fn read_family(
    lines: &mut Lines<'_>,
    (head_no, head): (usize, &str),
    name: &str,
) -> Result<SurfaceFamily, CharError> {
    let n_slices = strip_keyword(head, name)
        .ok_or_else(|| parse_err(head_no, &format!("expected '{name} <slices>'")))
        .and_then(|t| parse_usize(t, head_no))?;
    if n_slices == 0 {
        return Err(parse_err(head_no, "a family needs at least one slice"));
    }
    // Counts come from untrusted text: grow the tables as rows arrive
    // instead of reserving up front, so a huge count ends in "unexpected
    // end of input" rather than a capacity panic or allocation abort.
    let mut voltages = Vec::new();
    let mut slices = Vec::new();
    for _ in 0..n_slices {
        let (sl_no, sl) = next_line(lines)?;
        let mut it = sl.split_whitespace();
        if it.next() != Some("slice") {
            return Err(parse_err(sl_no, "expected 'slice <voltage> <points>'"));
        }
        let v = it
            .next()
            .ok_or_else(|| parse_err(sl_no, "slice needs a voltage"))
            .and_then(|t| parse_f64(t, sl_no))?;
        let n_points = it
            .next()
            .ok_or_else(|| parse_err(sl_no, "slice needs a point count"))
            .and_then(|t| parse_usize(t, sl_no))?;
        if it.next().is_some() {
            return Err(parse_err(sl_no, "trailing tokens on slice line"));
        }
        let mut deltas = Vec::new();
        let mut delays = Vec::new();
        for _ in 0..n_points {
            let (row_no, row) = next_line(lines)?;
            let mut rit = row.split_whitespace();
            let d = rit
                .next()
                .ok_or_else(|| parse_err(row_no, "sample row needs two values"))
                .and_then(|t| parse_f64(t, row_no))?;
            let y = rit
                .next()
                .ok_or_else(|| parse_err(row_no, "sample row needs two values"))
                .and_then(|t| parse_f64(t, row_no))?;
            if rit.next().is_some() {
                return Err(parse_err(row_no, "trailing tokens on sample row"));
            }
            deltas.push(d);
            delays.push(y);
        }
        voltages.push(v);
        slices.push(DelaySurface::from_samples(deltas, delays)?);
    }
    SurfaceFamily::new(voltages, slices)
}

fn next_line<'a>(lines: &mut Lines<'a>) -> Result<(usize, &'a str), CharError> {
    for (no, raw) in lines.by_ref() {
        let t = raw.trim();
        if !t.is_empty() {
            return Ok((no, t));
        }
    }
    Err(CharError::Parse {
        line: 0,
        reason: "unexpected end of input".into(),
    })
}

/// Returns the remainder of `line` after `key` and whitespace, if `line`
/// starts with `key`.
fn strip_keyword<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(key)?;
    let trimmed = rest.trim_start();
    if trimmed.len() == rest.len() && !rest.is_empty() {
        return None; // keyword not followed by whitespace
    }
    Some(trimmed)
}

fn parse_err(line0: usize, reason: &str) -> CharError {
    CharError::Parse {
        line: line0 + 1,
        reason: reason.to_owned(),
    }
}

fn parse_f64(tok: &str, line0: usize) -> Result<f64, CharError> {
    tok.parse::<f64>()
        .map_err(|_| parse_err(line0, &format!("bad float '{tok}'")))
}

fn parse_usize(tok: &str, line0: usize) -> Result<usize, CharError> {
    tok.parse::<usize>()
        .map_err(|_| parse_err(line0, &format!("bad count '{tok}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CharConfig;
    use mis_waveform::units::ps;

    fn tiny_lib() -> CharLib {
        let cfg = CharConfig {
            delta_lo: ps(-60.0),
            delta_hi: ps(60.0),
            initial_points: 5,
            max_points: 129,
            budget: ps(0.5),
            vn_fractions: vec![0.0, 1.0],
        };
        CharLib::nor(&NorParams::paper_table1(), &cfg).unwrap()
    }

    #[test]
    fn round_trip_is_identity() {
        let lib = tiny_lib();
        let text = lib.to_text();
        let loaded = CharLib::from_text(&text).unwrap();
        assert_eq!(lib, loaded, "build → save → load must be the identity");
        // And re-serialization is stable.
        assert_eq!(text, loaded.to_text());
    }

    #[test]
    fn loaded_library_evaluates_identically() {
        let lib = tiny_lib();
        let loaded = CharLib::from_text(&lib.to_text()).unwrap();
        for i in 0..=50 {
            let d = ps(-70.0) + ps(140.0) * i as f64 / 50.0;
            assert_eq!(lib.falling().eval(d, 0.0), loaded.falling().eval(d, 0.0));
            assert_eq!(lib.rising().eval(d, 0.3), loaded.rising().eval(d, 0.3));
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(matches!(
            CharLib::from_text("bogus"),
            Err(CharError::Parse { line: 1, .. })
        ));
        let mut text = tiny_lib().to_text();
        text = text.replacen("budget", "budgie", 1);
        assert!(matches!(
            CharLib::from_text(&text),
            Err(CharError::Parse { line: 3, .. })
        ));
        let mut text = tiny_lib().to_text();
        text = text.replace("end", "");
        assert!(CharLib::from_text(&text).is_err());
    }

    #[test]
    fn corrupted_samples_are_rejected() {
        let lib = tiny_lib();
        let text = lib.to_text();
        // Break a float in the first sample row after the first slice line.
        let broken: String = text
            .lines()
            .map(|l| {
                if l.starts_with("slice") {
                    l.to_owned()
                } else {
                    l.replacen("e-1", "e-1x", 1)
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        if broken != text {
            assert!(CharLib::from_text(&broken).is_err());
        }
        // Truncated body.
        let half: String = text.lines().take(8).collect::<Vec<_>>().join("\n");
        assert!(CharLib::from_text(&half).is_err());
    }

    #[test]
    fn huge_counts_are_a_parse_error_not_a_capacity_panic() {
        // A count line rewritten to `usize::MAX`, once as the last line
        // (truncated input) and once inside an otherwise whole file.
        let text = tiny_lib().to_text();
        let first_slice = text.lines().find(|l| l.starts_with("slice")).unwrap();
        let huge = usize::MAX;
        for (line, bad) in [
            ("falling 1", format!("falling {huge}")),
            (first_slice, format!("slice 0e0 {huge}")),
        ] {
            let whole = text.replacen(line, &bad, 1);
            let cut = &whole[..whole.find(&bad).unwrap() + bad.len()];
            for (input, eof) in [(cut, true), (whole.as_str(), false)] {
                let got = std::panic::catch_unwind(|| CharLib::from_text(input))
                    .expect("a huge count must not panic the loader");
                match got {
                    Err(CharError::Parse { reason, .. }) => {
                        if eof {
                            assert_eq!(reason, "unexpected end of input");
                        }
                    }
                    other => panic!("{bad}: expected a parse error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn resample_counts_round_trip_as_format_2() {
        let lib = tiny_lib();
        assert_eq!(lib.resample_counts(), None);
        assert!(lib.to_text().starts_with("mis-charlib 1\n"));
        let counts = ResampleCounts {
            falling: 257,
            rising: 513,
        };
        let v2 = lib.clone().with_resample_counts(counts);
        let text = v2.to_text();
        assert!(text.starts_with("mis-charlib 2\n"));
        assert!(text.contains("\nresample falling 257\nresample rising 513\nfalling 1\n"));
        let loaded = CharLib::from_text(&text).unwrap();
        assert_eq!(loaded.resample_counts(), Some(counts));
        assert_eq!(loaded, v2);
        assert_eq!(loaded.to_text(), text);
        // The lines are keyed by family, so their order is free.
        let swapped = text.replacen(
            "resample falling 257\nresample rising 513",
            "resample rising 513\nresample falling 257",
            1,
        );
        assert_eq!(CharLib::from_text(&swapped).unwrap(), v2);
        // A format-1 text still loads, without counts.
        assert_eq!(CharLib::from_text(&lib.to_text()).unwrap(), lib);
    }

    #[test]
    fn malformed_resample_lines_are_parse_errors_on_their_line() {
        let text = tiny_lib()
            .with_resample_counts(ResampleCounts {
                falling: 257,
                rising: 513,
            })
            .to_text();
        for (from, to, line) in [
            ("resample rising 513\n", "", 7),
            ("resample rising 513", "resample rising 513 9", 7),
            ("resample rising 513", "resample falling 513", 7),
            ("resample rising 513", "resample inverter 513", 7),
            ("resample rising 513", "resample rising 1", 7),
            ("resample rising 513", "resample rising x", 7),
            ("resample rising 513", "resample rising", 7),
            ("mis-charlib 2", "mis-charlib 3", 1),
        ] {
            let bad = text.replacen(from, to, 1);
            match CharLib::from_text(&bad) {
                Err(CharError::Parse { line: got, .. }) => assert_eq!(got, line, "{to:?}"),
                other => panic!("{to:?}: expected a parse error, got {other:?}"),
            }
        }
        // Counts in a format-1 file are not a header line it knows.
        let v1 = text.replacen("mis-charlib 2", "mis-charlib 1", 1);
        assert!(matches!(
            CharLib::from_text(&v1),
            Err(CharError::Parse { line: 6, .. })
        ));
    }

    #[test]
    fn explicit_policy_round_trips() {
        let mut lib = tiny_lib();
        lib.params.vn_policy = RisingInitialVn::Explicit(0.3141592653589793);
        let loaded = CharLib::from_text(&lib.to_text()).unwrap();
        assert_eq!(loaded.params().vn_policy, lib.params.vn_policy);
    }
}
