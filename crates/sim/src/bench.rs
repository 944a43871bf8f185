//! ISCAS-85 `.bench` netlist ingestion: parser, writer, and lowering
//! onto the [`mis_digital::Network`] builder.
//!
//! The `.bench` format is the lingua franca of the ISCAS benchmark
//! distributions — line-oriented, with `INPUT(x)` / `OUTPUT(y)`
//! declarations and `z = FUNC(a, b, ...)` gate definitions, `#` comments,
//! and no ordering requirement (gates may reference signals defined
//! later in the file). [`BenchNetlist::parse`] accepts that full
//! generality; [`BenchNetlist::lower`] topologically sorts the gates and
//! emits a feed-forward [`Network`] (which *does* require declaration
//! order) with one timed cell per `.bench` gate.
//!
//! Fan-in beyond two is reduced through balanced trees of **zero-time**
//! gates, with the cell — the gate that carries the delay model — at the
//! root: an n-ary `NAND` becomes ideal `AND` subtrees feeding one
//! [`CellLibrary`]-realized `NAND2`, so every `.bench` gate contributes
//! exactly one channel's worth of delay regardless of width. `XNOR`
//! lowers as an ideal `XOR` tree with a celled `NOT` root.
//!
//! # Examples
//!
//! ```
//! use mis_sim::{BenchNetlist, CellLibrary};
//! use mis_waveform::DigitalTrace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//!     INPUT(a)
//!     INPUT(b)
//!     OUTPUT(y)
//!     y = NAND(a, b)  # one gate
//! ";
//! let parsed = BenchNetlist::parse(src)?;
//! assert_eq!(parsed.input_count(), 2);
//! let lowered = parsed.lower(&CellLibrary::ideal())?;
//! let a = DigitalTrace::constant(true);
//! let b = DigitalTrace::constant(true);
//! let traces = lowered.net.run(&[a, b])?;
//! assert!(!traces[lowered.outputs[0].index()].initial_value());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hasher, RandomState};

use mis_digital::{GateKind, Network, SignalId};

use crate::cells::CellLibrary;
use crate::error::BenchError;

/// A gate function the `.bench` format can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchFunc {
    /// n-ary AND.
    And,
    /// n-ary OR.
    Or,
    /// n-ary NAND.
    Nand,
    /// n-ary NOR.
    Nor,
    /// n-ary XOR (odd parity).
    Xor,
    /// n-ary XNOR (even parity).
    Xnor,
    /// Unary inverter.
    Not,
    /// Unary buffer.
    Buff,
}

impl BenchFunc {
    /// Parses a (case-insensitive) function name; `BUF` is accepted as a
    /// synonym for `BUFF`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        const NAMES: [(&str, BenchFunc); 9] = [
            ("AND", BenchFunc::And),
            ("OR", BenchFunc::Or),
            ("NAND", BenchFunc::Nand),
            ("NOR", BenchFunc::Nor),
            ("XOR", BenchFunc::Xor),
            ("XNOR", BenchFunc::Xnor),
            ("NOT", BenchFunc::Not),
            ("BUF", BenchFunc::Buff),
            ("BUFF", BenchFunc::Buff),
        ];
        NAMES
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(_, f)| f)
    }

    /// The canonical upper-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BenchFunc::And => "AND",
            BenchFunc::Or => "OR",
            BenchFunc::Nand => "NAND",
            BenchFunc::Nor => "NOR",
            BenchFunc::Xor => "XOR",
            BenchFunc::Xnor => "XNOR",
            BenchFunc::Not => "NOT",
            BenchFunc::Buff => "BUFF",
        }
    }

    /// Whether the function takes exactly one operand.
    #[must_use]
    pub fn is_unary(self) -> bool {
        matches!(self, BenchFunc::Not | BenchFunc::Buff)
    }
}

/// A parsed `.bench` netlist: declarations and definitions in file
/// order, structurally validated (no duplicates, no dangling references,
/// no combinational cycles) but not yet lowered to a [`Network`].
///
/// Every name is stored once, by *definition index*: `d` names primary
/// input `d` (`d < input_count()`) or gate `d − input_count()`. Gate
/// operands and `OUTPUT` declarations are stored as the definition
/// index they name, and [`BenchNetlist::name`] spells one.
#[derive(Debug, Clone)]
pub struct BenchNetlist {
    /// Every definition's name, concatenated in definition order.
    names: String,
    /// End offset in `names` of each definition's name.
    name_end: Vec<usize>,
    /// Number of primary inputs.
    inputs: usize,
    /// Each gate's function, in file order.
    funcs: Vec<BenchFunc>,
    /// Every gate operand's definition index, in file order: gate `g`'s
    /// operands are `operands[op_start[g]..op_start[g + 1]]`.
    operands: Vec<usize>,
    /// Row starts into `operands`, one per gate plus the end.
    op_start: Vec<usize>,
    /// Each `OUTPUT` declaration's definition index.
    outputs: Vec<usize>,
    /// 1-based source line of each `INPUT` declaration.
    input_lines: Vec<usize>,
    /// 1-based source line of each `OUTPUT` declaration.
    output_lines: Vec<usize>,
    /// 1-based source line of each gate definition.
    gate_lines: Vec<usize>,
    /// Gate indices in topological order.
    topo: Vec<usize>,
}

/// Equality is over the *declarations* only: source-line spans are
/// provenance, not netlist content (the canonical writer re-flows lines,
/// and round-trip identity `parse(to_text(n)) == n` must survive that),
/// and the topological order is a pure function of the declarations.
impl PartialEq for BenchNetlist {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
            && self.name_end == other.name_end
            && self.inputs == other.inputs
            && self.funcs == other.funcs
            && self.operands == other.operands
            && self.op_start == other.op_start
            && self.outputs == other.outputs
    }
}

impl Eq for BenchNetlist {}

/// A `.bench` netlist lowered onto the [`Network`] builder.
#[derive(Debug)]
pub struct LoweredNetlist {
    /// The feed-forward network (gates in topological order; fan-in
    /// reduction trees interleaved before their roots).
    pub net: Network,
    /// Primary inputs, in `INPUT` declaration order.
    pub inputs: Vec<SignalId>,
    /// Designated outputs, in `OUTPUT` declaration order.
    pub outputs: Vec<SignalId>,
}

/// A keyed multiply hasher for the short names of a `.bench` text: one
/// folded 64×64→128-bit multiply per eight bytes where SipHash runs its
/// rounds. Both halves of the product go into every step, so each input
/// bit reaches the low bits the table indexes by. The key is drawn from
/// the standard library's random state once per interner, so colliding
/// names cannot be prepared ahead of a parse; keys are compared in full,
/// so a collision costs time, never a wrong id.
struct NameHasher(u64);

impl NameHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * 0xf135_7aea_2e62_a9c5_u128;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        // The last 1–7 bytes as one word from fixed-size (overlapping)
        // reads, not a variable-length copy, which would cost a `memcpy`
        // call per name.
        let rest = words.remainder();
        let n = rest.len();
        if n >= 4 {
            let lo = u32::from_le_bytes(rest[..4].try_into().expect("four bytes"));
            let hi = u32::from_le_bytes(rest[n - 4..].try_into().expect("four bytes"));
            self.add(u64::from(lo) | (u64::from(hi) << 32));
        } else if n > 0 {
            let (first, mid, last) = (rest[0], rest[n / 2], rest[n - 1]);
            self.add(u64::from(first) | (u64::from(mid) << 8) | (u64::from(last) << 16));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The key of one interner's [`NameHasher`]s.
#[derive(Clone, Copy)]
struct NameKey(u64);

impl NameKey {
    fn random() -> Self {
        NameKey(RandomState::new().hash_one(()))
    }
}

impl BuildHasher for NameKey {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher(self.0)
    }
}

/// The names of one `.bench` text as [`BenchNetlist::parse`] scans it:
/// each distinct name gets the next id at its first appearance, so ids
/// follow written order.
struct Interner<'t> {
    id_of: HashMap<&'t str, usize, NameKey>,
    /// One entry per name id.
    entries: Vec<Interned<'t>>,
    /// The first redefinition in written order, as (line, name id).
    duplicate: Option<(usize, usize)>,
}

struct Interned<'t> {
    name: &'t str,
    /// The line the name first appears on.
    line: usize,
    /// Whether a definition of the name has been read.
    defined: bool,
}

impl<'t> Interner<'t> {
    /// An interner for `text`, sized so that it does not rehash on a
    /// netlist with about one name per 16 bytes (C880 has one per 20).
    fn for_text(text: &str) -> Self {
        let names = text.len() / 16;
        Interner {
            id_of: HashMap::with_capacity_and_hasher(names, NameKey::random()),
            entries: Vec::with_capacity(names),
            duplicate: None,
        }
    }

    /// The id of a referenced name.
    fn intern(&mut self, name: &'t str, line: usize) -> usize {
        let next = self.entries.len();
        let id = *self.id_of.entry(name).or_insert(next);
        if id == next {
            self.entries.push(Interned {
                name,
                line,
                defined: false,
            });
        }
        id
    }

    /// The id of a defined name; a second definition is noted, not
    /// reported, because a later syntax error takes precedence.
    fn define(&mut self, name: &'t str, line: usize) -> usize {
        let id = self.intern(name, line);
        if std::mem::replace(&mut self.entries[id].defined, true) {
            self.duplicate.get_or_insert((line, id));
        }
        id
    }
}

impl BenchNetlist {
    /// Number of primary inputs: definitions `0..input_count()`, in
    /// `INPUT` declaration order.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs
    }

    /// Number of gate definitions: gate `g` is definition
    /// `input_count() + g`, in file order.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.funcs.len()
    }

    /// The name of definition `d`.
    ///
    /// # Panics
    ///
    /// If `d` is not below `input_count() + gate_count()`.
    #[must_use]
    pub fn name(&self, d: usize) -> &str {
        let start = d.checked_sub(1).map_or(0, |prev| self.name_end[prev]);
        &self.names[start..self.name_end[d]]
    }

    /// Gate `g`'s function.
    #[must_use]
    pub fn func(&self, g: usize) -> BenchFunc {
        self.funcs[g]
    }

    /// The definition indices of gate `g`'s operands, in written order.
    #[must_use]
    pub fn operands(&self, g: usize) -> &[usize] {
        &self.operands[self.op_start[g]..self.op_start[g + 1]]
    }

    /// The definition index each `OUTPUT` declaration names, in
    /// declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// 1-based source line of each `INPUT` declaration, in declaration
    /// order.
    #[must_use]
    pub fn input_lines(&self) -> &[usize] {
        &self.input_lines
    }

    /// 1-based source line of each `OUTPUT` declaration, parallel to
    /// [`BenchNetlist::outputs`].
    #[must_use]
    pub fn output_lines(&self) -> &[usize] {
        &self.output_lines
    }

    /// 1-based source line of each gate definition, in file order.
    #[must_use]
    pub fn gate_lines(&self) -> &[usize] {
        &self.gate_lines
    }

    /// Parses `.bench` text. Blank lines and `#` comments (whole-line or
    /// trailing) are ignored; `INPUT`/`OUTPUT` and function names are
    /// case-insensitive; whitespace is free around every token. Files
    /// exported from Windows tooling parse unchanged: CRLF line endings
    /// are accepted (both by `str::lines` and, for stray `\r`, by token
    /// trimming), and a leading UTF-8 byte-order mark is ignored.
    ///
    /// One scan reads every line and interns each name once; the
    /// netlist then stores only definition indices and one name table.
    ///
    /// # Errors
    ///
    /// One [`BenchError`] variant per malformed-input class — see the
    /// variant docs. A line-local error ([`BenchError::Syntax`],
    /// [`BenchError::UnknownFunction`], [`BenchError::BadArity`]) is
    /// reported at its first occurrence; otherwise [`BenchError::Empty`]
    /// comes first, then the first duplicate definition (at its second
    /// occurrence), then the first reference in written order to an
    /// undefined name, then a [`BenchError::Cycle`].
    pub fn parse(text: &str) -> Result<Self, BenchError> {
        // The BOM would otherwise glue itself onto the first token and
        // turn `INPUT(...)` into an unrecognized keyword.
        let text = text.strip_prefix('\u{FEFF}').unwrap_or(text);
        let mut names = Interner::for_text(text);
        // Name ids of the definitions: `INPUT`s, and gates in file order.
        let mut input_ids = Vec::new();
        let mut gate_ids = Vec::new();
        let mut funcs = Vec::new();
        // Operands and `OUTPUT`s hold name ids until the scan ends.
        let mut operands = Vec::new();
        let mut op_start = vec![0];
        let mut outputs = Vec::new();
        let mut input_lines = Vec::new();
        let mut output_lines = Vec::new();
        let mut gate_lines = Vec::new();
        // Operand names of the current line, reused across lines.
        let mut args: Vec<&str> = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = no + 1;
            // Strip trailing comment, then surrounding whitespace.
            let code = raw.split('#').next().unwrap_or("").trim();
            if code.is_empty() {
                continue;
            }
            if let Some(eq) = code.find('=') {
                let name = code[..eq].trim();
                check_signal_name(line, name)?;
                let func_name = parse_call(line, code[eq + 1..].trim(), &mut args)?;
                let func =
                    BenchFunc::from_name(func_name).ok_or_else(|| BenchError::UnknownFunction {
                        line,
                        name: func_name.to_owned(),
                    })?;
                check_arity(line, func, args.len())?;
                gate_ids.push(names.define(name, line));
                funcs.push(func);
                gate_lines.push(line);
                operands.extend(args.iter().map(|op| names.intern(op, line)));
                op_start.push(operands.len());
            } else {
                let kw = parse_call(line, code, &mut args)?;
                let is_input = kw.eq_ignore_ascii_case("INPUT");
                if !is_input && !kw.eq_ignore_ascii_case("OUTPUT") {
                    return Err(BenchError::Syntax {
                        line,
                        reason: format!("expected INPUT/OUTPUT declaration, got '{kw}(...)'"),
                    });
                }
                let &[name] = args.as_slice() else {
                    return Err(BenchError::Syntax {
                        line,
                        reason: format!("{kw} takes exactly one signal name"),
                    });
                };
                if is_input {
                    input_ids.push(names.define(name, line));
                    input_lines.push(line);
                } else {
                    outputs.push(names.intern(name, line));
                    output_lines.push(line);
                }
            }
        }
        if input_ids.is_empty() {
            return Err(BenchError::Empty);
        }
        if let Some((line, id)) = names.duplicate {
            return Err(BenchError::Duplicate {
                line,
                name: names.entries[id].name.to_owned(),
            });
        }
        // Ids follow written order and an undefined name is only ever
        // referenced, so the lowest undefined id is the first dangling
        // reference, at the line its name first appears on.
        if let Some(e) = names.entries.iter().find(|e| !e.defined) {
            return Err(BenchError::Undefined {
                line: e.line,
                name: e.name.to_owned(),
            });
        }
        // Every name is now defined exactly once: renumber name ids as
        // definition indices and spell the names in that order.
        let mut def_of = vec![0; names.entries.len()];
        let mut spelled =
            String::with_capacity(names.entries.iter().map(|e| e.name.len()).sum::<usize>());
        let mut name_end = Vec::with_capacity(def_of.len());
        for (d, &id) in input_ids.iter().chain(&gate_ids).enumerate() {
            def_of[id] = d;
            spelled.push_str(names.entries[id].name);
            name_end.push(spelled.len());
        }
        for id in operands.iter_mut().chain(&mut outputs) {
            *id = def_of[*id];
        }
        let mut nl = BenchNetlist {
            names: spelled,
            name_end,
            inputs: input_ids.len(),
            funcs,
            operands,
            op_start,
            outputs,
            input_lines,
            output_lines,
            gate_lines,
            topo: Vec::new(),
        };
        nl.topo = nl.topo_order()?;
        Ok(nl)
    }

    /// Renders the netlist in canonical `.bench` form: `INPUT` block,
    /// `OUTPUT` block, then gate definitions in stored order. The output
    /// re-parses to an equal [`BenchNetlist`] (round-trip identity).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for d in 0..self.inputs {
            let _ = writeln!(s, "INPUT({})", self.name(d));
        }
        s.push('\n');
        for &d in &self.outputs {
            let _ = writeln!(s, "OUTPUT({})", self.name(d));
        }
        s.push('\n');
        for (g, func) in self.funcs.iter().enumerate() {
            let _ = write!(s, "{} = {}(", self.name(self.inputs + g), func.name());
            for (k, &d) in self.operands(g).iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                s.push_str(self.name(d));
            }
            s.push_str(")\n");
        }
        s
    }

    /// Gate indices in a topological order (inputs-before-users), stable
    /// with respect to file order among independent gates.
    ///
    /// The order is that of repeated stable scans in file order, each
    /// scan placing every gate whose gate operands are already placed:
    /// gate `i` lands in pass `p(i) = max(1, max over its gate operands
    /// j of p(j) + [j > i])` (an operand later in the file is placed one
    /// pass too late for `i` to follow it in the same scan), and the
    /// order is ascending `(p(i), i)`. Passes are computed in Kahn
    /// order, so the sort is `O(N log N)` where the scans were
    /// quadratic on long chains listed against dependency order.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Cycle`] naming the first gate in file order
    /// that is on, or downstream of, a cycle.
    fn topo_order(&self) -> Result<Vec<usize>, BenchError> {
        let ni = self.inputs;
        let n = self.funcs.len();
        // Gate `i`'s gate operands (with multiplicity), as gate indices.
        let gate_ops = |i: usize| {
            self.operands(i)
                .iter()
                .filter_map(move |&d| d.checked_sub(ni))
        };
        // The users of each gate, as CSR rows.
        let mut waiting: Vec<usize> = (0..n).map(|i| gate_ops(i).count()).collect();
        let mut start = vec![0usize; n + 1];
        for j in (0..n).flat_map(gate_ops) {
            start[j + 1] += 1;
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let mut users = vec![0usize; start[n]];
        let mut cursor = start.clone();
        for i in 0..n {
            for j in gate_ops(i) {
                users[cursor[j]] = i;
                cursor[j] += 1;
            }
        }
        let mut pass = vec![1usize; n];
        // Kahn order, with `order` itself as the work queue: a gate's
        // pass is final once all its operands are placed, whatever the
        // order they were placed in.
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| waiting[i] == 0));
        let mut next = 0;
        while let Some(&j) = order.get(next) {
            next += 1;
            for &i in &users[start[j]..start[j + 1]] {
                pass[i] = pass[i].max(pass[j] + usize::from(j > i));
                waiting[i] -= 1;
                if waiting[i] == 0 {
                    order.push(i);
                }
            }
        }
        if order.len() < n {
            // A gate still waiting on an operand is on, or downstream
            // of, a cycle.
            let i = waiting
                .iter()
                .position(|&w| w > 0)
                .expect("a gate is unplaced");
            return Err(BenchError::Cycle {
                line: self.gate_lines[i],
                name: self.name(ni + i).to_owned(),
            });
        }
        order.sort_unstable_by_key(|&i| (pass[i], i));
        Ok(order)
    }

    /// Lowers the netlist onto a [`Network`], realizing each `.bench`
    /// gate as one `cells` cell (fan-in reduced through zero-time trees,
    /// see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates [`Network`] builder failures as [`BenchError::Build`]
    /// (defensive — validation already covers the builder's checks).
    pub fn lower(&self, cells: &CellLibrary) -> Result<LoweredNetlist, BenchError> {
        let ni = self.inputs;
        let mut net = Network::with_capacity(self.lowered_stats().signals);
        // The lowered signal of each definition index.
        let mut id_of: Vec<Option<SignalId>> = vec![None; ni + self.funcs.len()];
        let mut inputs = Vec::with_capacity(ni);
        for (d, id_slot) in id_of[..ni].iter_mut().enumerate() {
            let id = net.add_input(self.name(d));
            *id_slot = Some(id);
            inputs.push(id);
        }
        let mut ops: Vec<SignalId> = Vec::new();
        let mut tmp = String::new();
        for &gi in &self.topo {
            ops.clear();
            ops.extend(
                self.operands(gi)
                    .iter()
                    .map(|&d| id_of[d].expect("topological order lowers operands first")),
            );
            let name = self.name(ni + gi);
            let id = lower_gate(&mut net, cells, &mut tmp, name, self.funcs[gi], &ops)?;
            id_of[ni + gi] = Some(id);
        }
        let outputs = self
            .outputs
            .iter()
            .map(|&d| id_of[d].expect("every definition is lowered"))
            .collect();
        Ok(LoweredNetlist {
            net,
            inputs,
            outputs,
        })
    }

    /// Exact post-lowering size of this netlist — the signal count and
    /// total fan-out edge count [`BenchNetlist::lower`] will produce —
    /// computed *without* building anything, so callers (the `A007`
    /// pre-flight lint) can predict
    /// [`mis_digital::SimError::NetworkTooLarge`] before
    /// [`crate::Simulator::new`] allocates. Counts saturate instead of
    /// wrapping, which keeps the comparison against
    /// [`crate::ENGINE_INDEX_MAX`] meaningful even for absurd inputs.
    ///
    /// Per `.bench` gate of fan-in `n`, lowering emits: `n − 1` two-input
    /// gates for `AND`/`OR`/`XOR`/`NAND`/`NOR` (a balanced zero-time tree
    /// with the timed cell at the root), `n − 1` two-input gates plus a
    /// unary root for `XNOR`, and one unary gate for `NOT`/`BUFF`. Each
    /// two-input gate contributes two fan-out edges, each unary gate one.
    #[must_use]
    pub fn lowered_stats(&self) -> LoweredStats {
        let mut signals = self.inputs;
        let mut edges = 0usize;
        for (g, &func) in self.funcs.iter().enumerate() {
            let n = self.operands(g).len();
            let (binary, unary) = match func {
                BenchFunc::Not | BenchFunc::Buff => (0, 1),
                BenchFunc::Xnor => (n - 1, 1),
                _ => (n - 1, 0),
            };
            signals = signals.saturating_add(binary + unary);
            edges = edges.saturating_add(2 * binary + unary);
        }
        LoweredStats { signals, edges }
    }
}

/// The exact size [`BenchNetlist::lower`] produces, predicted by
/// [`BenchNetlist::lowered_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredStats {
    /// Total signal count of the lowered [`Network`] (primary inputs,
    /// reduction-tree temporaries, and cell roots).
    pub signals: usize,
    /// Total fan-out edge count (with multiplicity).
    pub edges: usize,
}

/// Lowers one `.bench` gate: a zero-time balanced reduction tree with the
/// timed cell at the root. `tmp` is a scratch buffer for the tree's
/// temporary names, reused across gates.
fn lower_gate(
    net: &mut Network,
    cells: &CellLibrary,
    tmp: &mut String,
    name: &str,
    func: BenchFunc,
    ops: &[SignalId],
) -> Result<SignalId, BenchError> {
    let mut temps = Temps {
        name,
        buf: tmp,
        next: 0,
    };
    let id = match func {
        BenchFunc::Not => cells.add_unary(net, name, GateKind::Not, ops[0])?,
        BenchFunc::Buff => cells.add_unary(net, name, GateKind::Buf, ops[0])?,
        BenchFunc::And | BenchFunc::Or | BenchFunc::Xor => {
            let kind = match func {
                BenchFunc::And => GateKind::And,
                BenchFunc::Or => GateKind::Or,
                _ => GateKind::Xor,
            };
            let mid = ops.len() / 2;
            let left = reduce_ideal(net, &mut temps, kind, &ops[..mid])?;
            let right = reduce_ideal(net, &mut temps, kind, &ops[mid..])?;
            cells.add(net, name, kind, left, right)?
        }
        BenchFunc::Nand | BenchFunc::Nor => {
            // The inverting cell sits at the root; its fan-in halves are
            // reduced with the *non-inverted* function (AND under NAND,
            // OR under NOR) so the overall Boolean function is exact.
            let (inner, root) = if func == BenchFunc::Nand {
                (GateKind::And, GateKind::Nand)
            } else {
                (GateKind::Or, GateKind::Nor)
            };
            let mid = ops.len() / 2;
            let left = reduce_ideal(net, &mut temps, inner, &ops[..mid])?;
            let right = reduce_ideal(net, &mut temps, inner, &ops[mid..])?;
            cells.add(net, name, root, left, right)?
        }
        BenchFunc::Xnor => {
            let parity = reduce_ideal(net, &mut temps, GateKind::Xor, ops)?;
            cells.add_unary(net, name, GateKind::Not, parity)?
        }
    };
    Ok(id)
}

/// Names the zero-time temporaries of one `.bench` gate `name`,
/// `<name>#t<k>` in creation order.
struct Temps<'a> {
    name: &'a str,
    buf: &'a mut String,
    next: usize,
}

impl Temps<'_> {
    fn next_name(&mut self) -> &str {
        self.buf.clear();
        let _ = write!(self.buf, "{}#t{}", self.name, self.next);
        self.next += 1;
        self.buf
    }
}

/// Reduces `ops` to one signal through a balanced tree of zero-time
/// `kind` gates (a single operand passes through untouched).
fn reduce_ideal(
    net: &mut Network,
    temps: &mut Temps<'_>,
    kind: GateKind,
    ops: &[SignalId],
) -> Result<SignalId, BenchError> {
    Ok(match ops {
        [] => unreachable!("arity checked at parse time"),
        [one] => *one,
        [a, b] => net.add_gate(temps.next_name(), kind, &[*a, *b], None)?,
        _ => {
            let mid = ops.len() / 2;
            let left = reduce_ideal(net, temps, kind, &ops[..mid])?;
            let right = reduce_ideal(net, temps, kind, &ops[mid..])?;
            net.add_gate(temps.next_name(), kind, &[left, right], None)?
        }
    })
}

/// Splits `NAME ( a , b )` into the name, returned, and its operand
/// list, written over `args`. Rejects missing/mismatched parentheses,
/// empty operands, and garbage after the closing parenthesis.
fn parse_call<'t>(
    line: usize,
    code: &'t str,
    args: &mut Vec<&'t str>,
) -> Result<&'t str, BenchError> {
    let open = code.find('(').ok_or_else(|| BenchError::Syntax {
        line,
        reason: format!("expected '(' in '{code}'"),
    })?;
    let name = code[..open].trim();
    check_signal_name(line, name)?;
    let rest = &code[open + 1..];
    let close = rest.rfind(')').ok_or_else(|| BenchError::Syntax {
        line,
        reason: "missing ')'".into(),
    })?;
    if !rest[close + 1..].trim().is_empty() {
        return Err(BenchError::Syntax {
            line,
            reason: format!("unexpected trailing text '{}'", rest[close + 1..].trim()),
        });
    }
    let body = rest[..close].trim();
    if body.is_empty() {
        return Err(BenchError::Syntax {
            line,
            reason: "empty operand list".into(),
        });
    }
    args.clear();
    for op in body.split(',') {
        let op = op.trim();
        check_signal_name(line, op)?;
        args.push(op);
    }
    Ok(name)
}

/// Signal names: non-empty, no whitespace, none of the structural
/// characters `( ) , = #`.
fn check_signal_name(line: usize, name: &str) -> Result<(), BenchError> {
    if name.is_empty() {
        return Err(BenchError::Syntax {
            line,
            reason: "empty signal name".into(),
        });
    }
    let forbidden = |c: char| matches!(c, '(' | ')' | ',' | '=' | '#') || c.is_whitespace();
    // Bytes up to the first non-ASCII or forbidden one; `char`s are
    // decoded only from there on.
    let Some(from) = name
        .bytes()
        .position(|b| !b.is_ascii() || forbidden(char::from(b)))
    else {
        return Ok(());
    };
    if let Some(bad) = name[from..].chars().find(|&c| forbidden(c)) {
        return Err(BenchError::Syntax {
            line,
            reason: format!("invalid character '{bad}' in signal name '{name}'"),
        });
    }
    Ok(())
}

fn check_arity(line: usize, func: BenchFunc, count: usize) -> Result<(), BenchError> {
    let ok = if func.is_unary() {
        count == 1
    } else {
        count >= 2
    };
    if ok {
        Ok(())
    } else {
        Err(BenchError::BadArity {
            line,
            function: func.name().to_owned(),
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::DigitalTrace;

    const C17: &str = "
        # c17 cut
        INPUT(1)
        INPUT(2)
        INPUT(3)
        INPUT(6)
        INPUT(7)
        OUTPUT(22)
        OUTPUT(23)
        10 = NAND(1, 3)
        11 = NAND(3, 6)
        16 = NAND(2, 11)
        19 = NAND(11, 7)
        22 = NAND(10, 16)
        23 = NAND(16, 19)
    ";

    #[test]
    fn parses_c17_and_round_trips() {
        let nl = BenchNetlist::parse(C17).unwrap();
        assert_eq!(nl.input_count(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 6);
        let again = BenchNetlist::parse(&nl.to_text()).unwrap();
        assert_eq!(nl, again);
    }

    #[test]
    fn forward_references_are_legal_and_lower_correctly() {
        // Gate `y` references `z`, defined later in the file.
        let nl = BenchNetlist::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = BUFF(a)").unwrap();
        let lowered = nl.lower(&CellLibrary::ideal()).unwrap();
        let traces = lowered.net.run(&[DigitalTrace::constant(true)]).unwrap();
        assert!(!traces[lowered.outputs[0].index()].initial_value());
    }

    #[test]
    fn wide_gates_reduce_to_exact_boolean_functions() {
        let nl = BenchNetlist::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n\
             OUTPUT(w)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n\
             w = NAND(a, b, c, d, e)\n\
             x = NOR(a, b, c)\n\
             y = XOR(a, b, c, d)\n\
             z = XNOR(a, b, c)",
        )
        .unwrap();
        let cells = CellLibrary::ideal();
        let lowered = nl.lower(&cells).unwrap();
        for bits in 0..32u32 {
            let vals: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let inputs: Vec<DigitalTrace> =
                vals.iter().map(|&v| DigitalTrace::constant(v)).collect();
            let traces = lowered.net.run(&inputs).unwrap();
            let get = |k: usize| traces[lowered.outputs[k].index()].initial_value();
            assert_eq!(get(0), !vals.iter().all(|&v| v), "NAND5 {bits:05b}");
            assert_eq!(get(1), !vals[..3].iter().any(|&v| v), "NOR3 {bits:05b}");
            let par4 = vals[..4].iter().filter(|&&v| v).count() % 2 == 1;
            assert_eq!(get(2), par4, "XOR4 {bits:05b}");
            let par3 = vals[..3].iter().filter(|&&v| v).count() % 2 == 1;
            assert_eq!(get(3), !par3, "XNOR3 {bits:05b}");
        }
    }

    #[test]
    fn comment_and_whitespace_torture() {
        let nl = BenchNetlist::parse(
            "\t # leading comment\n\
             \n\
             input( a )# trailing\n\
             INPUT(b)\n\
             output(y)\n\
             y   =   nand (  a ,\tb )   # gate\n",
        )
        .unwrap();
        assert_eq!((nl.input_count(), nl.name(0), nl.name(1)), (2, "a", "b"));
        assert_eq!(nl.outputs(), [2]);
        assert_eq!(nl.name(2), "y");
        assert_eq!(nl.func(0), BenchFunc::Nand);
        assert_eq!(nl.operands(0), [0, 1]);
    }

    #[test]
    fn crlf_and_bom_parse_like_bare_newlines() {
        let plain = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
        let windows = "\u{FEFF}INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = NAND(a, b)\r\n";
        assert_eq!(
            BenchNetlist::parse(windows).unwrap(),
            BenchNetlist::parse(plain).unwrap()
        );
        // A BOM with no following newline convention still parses, and a
        // file ending in a bare `\r` (no final newline) does too.
        let stub = "\u{FEFF}INPUT(a)\ny = NOT(a)\r";
        assert_eq!(BenchNetlist::parse(stub).unwrap().gate_count(), 1);
    }

    #[test]
    fn errors_carry_real_source_lines() {
        // Duplicate: reported at the *second* occurrence.
        match BenchNetlist::parse("INPUT(a)\n\nINPUT(a)").unwrap_err() {
            BenchError::Duplicate { line, name } => {
                assert_eq!((line, name.as_str()), (3, "a"));
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }
        match BenchNetlist::parse("INPUT(a)\ny = NOT(a)\n# pad\ny = BUFF(a)").unwrap_err() {
            BenchError::Duplicate { line, name } => {
                assert_eq!((line, name.as_str()), (4, "y"));
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }
        // BadArity and Syntax: the offending definition's line.
        match BenchNetlist::parse("INPUT(a)\n\ny = NOT(a, a)").unwrap_err() {
            BenchError::BadArity { line, .. } => assert_eq!(line, 3),
            other => panic!("expected BadArity, got {other:?}"),
        }
        match BenchNetlist::parse("INPUT(a)\ny = NOT(a) trailing").unwrap_err() {
            BenchError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Syntax, got {other:?}"),
        }
        // Undefined: the first referencing line (here the OUTPUT
        // declaration precedes the gate that also references it).
        match BenchNetlist::parse("INPUT(a)\nOUTPUT(ghost)\ny = NAND(a, ghost)").unwrap_err() {
            BenchError::Undefined { line, name } => {
                assert_eq!((line, name.as_str()), (2, "ghost"));
            }
            other => panic!("expected Undefined, got {other:?}"),
        }
        // Cycle: a gate definition on the cycle.
        match BenchNetlist::parse("INPUT(a)\nx = NAND(a, y)\ny = NAND(a, x)").unwrap_err() {
            BenchError::Cycle { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Cycle, got {other:?}"),
        }
    }

    #[test]
    fn signal_names_report_their_first_forbidden_character() {
        for ok in ["a", "N_17.x", "ü", "dé", "a\u{0}b", "名前"] {
            assert_eq!(check_signal_name(1, ok), Ok(()), "{ok:?}");
        }
        // ASCII and non-ASCII whitespace, structural characters, and a
        // forbidden ASCII character after a non-ASCII one.
        for (name, bad) in [
            ("a\u{b}b", '\u{b}'),
            ("a\u{c}", '\u{c}'),
            ("x#", '#'),
            ("a\u{a0}b", '\u{a0}'),
            ("é=b", '='),
            ("ü\u{2003}(", '\u{2003}'),
        ] {
            let want = BenchError::Syntax {
                line: 4,
                reason: format!("invalid character '{bad}' in signal name '{name}'"),
            };
            assert_eq!(check_signal_name(4, name), Err(want), "{name:?}");
        }
        assert!(matches!(
            check_signal_name(2, ""),
            Err(BenchError::Syntax { line: 2, .. })
        ));
    }

    #[test]
    fn interners_with_different_keys_assign_the_same_ids() {
        let names = ["a", "b", "N1", "N10", "a_long_signal_name_17", "a", "N1"];
        let ids = |key: NameKey| {
            let mut interner = Interner {
                id_of: HashMap::with_hasher(key),
                entries: Vec::new(),
                duplicate: None,
            };
            names
                .iter()
                .map(|n| interner.intern(n, 1))
                .collect::<Vec<_>>()
        };
        let want = vec![0, 1, 2, 3, 4, 0, 2];
        assert_eq!(ids(NameKey(0)), want);
        assert_eq!(ids(NameKey(u64::MAX)), want);
        assert_eq!(ids(NameKey::random()), want);
    }

    #[test]
    fn error_precedence_across_classes_and_within_undefined() {
        // Each text holds several faults; the one reported is pinned.
        // Line-local errors anywhere beat every semantic one, then
        // Empty > Duplicate > Undefined > Cycle, and among undefined
        // names the first reference in written order wins.
        let later_syntax = "INPUT(a)\nINPUT(a)\ny = NOT(a) junk";
        assert!(matches!(
            BenchNetlist::parse(later_syntax),
            Err(BenchError::Syntax { line: 3, .. })
        ));
        match BenchNetlist::parse("INPUT(a)\nINPUT(a)\ny = DFF(a)") {
            Err(BenchError::UnknownFunction { line: 3, name }) => assert_eq!(name, "DFF"),
            other => panic!("expected UnknownFunction, got {other:?}"),
        }
        match BenchNetlist::parse("INPUT(a)\nINPUT(a)\ny = NOT(a, a)") {
            Err(BenchError::BadArity {
                line: 3,
                function,
                count: 2,
            }) => assert_eq!(function, "NOT"),
            other => panic!("expected BadArity, got {other:?}"),
        }
        let cases: [(&str, BenchError); 9] = [
            // Empty beats a duplicate and an undefined name.
            ("OUTPUT(y)\ny = NOT(z)\ny = BUFF(z)", BenchError::Empty),
            // Duplicate beats an earlier undefined reference.
            (
                "INPUT(a)\nOUTPUT(ghost)\ny = NOT(a)\ny = BUFF(a)",
                BenchError::Duplicate {
                    line: 4,
                    name: "y".into(),
                },
            ),
            // The first duplicate in written order, a gate redefining
            // an input included.
            (
                "INPUT(a)\ny = NOT(a)\nz = NOT(a)\nz = BUFF(a)\ny = BUFF(a)",
                BenchError::Duplicate {
                    line: 4,
                    name: "z".into(),
                },
            ),
            (
                "INPUT(a)\nINPUT(b)\nb = NOT(a)\na = NOT(b)",
                BenchError::Duplicate {
                    line: 3,
                    name: "b".into(),
                },
            ),
            // Undefined beats a cycle written before it.
            (
                "INPUT(a)\nx = NAND(a, y)\ny = NAND(a, x)\nz = NOT(ghost)",
                BenchError::Undefined {
                    line: 4,
                    name: "ghost".into(),
                },
            ),
            // Two undefined operands on one line: the first written.
            (
                "INPUT(a)\ny = NAND(p, q)\nOUTPUT(q)",
                BenchError::Undefined {
                    line: 2,
                    name: "p".into(),
                },
            ),
            // An OUTPUT line before the first gate using the name.
            (
                "INPUT(a)\nOUTPUT(r)\ny = NAND(a, q)\nz = NOT(r)",
                BenchError::Undefined {
                    line: 2,
                    name: "r".into(),
                },
            ),
            // A gate operand before a later undefined OUTPUT.
            (
                "INPUT(a)\ny = NOT(q)\nOUTPUT(r)",
                BenchError::Undefined {
                    line: 2,
                    name: "q".into(),
                },
            ),
            // The cycle alone: its first gate in file order.
            (
                "INPUT(a)\nOUTPUT(z)\nz = NOT(x)\nx = NAND(a, y)\ny = NAND(a, x)",
                BenchError::Cycle {
                    line: 3,
                    name: "z".into(),
                },
            ),
        ];
        for (text, want) in cases {
            assert_eq!(BenchNetlist::parse(text).unwrap_err(), want, "{text:?}");
        }
    }

    #[test]
    fn spans_track_declarations_and_survive_cloning() {
        let nl = BenchNetlist::parse(C17).unwrap();
        assert_eq!(nl.input_lines(), [3, 4, 5, 6, 7]);
        assert_eq!(nl.output_lines(), [8, 9]);
        assert_eq!(nl.gate_lines(), [10, 11, 12, 13, 14, 15]);
        // Spans are provenance, not content: the round-tripped netlist
        // compares equal even though the writer re-flowed every line.
        let again = BenchNetlist::parse(&nl.to_text()).unwrap();
        assert_eq!(nl, again);
        assert_ne!(nl.input_lines(), again.input_lines());
        let cloned = nl.clone();
        assert_eq!(cloned.gate_lines(), nl.gate_lines());
    }

    #[test]
    fn lowered_stats_match_lowering_exactly() {
        for src in [
            C17,
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n\
             OUTPUT(w)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n\
             w = NAND(a, b, c, d, e)\n\
             x = NOR(a, b, c)\n\
             y = XOR(a, b, c, d)\n\
             z = XNOR(a, b, c)",
            "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = BUFF(n)",
        ] {
            let nl = BenchNetlist::parse(src).unwrap();
            let stats = nl.lowered_stats();
            let lowered = nl.lower(&CellLibrary::ideal()).unwrap();
            assert_eq!(stats.signals, lowered.net.signal_count(), "{src:?}");
            let mut edges = 0;
            for s in 0..lowered.net.signal_count() {
                let id = lowered.net.signal_id(s).unwrap();
                edges += match lowered.net.source(id) {
                    mis_digital::SignalSource::Input => 0,
                    mis_digital::SignalSource::Gate { inputs, .. } => inputs.len(),
                    mis_digital::SignalSource::TwoInputChannelGate { .. } => 2,
                };
            }
            assert_eq!(stats.edges, edges, "{src:?}");
        }
    }

    /// One generated gate: output name, function, operand names.
    type Gate = (String, BenchFunc, Vec<String>);

    /// The order of repeated stable file-order scans, each placing
    /// every gate whose gate operands are placed — the quadratic
    /// algorithm `topo_order` replaced, kept as its oracle. On a cycle,
    /// the first gate in file order left unplaced.
    fn scan_order(gates: &[Gate]) -> Result<Vec<usize>, String> {
        let gate_of: HashMap<&str, usize> = gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.0.as_str(), i))
            .collect();
        let mut order = Vec::new();
        let mut placed = vec![false; gates.len()];
        loop {
            let mut progressed = false;
            for (i, g) in gates.iter().enumerate() {
                let ready =
                    g.2.iter()
                        .all(|op| gate_of.get(op.as_str()).is_none_or(|&j| placed[j]));
                if !placed[i] && ready {
                    placed[i] = true;
                    order.push(i);
                    progressed = true;
                }
            }
            if order.len() == gates.len() {
                return Ok(order);
            }
            if !progressed {
                let i = placed.iter().position(|&p| !p).unwrap();
                return Err(gates[i].0.clone());
            }
        }
    }

    #[test]
    fn topo_order_equals_the_stable_scan_on_shuffled_random_dags() {
        use mis_testkit::rng::TestRng;
        for seed in 0..300u64 {
            let mut rng = TestRng::seed_from_u64(seed);
            let n_inputs = 1 + rng.gen_u64_below(3) as usize;
            let n_gates = 1 + rng.gen_u64_below(40) as usize;
            let mut names: Vec<String> = (0..n_inputs).map(|i| format!("i{i}")).collect();
            // Gates in creation (dependency) order: each reads earlier
            // names, so the netlist is a DAG before any cycle is added.
            let mut gates: Vec<Gate> = (0..n_gates)
                .map(|g| {
                    let (func, arity) = if rng.gen_bool(0.3) {
                        (BenchFunc::Not, 1)
                    } else {
                        (BenchFunc::Nand, 2 + rng.gen_u64_below(3) as usize)
                    };
                    let ops = (0..arity)
                        .map(|_| names[rng.gen_u64_below(names.len() as u64) as usize].clone())
                        .collect();
                    names.push(format!("g{g}"));
                    (format!("g{g}"), func, ops)
                })
                .collect();
            // One seed in eight closes a cycle through a later gate.
            if n_gates > 1 && seed % 8 == 0 {
                let (a, b) = (rng.gen_u64_below(n_gates as u64 - 1) as usize, n_gates - 1);
                gates[a].2[0] = gates[b].0.clone();
            }
            // Shuffled file order (Fisher-Yates).
            for k in (1..gates.len()).rev() {
                gates.swap(k, rng.gen_u64_below(k as u64 + 1) as usize);
            }
            let mut text: String = names[..n_inputs]
                .iter()
                .map(|i| format!("INPUT({i})\n"))
                .collect();
            let _ = writeln!(text, "OUTPUT({})", gates[0].0);
            for (out, func, ops) in &gates {
                let _ = writeln!(text, "{out} = {}({})", func.name(), ops.join(", "));
            }
            match (BenchNetlist::parse(&text), scan_order(&gates)) {
                (Ok(nl), Ok(want)) => assert_eq!(nl.topo, want, "seed {seed}"),
                (Err(BenchError::Cycle { name, .. }), Err(want)) => {
                    assert_eq!(name, want, "seed {seed}");
                }
                (got, want) => panic!("seed {seed}: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn buf_synonym_and_canonical_writer() {
        let nl = BenchNetlist::parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)").unwrap();
        assert_eq!(nl.func(0), BenchFunc::Buff);
        assert!(nl.to_text().contains("y = BUFF(a)"));
    }

    /// FNV-1a over a lowered network's structure: per signal its name,
    /// source kind, gate function, fan-in ids and channel name.
    fn structure_fingerprint(net: &Network) -> u64 {
        use mis_digital::SignalSource;
        let mut text = String::new();
        for s in 0..net.signal_count() {
            let id = net.signal_id(s).unwrap();
            let _ = write!(text, "{}|", net.signal_name(id));
            match net.source(id) {
                SignalSource::Input => text.push_str("input"),
                SignalSource::Gate {
                    kind,
                    inputs,
                    channel,
                } => {
                    let ids: Vec<usize> = inputs.iter().map(|i| i.index()).collect();
                    let ch = channel.map(|c| c.name().to_owned());
                    let _ = write!(text, "gate|{kind:?}|{ids:?}|{ch:?}");
                }
                SignalSource::TwoInputChannelGate { inputs, channel } => {
                    let _ = write!(
                        text,
                        "two|{:?}|{}",
                        inputs.map(|i| i.index()),
                        channel.name()
                    );
                }
            }
            text.push('\n');
        }
        text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn lowered_fixtures_match_their_golden_structure() {
        use mis_charlib::CharLib;
        use mis_digital::InertialChannel;
        use mis_waveform::units::ps;
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data");
        let lib_text = std::fs::read_to_string(root.join("charlib/nor_paper.mislib")).unwrap();
        let lib = CharLib::from_text(&lib_text).unwrap();
        let fallback = InertialChannel::symmetric(ps(50.0), ps(38.0)).unwrap();
        let cells = CellLibrary::hybrid(&lib, Some(fallback)).unwrap();
        let got: Vec<u64> = ["c17", "c432", "c880"]
            .iter()
            .map(|name| {
                let text =
                    std::fs::read_to_string(root.join(format!("bench/{name}.bench"))).unwrap();
                let lowered = BenchNetlist::parse(&text).unwrap().lower(&cells).unwrap();
                structure_fingerprint(&lowered.net)
            })
            .collect();
        // Per signal: name, kind, fan-in ids and channel. A change here
        // changes what every pin and bench id measures.
        let want = [
            0x195f_b7d7_94e6_2178,
            0xef36_5604_8e9d_9532,
            0x6305_15a4_fe8c_8751,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }
}
