//! Structured event tracing: fixed-size POD trace events captured into
//! preallocated per-track ring buffers, exported as deterministic
//! Chrome Trace Format JSON.
//!
//! Where the [`crate::Probe`] registry answers *how much* (counts,
//! distributions, totals), a [`TraceSink`] answers *where and when*:
//! each recorded [`TraceEvent`] is a timestamped span, instant or
//! counter sample on a named track — one track per engine or worker
//! thread — and the whole capture renders as a timeline any
//! `chrome://tracing` / Perfetto-compatible viewer can load
//! ([`TraceSnapshot::to_chrome_json`]).
//!
//! # The recording model
//!
//! A [`TraceSink`] is the tracing analogue of [`crate::Probe`]: a
//! registry handed to an engine at construction. The engine registers
//! the tracks it will record on ([`TraceSink::track`], a cold-path
//! operation that allocates the track's ring buffer once) and keeps the
//! returned [`TraceTrack`] handles. *Recording* through a handle never
//! allocates: an event is written into the track's **preallocated ring
//! buffer** (one uncontended mutex lock — each track is recorded by one
//! thread at a time), and when the ring is full the oldest event is
//! overwritten and counted in the track's `dropped` tally. A traced
//! steady-state engine run therefore stays allocation-free, the same
//! guarantee the metric cells give (asserted in
//! `crates/sim/tests/alloc.rs`).
//!
//! # The disabled-mode contract
//!
//! [`TraceSink::disabled`] mirrors [`crate::Probe::disabled`]: track
//! registration still hands out working handles, but every record call
//! reduces to one branch on a pre-loaded bool — no clock reads, no
//! locking, no ring writes. [`TraceTrack::start`] returns `None` on a
//! disabled track, so span instrumentation skips *both* clock reads.
//! Engines take a sink unconditionally and pay nothing measurable when
//! nobody is tracing.
//!
//! # Determinism
//!
//! Timestamps are wall-clock and vary run to run, but everything else
//! is a pure function of the capture: tracks are exported sorted by
//! name, events in ring (chronological) order, with a fixed field
//! order, fixed `pid`/`tid` assignment, and fixed number formatting —
//! so two captures of the same deterministic workload differ only in
//! `"ts"`/`"dur"` values. [`normalize_timestamps`] rewrites exactly
//! those fields to `0.000`, which is what lets CI pin a golden Chrome
//! trace byte-for-byte (see `crates/sim/tests/trace.rs`).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json;

/// Default per-track ring capacity, in events (32 bytes each): deep
/// enough for every committed fixture's full event stream with slack,
/// small enough that a dozen tracks stay in the low megabytes.
pub const DEFAULT_TRACK_CAPACITY: usize = 1 << 16;

/// What one [`TraceEvent`] describes. The discriminant is part of the
/// export format — see [`EventKind::name`] for the stable names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// One whole engine evaluation (span; `a` = run ordinal).
    Run,
    /// One gate evaluation (span; `a` = signal index, `b` = output
    /// edges sealed).
    Gate,
    /// An input span sealed into the arena (instant; `a` = signal
    /// index, `b` = edge count).
    Seal,
    /// A campaign worker's whole claim loop (span; `a` = worker index,
    /// `b` = faults the worker ran).
    Chunk,
    /// One faulty replay inside a campaign worker's loop (span; `a` = global
    /// fault index, `b` = outcome: 0 undetected, 1 detected, 2
    /// budget-tripped).
    FaultRun,
    /// A run budget tripped (instant; `a` = resource code: 1 edges, 2
    /// deadline).
    Budget,
    /// A coverage-over-time sample (counter; `b` = this worker's
    /// cumulative detected faults).
    Coverage,
}

impl EventKind {
    /// The stable Chrome-trace event name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Run => "run",
            EventKind::Gate => "gate",
            EventKind::Seal => "seal",
            EventKind::Chunk => "chunk",
            EventKind::FaultRun => "fault_run",
            EventKind::Budget => "budget",
            EventKind::Coverage => "coverage",
        }
    }

    /// The Chrome-trace phase: `X` (complete span), `i` (instant) or
    /// `C` (counter sample).
    #[must_use]
    pub fn phase(self) -> char {
        match self {
            EventKind::Run | EventKind::Gate | EventKind::Chunk | EventKind::FaultRun => 'X',
            EventKind::Seal | EventKind::Budget => 'i',
            EventKind::Coverage => 'C',
        }
    }

    /// The export names of the `a` and `b` payload fields.
    #[must_use]
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::Run => ("run", "b"),
            EventKind::Gate | EventKind::Seal => ("signal", "edges"),
            EventKind::Chunk => ("chunk", "faults"),
            EventKind::FaultRun => ("fault", "outcome"),
            EventKind::Budget => ("resource", "b"),
            EventKind::Coverage => ("worker", "detected"),
        }
    }
}

/// One fixed-size POD trace record: a kind, two kind-specific `u32`
/// payload fields, and a `[t0, t1]` nanosecond interval relative to the
/// owning sink's epoch (`t0 == t1` for instants and counter samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// First payload field — see the [`EventKind`] variants.
    pub a: u32,
    /// Second payload field — see the [`EventKind`] variants.
    pub b: u32,
    /// Span start, nanoseconds since the sink epoch.
    pub t0_ns: u64,
    /// Span end, nanoseconds since the sink epoch (`== t0_ns` for
    /// non-span events).
    pub t1_ns: u64,
}

impl TraceEvent {
    /// The span duration in nanoseconds (0 for instants and counters).
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// The preallocated event store of one track: a wrap-around ring that
/// keeps the most recent `capacity` events and counts overwrites.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    /// Next write position once the ring has wrapped.
    next: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    capacity: usize,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            next: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Records `e`, overwriting the oldest event when full. Never
    /// allocates: the buffer was sized at construction.
    fn push(&mut self, e: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The retained events, oldest first.
    fn in_order(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

#[derive(Debug)]
struct TrackEntry {
    name: String,
    cell: Arc<Mutex<Ring>>,
}

#[derive(Debug)]
struct SinkShared {
    enabled: bool,
    epoch: Instant,
    capacity: usize,
    tracks: Mutex<Vec<TrackEntry>>,
}

/// A named-track event-trace registry — the tracing counterpart of
/// [`crate::Probe`]. Cloning shares the sink; see the module docs for
/// the recording model and the disabled-mode contract.
#[derive(Debug, Clone)]
pub struct TraceSink {
    shared: Arc<SinkShared>,
}

impl TraceSink {
    /// An enabled sink with the default per-track ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACK_CAPACITY)
    }

    /// An enabled sink whose tracks each hold at most `capacity` events
    /// (at least 1), preallocated at registration.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            shared: Arc::new(SinkShared {
                enabled: true,
                epoch: Instant::now(),
                capacity: capacity.max(1),
                tracks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The no-op sink: registration hands out working handles whose
    /// record calls reduce to one branch on a pre-loaded flag — no
    /// clock reads, no ring writes. A disabled track's ring is not
    /// preallocated (it will never be written).
    #[must_use]
    pub fn disabled() -> Self {
        TraceSink {
            shared: Arc::new(SinkShared {
                enabled: false,
                epoch: Instant::now(),
                capacity: 0,
                tracks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Whether record calls through this sink's tracks land.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled
    }

    /// Registers (or re-opens) the track `name`: same name, same ring —
    /// two engines tracing onto one track interleave their events,
    /// exactly like same-name metric cells accumulate.
    #[must_use]
    pub fn track(&self, name: &str) -> TraceTrack {
        let mut tracks = self
            .shared
            .tracks
            .lock()
            .expect("trace sink registry poisoned");
        let cell = match tracks.iter().find(|t| t.name == name) {
            Some(t) => Arc::clone(&t.cell),
            None => {
                let cell = Arc::new(Mutex::new(Ring::with_capacity(self.shared.capacity)));
                tracks.push(TrackEntry {
                    name: name.to_string(),
                    cell: Arc::clone(&cell),
                });
                cell
            }
        };
        TraceTrack {
            enabled: self.shared.enabled,
            epoch: self.shared.epoch,
            cell,
        }
    }

    /// A point-in-time copy of every track, sorted by track name — the
    /// deterministic basis of the exporter.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let tracks = self
            .shared
            .tracks
            .lock()
            .expect("trace sink registry poisoned");
        let mut out: Vec<TrackSnapshot> = tracks
            .iter()
            .map(|t| {
                let ring = t.cell.lock().expect("trace ring poisoned");
                TrackSnapshot {
                    name: t.name.clone(),
                    events: ring.in_order(),
                    dropped: ring.dropped,
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        TraceSnapshot { tracks: out }
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

/// Saturating nanoseconds since `epoch`.
fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A recording handle onto one track of a [`TraceSink`]. Handles are
/// cheap to clone; each is intended to be recorded from one thread at a
/// time (the ring mutex stays uncontended), though concurrent use is
/// safe — events just interleave.
#[derive(Debug, Clone)]
pub struct TraceTrack {
    enabled: bool,
    epoch: Instant,
    cell: Arc<Mutex<Ring>>,
}

impl TraceTrack {
    /// Whether record calls land.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span: nanoseconds-since-epoch when enabled, `None` when
    /// disabled (no clock read). Pass the token to [`TraceTrack::span`].
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<u64> {
        self.enabled.then(|| ns_since(self.epoch))
    }

    /// Closes a span opened by [`TraceTrack::start`] and records it
    /// (no-op on a `None` token, i.e. when disabled).
    #[inline]
    pub fn span(&self, kind: EventKind, a: u32, b: u32, started: Option<u64>) {
        if let Some(t0_ns) = started {
            let t1_ns = ns_since(self.epoch).max(t0_ns);
            self.push(TraceEvent {
                kind,
                a,
                b,
                t0_ns,
                t1_ns,
            });
        }
    }

    /// Records an instantaneous event (no-op when disabled).
    #[inline]
    pub fn instant(&self, kind: EventKind, a: u32, b: u32) {
        if self.enabled {
            let t = ns_since(self.epoch);
            self.push(TraceEvent {
                kind,
                a,
                b,
                t0_ns: t,
                t1_ns: t,
            });
        }
    }

    /// Records a counter sample (no-op when disabled). By convention
    /// the sampled value lives in `b`.
    #[inline]
    pub fn sample(&self, kind: EventKind, a: u32, value: u32) {
        self.instant(kind, a, value);
    }

    /// The ring write: one uncontended lock, never an allocation.
    fn push(&self, e: TraceEvent) {
        self.cell.lock().expect("trace ring poisoned").push(e);
    }
}

/// One exported track: its name, retained events (oldest first) and how
/// many older events the ring overwrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackSnapshot {
    /// The registered track name (becomes the Chrome thread name).
    pub name: String,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events overwritten after the ring filled.
    pub dropped: u64,
}

/// A point-in-time copy of a whole [`TraceSink`], tracks sorted by
/// name — the input of the Chrome-trace exporter and of
/// `mis_analyze`'s per-level attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// The captured tracks, ascending by name.
    pub tracks: Vec<TrackSnapshot>,
}

/// `ns` as a Chrome-trace microsecond timestamp with fixed millisecond
/// precision (`"123.456"`) — deterministic formatting, full nanosecond
/// resolution.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl TraceSnapshot {
    /// All events of every track whose name equals `name`.
    #[must_use]
    pub fn track(&self, name: &str) -> Option<&TrackSnapshot> {
        self.tracks.iter().find(|t| t.name == name)
    }

    /// Renders the capture in Chrome Trace Format (the JSON object
    /// form, loadable by `chrome://tracing` and Perfetto): one
    /// `thread_name` metadata record per track (`tid` = 1-based
    /// position in the name-sorted track list) followed by the events
    /// in track order. Deterministic except for the `"ts"`/`"dur"`
    /// values — see the module docs and [`normalize_timestamps`].
    ///
    /// The output is always well-formed JSON
    /// ([`crate::json::is_wellformed`]); the CLI emitters re-validate
    /// before writing, same as every other renderer in the workspace.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push_line = |line: &str, first: &mut bool| {
            if !*first {
                s.push_str(",\n");
            }
            *first = false;
            s.push_str(line);
        };
        push_line(
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"mis-delay\"}}",
            &mut first,
        );
        for (i, t) in self.tracks.iter().enumerate() {
            let tid = i + 1;
            let mut meta = format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json::json_string(&t.name)
            );
            push_line(&meta, &mut first);
            if t.dropped > 0 {
                meta = format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"dropped_events\",\
                     \"args\":{{\"count\":{}}}}}",
                    t.dropped
                );
                push_line(&meta, &mut first);
            }
            for e in &t.events {
                let (ka, kb) = e.kind.arg_names();
                let mut line = format!(
                    "{{\"ph\":\"{}\",\"pid\":0,\"tid\":{tid},\"name\":\"{}\",\
                     \"cat\":\"mis\",\"ts\":{}",
                    e.kind.phase(),
                    e.kind.name(),
                    ts_us(e.t0_ns)
                );
                match e.kind.phase() {
                    'X' => {
                        let _ = write!(
                            line,
                            ",\"dur\":{},\"args\":{{\"{ka}\":{},\"{kb}\":{}}}}}",
                            ts_us(e.duration_ns()),
                            e.a,
                            e.b
                        );
                    }
                    'i' => {
                        let _ = write!(
                            line,
                            ",\"s\":\"t\",\"args\":{{\"{ka}\":{},\"{kb}\":{}}}}}",
                            e.a, e.b
                        );
                    }
                    _ => {
                        // Counter sample: Chrome plots each args series.
                        let _ = write!(line, ",\"args\":{{\"{kb}\":{}}}}}", e.b);
                    }
                }
                push_line(&line, &mut first);
            }
        }
        s.push_str("\n]}");
        debug_assert!(json::is_wellformed(&s), "exporter emitted malformed JSON");
        s
    }
}

/// Rewrites every `"ts"` and `"dur"` value in a Chrome-trace JSON
/// string to `0.000` — the normalization under which two captures of
/// the same deterministic workload are byte-identical (the golden-file
/// pin in `crates/sim/tests/trace.rs` rests on this).
#[must_use]
pub fn normalize_timestamps(chrome_json: &str) -> String {
    let mut out = String::with_capacity(chrome_json.len());
    let mut rest = chrome_json;
    loop {
        let hit = ["\"ts\":", "\"dur\":"]
            .iter()
            .filter_map(|k| rest.find(k).map(|p| (p, k.len())))
            .min();
        match hit {
            None => {
                out.push_str(rest);
                return out;
            }
            Some((pos, klen)) => {
                out.push_str(&rest[..pos + klen]);
                out.push_str("0.000");
                let tail = &rest[pos + klen..];
                let end = tail
                    .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
                    .unwrap_or(tail.len());
                rest = &tail[end..];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing_and_reads_no_clock() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        let t = sink.track("sim");
        assert!(!t.is_enabled());
        assert_eq!(t.start(), None);
        t.span(EventKind::Run, 0, 0, t.start());
        t.instant(EventKind::Seal, 1, 2);
        t.sample(EventKind::Coverage, 0, 5);
        let snap = sink.snapshot();
        assert!(snap.tracks.iter().all(|t| t.events.is_empty()));
        assert_eq!(snap.tracks.len(), 1, "registration still lands");
    }

    #[test]
    fn spans_instants_and_samples_record_in_order() {
        let sink = TraceSink::new();
        let t = sink.track("sim");
        let tok = t.start();
        assert!(tok.is_some());
        t.span(EventKind::Run, 7, 0, tok);
        t.instant(EventKind::Seal, 3, 4);
        t.sample(EventKind::Coverage, 0, 9);
        let snap = sink.snapshot();
        let track = snap.track("sim").unwrap();
        assert_eq!(track.dropped, 0);
        let kinds: Vec<EventKind> = track.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Run, EventKind::Seal, EventKind::Coverage]
        );
        let run = &track.events[0];
        assert_eq!(run.a, 7);
        assert!(run.t1_ns >= run.t0_ns);
        let seal = &track.events[1];
        assert_eq!((seal.a, seal.b), (3, 4));
        assert_eq!(seal.t0_ns, seal.t1_ns);
    }

    #[test]
    fn same_name_shares_a_ring_and_the_snapshot_sorts_tracks() {
        let sink = TraceSink::new();
        let a = sink.track("zeta");
        let b = sink.track("alpha");
        let a2 = sink.track("zeta");
        a.instant(EventKind::Seal, 0, 0);
        a2.instant(EventKind::Seal, 1, 0);
        b.instant(EventKind::Seal, 2, 0);
        let snap = sink.snapshot();
        let names: Vec<&str> = snap.tracks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(snap.track("zeta").unwrap().events.len(), 2);
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let sink = TraceSink::with_capacity(3);
        let t = sink.track("sim");
        for i in 0..5u32 {
            t.instant(EventKind::Seal, i, 0);
        }
        let snap = sink.snapshot();
        let track = snap.track("sim").unwrap();
        assert_eq!(track.dropped, 2);
        let kept: Vec<u32> = track.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![2, 3, 4], "ring keeps the most recent events");
    }

    #[test]
    fn chrome_export_is_wellformed_and_structurally_deterministic() {
        let sink = TraceSink::new();
        let t = sink.track("sim");
        t.span(EventKind::Gate, 5, 2, t.start());
        t.instant(EventKind::Budget, 1, 0);
        sink.track("par.w0").sample(EventKind::Coverage, 0, 3);
        let snap = sink.snapshot();
        let json = snap.to_chrome_json();
        assert!(crate::json::is_wellformed(&json), "{json}");
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"gate\""));
        assert!(json.contains("\"ph\":\"C\""));
        // Normalization wipes only timestamps; re-normalizing is stable.
        let norm = normalize_timestamps(&json);
        assert!(crate::json::is_wellformed(&norm), "{norm}");
        assert!(norm.contains("\"ts\":0.000"));
        assert_eq!(norm, normalize_timestamps(&norm));
        // Two exports of the same snapshot are byte-identical.
        assert_eq!(json, snap.to_chrome_json());
    }

    #[test]
    fn dropped_events_surface_in_the_export() {
        let sink = TraceSink::with_capacity(1);
        let t = sink.track("sim");
        t.instant(EventKind::Seal, 0, 0);
        t.instant(EventKind::Seal, 1, 0);
        let json = sink.snapshot().to_chrome_json();
        assert!(json.contains("\"dropped_events\""));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn timestamp_formatting_is_fixed_width_fractional() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1), "0.001");
        assert_eq!(ts_us(1_234), "1.234");
        assert_eq!(ts_us(1_000_042), "1000.042");
    }

    #[test]
    fn normalizer_handles_adjacent_fields() {
        let s = "{\"ts\":12.345,\"dur\":6.789,\"x\":1}";
        assert_eq!(
            normalize_timestamps(s),
            "{\"ts\":0.000,\"dur\":0.000,\"x\":1}"
        );
    }
}
