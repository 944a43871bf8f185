//! Zero-time Boolean gates over digital traces.
//!
//! The IDM separates *logic* (instantaneous Boolean gates) from *timing*
//! (delay channels on the wires). These combinators implement the logic
//! half: the output trace switches at exactly the input event times.

use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::SimError;

/// Combines two traces with an arbitrary Boolean function, evaluated at
/// every input event instant.
///
/// # Errors
///
/// Returns [`SimError::Trace`] only on internal invariant violations
/// (defensive; cannot trigger for well-formed inputs).
///
/// # Examples
///
/// ```
/// use mis_digital::gates;
/// use mis_waveform::DigitalTrace;
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let a = DigitalTrace::with_edges(false, vec![(1.0, true)])?;
/// let b = DigitalTrace::with_edges(false, vec![(2.0, true)])?;
/// let y = gates::combine2(|a, b| a ^ b, &a, &b)?;
/// assert!(!y.value_at(0.5));
/// assert!(y.value_at(1.5));
/// assert!(!y.value_at(2.5));
/// # Ok(())
/// # }
/// ```
pub fn combine2<F: Fn(bool, bool) -> bool>(
    f: F,
    a: &DigitalTrace,
    b: &DigitalTrace,
) -> Result<DigitalTrace, SimError> {
    let initial = f(a.initial_value(), b.initial_value());
    let mut out = DigitalTrace::constant(initial);
    let mut value = initial;
    // Merge distinct event times from both inputs.
    let mut times: Vec<f64> = a
        .edges()
        .iter()
        .chain(b.edges().iter())
        .map(|e| e.time)
        .collect();
    times.sort_by(|x, y| x.partial_cmp(y).expect("finite edge times"));
    times.dedup();
    for t in times {
        let v = f(a.value_at(t), b.value_at(t));
        if v != value {
            out.push_edge(t, v)?;
            value = v;
        }
    }
    Ok(out)
}

/// The in-place twin of [`combine2`] on SoA views: a linear merge of
/// the (already sorted) input edge times into `out`, allocation-free
/// once `out` is warm. This is the ideal-gate half of the fused gate +
/// channel pass in the `mis-sim` engine and its cone replay; the owned
/// [`combine2`] is what the `Network::run` reference uses instead.
///
/// The merge is driven by a truth table and has no data-dependent
/// branches while both inputs still have edges:
///
/// * `f` is evaluated once per call, at its 4 input combinations, into
///   a 4-bit table. The loop only looks values up, so a `fn` pointer
///   costs no more than an inlined closure.
/// * Each step takes `t`, the earlier of the two cursor heads. It
///   advances every cursor whose head is not after the other head, so
///   simultaneous edges on both inputs coalesce into one event, and
///   toggles that input's value. It writes `t` into the next output
///   slot unconditionally and advances the output length only when the
///   looked-up value differs from the current one.
/// * The step runs only while both cursors have edges left. Once one
///   input is exhausted its value is final, so each remaining edge of
///   the other input toggles between the same two table entries: either
///   every one flips the output or none does. One lookup decides, and
///   the tail is copied into the slots as one block or dropped.
/// * The slots come from [`EdgeBuf::fill_with`], which then checks the
///   kept edges in one pass, with [`EdgeBuf::push_time`]'s checks.
///   Alternation holds by construction: an edge is kept only when the
///   value flips.
///
/// Bit-identical to [`combine2`]: the emitted times are input times, at
/// most one per distinct input instant. Every step consumes at least
/// one input edge, so the merge ends after at most `a.len() + b.len()`
/// steps even on inputs that break the [`TraceRef`] contract.
///
/// # Errors
///
/// Returns [`SimError::Trace`] only on internal invariant violations
/// (defensive; cannot trigger for well-formed inputs).
#[inline]
pub fn combine2_into<F: Fn(bool, bool) -> bool>(
    f: F,
    a: TraceRef<'_>,
    b: TraceRef<'_>,
    out: &mut EdgeBuf,
) -> Result<(), SimError> {
    // Bit `va | vb << 1` of `table` is `f(va, vb)`.
    let table = usize::from(f(false, false))
        | usize::from(f(true, false)) << 1
        | usize::from(f(false, true)) << 2
        | usize::from(f(true, true)) << 3;
    let (ta, tb) = (a.times(), b.times());
    let (mut va, mut vb) = (
        usize::from(a.initial_value()),
        usize::from(b.initial_value()),
    );
    let initial = (table >> (va | vb << 1)) & 1;
    out.fill_with(initial == 1, ta.len() + tb.len(), |slots| {
        let (na, nb) = (ta.len(), tb.len());
        let (mut i, mut j, mut len) = (0, 0, 0);
        let mut value = initial;
        // `!(x > y) | !(y > x)` holds for any pair, NaN included, so
        // every step consumes a head. The advances compare the heads
        // directly, which keeps `t` off the cursors' dependency chain.
        while i < na && j < nb {
            let (x, y) = (ta[i], tb[j]);
            let t = if y < x { y } else { x };
            let step_a = usize::from(!(x > y));
            let step_b = usize::from(!(y > x));
            i += step_a;
            j += step_b;
            va ^= step_a;
            vb ^= step_b;
            let v = (table >> (va | vb << 1)) & 1;
            slots[len] = t;
            len += usize::from(v != value);
            value = v;
        }
        // At most one input has edges left, and the other's value is
        // final: its edges all flip the output (the table differs at the
        // two values of the live input) or none does. `len <= i + j`, so
        // the tail fits in the `na + nb` slots.
        let (tail, flips) = if i < na {
            (&ta[i..], (table >> (vb << 1)) ^ (table >> (1 | vb << 1)))
        } else {
            (&tb[j..], (table >> va) ^ (table >> (va | 2)))
        };
        if flips & 1 == 1 {
            slots[len..len + tail.len()].copy_from_slice(tail);
            len += tail.len();
        }
        len
    })?;
    Ok(())
}

/// Applies a unary Boolean function (NOT / BUF) to a trace.
///
/// # Errors
///
/// See [`combine2`].
pub fn map1<F: Fn(bool) -> bool>(f: F, a: &DigitalTrace) -> Result<DigitalTrace, SimError> {
    let initial = f(a.initial_value());
    let mut out = DigitalTrace::constant(initial);
    let mut value = initial;
    for e in a.edges() {
        let v = f(e.rising);
        if v != value {
            out.push_edge(e.time, v)?;
            value = v;
        }
    }
    Ok(out)
}

/// Zero-time NOR of two traces.
///
/// # Errors
///
/// See [`combine2`].
pub fn nor(a: &DigitalTrace, b: &DigitalTrace) -> Result<DigitalTrace, SimError> {
    combine2(|x, y| !(x || y), a, b)
}

/// Zero-time inverter.
///
/// # Errors
///
/// See [`map1`].
pub fn not(a: &DigitalTrace) -> Result<DigitalTrace, SimError> {
    map1(|x| !x, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(t0: f64, t1: f64) -> DigitalTrace {
        DigitalTrace::with_edges(false, vec![(t0, true), (t1, false)]).unwrap()
    }

    #[test]
    fn nor_truth_over_time() {
        let a = pulse(1.0, 3.0);
        let b = pulse(2.0, 4.0);
        let y = nor(&a, &b).unwrap();
        assert!(y.value_at(0.5)); // 0,0 → 1
        assert!(!y.value_at(1.5)); // 1,0 → 0
        assert!(!y.value_at(2.5)); // 1,1 → 0
        assert!(!y.value_at(3.5)); // 0,1 → 0
        assert!(y.value_at(4.5)); // 0,0 → 1
        assert_eq!(y.transition_count(), 2);
    }

    #[test]
    fn simultaneous_edges_coalesce() {
        // Both inputs rise at the same instant: one output event.
        let a = pulse(1.0, 5.0);
        let b = pulse(1.0, 5.0);
        let y = nor(&a, &b).unwrap();
        assert_eq!(y.transition_count(), 2);
        assert_eq!(y.edges()[0].time, 1.0);
        assert_eq!(y.edges()[1].time, 5.0);
    }

    #[test]
    fn glitch_free_when_function_value_unchanged() {
        // XOR of identical traces is constantly 0: no output events.
        let a = pulse(1.0, 2.0);
        let y = combine2(|x, y| x ^ y, &a, &a.clone()).unwrap();
        assert_eq!(y.transition_count(), 0);
        assert!(!y.initial_value());
    }

    /// `combine2_into` into a fresh buffer, materialized.
    fn merged(f: impl Fn(bool, bool) -> bool, a: &DigitalTrace, b: &DigitalTrace) -> DigitalTrace {
        let (mut va, mut vb, mut out) = (EdgeBuf::new(), EdgeBuf::new(), EdgeBuf::new());
        va.copy_trace(a);
        vb.copy_trace(b);
        combine2_into(f, va.as_ref(), vb.as_ref(), &mut out).unwrap();
        out.to_trace()
    }

    #[test]
    fn constant_tables_emit_no_edges() {
        let a = pulse(1.0, 3.0);
        let b = DigitalTrace::with_edges(true, vec![(2.0, false), (4.0, true)]).unwrap();
        assert_eq!(merged(|_, _| false, &a, &b), DigitalTrace::constant(false));
        assert_eq!(merged(|_, _| true, &a, &b), DigitalTrace::constant(true));
        // The initial value is looked up from the inputs' initial values
        // and the output still never moves.
        let y = merged(
            |x, y| x || !y,
            &pulse(1.0, 2.0),
            &DigitalTrace::constant(false),
        );
        assert_eq!(y, DigitalTrace::constant(true));
    }

    #[test]
    fn xor_of_a_trace_with_itself_emits_no_edges() {
        for a in [
            pulse(1.0, 2.0),
            DigitalTrace::with_edges(true, vec![(0.5, false)]).unwrap(),
        ] {
            assert_eq!(merged(|x, y| x ^ y, &a, &a), DigitalTrace::constant(false));
        }
    }

    #[test]
    fn one_empty_input_copies_or_inverts_the_other() {
        let a =
            DigitalTrace::with_edges(true, vec![(1.0, false), (2.0, true), (4.0, false)]).unwrap();
        let (lo, hi) = (DigitalTrace::constant(false), DigitalTrace::constant(true));
        let inv = not(&a).unwrap();
        assert_eq!(merged(|x, y| x && y, &a, &hi), a);
        assert_eq!(merged(|x, y| x || y, &lo, &a), a);
        assert_eq!(merged(|x, y| x ^ y, &a, &lo), a);
        assert_eq!(merged(|x, y| !(x && y), &hi, &a), inv);
        assert_eq!(merged(|x, y| !(x || y), &a, &lo), inv);
        assert_eq!(merged(|x, y| x ^ y, &hi, &a), inv);
        // A controlling constant masks the other input entirely.
        assert_eq!(merged(|x, y| x && y, &a, &lo), lo);
        // Both empty: only the initial value.
        assert_eq!(merged(|x, y| !(x || y), &lo, &lo), hi);
    }

    #[test]
    fn not_inverts() {
        let a = pulse(1.0, 2.0);
        let y = not(&a).unwrap();
        assert!(y.initial_value());
        assert!(!y.value_at(1.5));
        assert!(y.value_at(2.5));
    }
}
