//! Unit helpers: the workspace computes in SI (seconds, volts, ohms,
//! farads); the paper's plots are in picoseconds. These free functions keep
//! conversions explicit and greppable.

/// Seconds per picosecond.
pub const PS: f64 = 1e-12;

/// Converts picoseconds to seconds.
///
/// # Examples
///
/// ```
/// assert_eq!(mis_waveform::units::ps(18.0), 18.0e-12);
/// ```
#[must_use]
pub fn ps(x: f64) -> f64 {
    x * PS
}

/// Converts seconds to picoseconds.
///
/// # Examples
///
/// ```
/// assert_eq!(mis_waveform::units::to_ps(18.0e-12), 18.0);
/// ```
#[must_use]
pub fn to_ps(x: f64) -> f64 {
    x / PS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        assert_eq!(to_ps(ps(123.456)), 123.456);
    }
}
