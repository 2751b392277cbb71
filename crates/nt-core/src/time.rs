//! The simulation's logical clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulation's logical clock.
///
/// One tick is nominally one second of simulated wall time. The false-positive
/// model of the paper's evaluation is driven entirely by tick gaps: files
/// created by always-running services between two scans show up in the diff as
/// noise. Inside-the-box scans have a gap of a few ticks, the WinPE reboot
/// adds 90–180 ticks, and the VM snapshot flow has a gap of zero.
///
/// # Examples
///
/// ```
/// use strider_nt_core::Tick;
///
/// let boot = Tick::ZERO;
/// let later = boot + 90;
/// assert_eq!(later - boot, 90);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

impl Tick {
    /// The clock value at machine boot.
    pub const ZERO: Tick = Tick(0);
}

impl Add<u64> for Tick {
    type Output = Tick;

    fn add(self, rhs: u64) -> Tick {
        Tick(self.0 + rhs)
    }
}

impl AddAssign<u64> for Tick {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

/// Ticks elapsed since `rhs`, saturating at zero if `rhs` is in the
/// future.
impl Sub for Tick {
    type Output = u64;

    fn sub(self, rhs: Tick) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(newtype Tick);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut t = Tick::ZERO;
        t += 5;
        assert_eq!(t, Tick(5));
        assert_eq!(t + 3, Tick(8));
        assert_eq!(Tick(8) - Tick(5), 3);
        assert_eq!(Tick(5) - Tick(8), 0, "gap saturates");
        assert_eq!(t.to_string(), "t5");
    }
}
