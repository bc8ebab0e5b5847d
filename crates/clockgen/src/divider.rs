//! Frequency divider chain.
//!
//! The 120 MHz ring-oscillator output is prescaled by a cascade of
//! toggle flip-flops down to the 30 MHz reference clock, and further
//! divided under FSM control during recursive division. Each stage
//! halves the frequency; a stage counts one output toggle per two input
//! edges.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_sim::time::{Frequency, SimDuration};

/// A chain of divide-by-two stages.
///
/// # Examples
///
/// ```
/// use aetr_clockgen::divider::DividerChain;
/// use aetr_sim::time::Frequency;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 120 MHz ring output -> 30 MHz reference (paper §4.1).
/// let prescaler = DividerChain::new(2)?;
/// let reference = prescaler.output(Frequency::from_mhz(120));
/// assert_eq!(reference, Frequency::from_mhz(30));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DividerChain {
    stages: u32,
}

/// Error for divider chains too deep to be meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DividerDepthError {
    /// Requested stage count.
    pub stages: u32,
}

impl fmt::Display for DividerDepthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "divider chain of {} stages exceeds the supported 32", self.stages)
    }
}

impl Error for DividerDepthError {}

impl DividerChain {
    /// Creates a chain of `stages` divide-by-two flip-flops (0 stages
    /// is a wire).
    ///
    /// # Errors
    ///
    /// Returns [`DividerDepthError`] for more than 32 stages (the
    /// output frequency would underflow any practical representation).
    pub fn new(stages: u32) -> Result<DividerChain, DividerDepthError> {
        if stages > 32 {
            return Err(DividerDepthError { stages });
        }
        Ok(DividerChain { stages })
    }

    /// Number of stages.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Overall division ratio (`2^stages`).
    pub fn ratio(&self) -> u64 {
        1u64 << self.stages
    }

    /// Output frequency for a given input.
    pub fn output(&self, input: Frequency) -> Frequency {
        input.divided_pow2(self.stages)
    }

    /// Output period for a given input period.
    pub fn output_period(&self, input_period: SimDuration) -> SimDuration {
        input_period.saturating_mul(self.ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_stage_chain_is_a_wire() {
        let chain = DividerChain::new(0).unwrap();
        assert_eq!(chain.ratio(), 1);
        assert_eq!(chain.output(Frequency::from_mhz(120)), Frequency::from_mhz(120));
    }

    #[test]
    fn prototype_prescaler_120_to_30() {
        let chain = DividerChain::new(2).unwrap();
        assert_eq!(chain.ratio(), 4);
        assert_eq!(chain.output(Frequency::from_mhz(120)), Frequency::from_mhz(30));
        assert_eq!(chain.output_period(SimDuration::from_ps(8_333)), SimDuration::from_ps(33_332));
    }

    #[test]
    fn deep_chains_rejected() {
        assert!(DividerChain::new(33).is_err());
        assert!(DividerChain::new(32).is_ok());
        assert!(DividerChain::new(33).unwrap_err().to_string().contains("32"));
    }
}
