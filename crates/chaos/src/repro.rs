//! Minimal-repro files: a shrunken [`ChaosPoint`] plus the digest and
//! violations it must reproduce, serialized as JSON. `cllm chaos
//! --repro <file>` (and the checked-in corpus under
//! `tests/chaos_corpus/`) replays these byte-identically.

use cllm_serve::invariants::InvariantViolation;
use serde::{Deserialize, Serialize};

use crate::point::{ChaosPoint, InvalidPoint};
use crate::run::{run_point, RunOutcome};

/// Why a repro file cannot be replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReproError {
    /// The text is not a repro document (the JSON parser's message).
    Parse(String),
    /// The document parses, but its point is one the simulators or the
    /// engine refuse to run.
    Invalid(InvalidPoint),
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Parse(e) => write!(f, "invalid repro: {e}"),
            ReproError::Invalid(e) => write!(f, "invalid repro: {e}"),
        }
    }
}

impl std::error::Error for ReproError {}

/// A self-contained, replayable chaos finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Repro {
    /// The (shrunken) point.
    pub point: ChaosPoint,
    /// Expected report digest — replays must match it byte-for-byte.
    pub digest: String,
    /// Expected violations, in registry order. Empty for regression
    /// corpus entries that pin a once-broken, now-clean schedule.
    pub violations: Vec<InvariantViolation>,
}

impl Repro {
    /// Capture a repro from a point and its outcome.
    #[must_use]
    pub fn capture(point: ChaosPoint, outcome: &RunOutcome) -> Self {
        Repro {
            point,
            digest: outcome.digest.clone(),
            violations: outcome.violations.clone(),
        }
    }

    /// Serialize as pretty JSON (stable field order — suitable for
    /// checked-in corpus files).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("repro serializes")
    }

    /// Parse a repro file and check that its point can run.
    ///
    /// # Errors
    /// [`ReproError::Parse`] when the text is not a repro,
    /// [`ReproError::Invalid`] when its point breaks a precondition of
    /// the simulators or the engine ([`ChaosPoint::check`]).
    pub fn from_json(text: &str) -> Result<Self, ReproError> {
        let repro: Repro =
            serde_json::from_str(text).map_err(|e| ReproError::Parse(e.to_string()))?;
        repro.point.check().map_err(ReproError::Invalid)?;
        Ok(repro)
    }

    /// Replay the point and demand the recorded digest and violations.
    ///
    /// # Errors
    /// Describes the first divergence: digest mismatch (the simulator's
    /// behaviour drifted) or violation mismatch (the bug's signature
    /// changed or disappeared).
    pub fn replay(&self) -> Result<RunOutcome, String> {
        let outcome = run_point(&self.point);
        if outcome.digest != self.digest {
            return Err(format!(
                "digest drift: expected {}, replay produced {}",
                self.digest, outcome.digest
            ));
        }
        if outcome.violations != self.violations {
            return Err(format!(
                "violation drift: expected {:?}, replay produced {:?}",
                self.violations, outcome.violations
            ));
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::sample_point;

    #[test]
    fn repro_json_round_trips_byte_identically() {
        let p = sample_point(5);
        let out = run_point(&p);
        let repro = Repro::capture(p, &out);
        let json = repro.to_json();
        let back = Repro::from_json(&json).expect("parses");
        assert_eq!(repro, back);
        assert_eq!(json, back.to_json(), "serialization is stable");
    }

    #[test]
    fn replay_detects_digest_drift() {
        let p = sample_point(6);
        let out = run_point(&p);
        let mut repro = Repro::capture(p, &out);
        assert!(repro.replay().is_ok(), "faithful replay passes");
        repro.digest = "0000000000000000".to_string();
        let err = repro.replay().expect_err("forged digest must fail");
        assert!(err.contains("digest drift"), "got: {err}");
    }
}
