//! Measured-vs-modeled calibration: compare kernel speedup ratios
//! *measured* on the real `cllm-infer` engine (by `bench_infer`, pinned
//! in `BENCH_infer.json`) against what the analytical roofline in this
//! crate predicts.
//!
//! The analytical model prices decode as weight-streaming-bound and
//! prefill as compute-bound; the executable engine lets us check those
//! magnitudes on real silicon. Absolute tokens/sec are machine-specific
//! (and guarded by the bench floors, not here), but the *ratios*
//! between kernel variants cancel the machine out to first order:
//!
//! * **tiled / naive decode** — the scalar reference GEMV is one long
//!   dependency chain (~1 element per FP-add latency); the tiled kernel
//!   advances a panel of `cllm_infer::kernels::PANEL` output rows per
//!   vector FMA, with several panels' chains in flight, so the modeled
//!   win is several-fold until the weight stream saturates memory.
//! * **int8 / tiled decode** — group-quantized weights shrink the
//!   per-token weight traffic to `1 + 4/64` bytes per weight against
//!   f32's 4. The int8 kernel multiplies integer codes with no
//!   per-weight convert, so weight-bound decode reaches that traffic
//!   ratio, 3.76; a larger ratio means the f32 stream spilled past the
//!   shared L3 that still holds the int8 one.
//! * **int4 / int8 decode** — packed nibbles halve the code bytes
//!   (`0.5 + 4/64` bytes per weight, a traffic ratio of 1.89), and a
//!   64-byte block of int4 codes holds twice the weights of an int8
//!   block for the same unpack and dot-product instructions. So int4
//!   decodes up to 2x faster than int8, never slower.
//! * **speculative / tiled decode** — chunked verification amortizes
//!   the target's weight stream over `E = (1 - a^(k+1)) / (1 - a)`
//!   tokens per round at acceptance `a`, the last of them the target's
//!   own token after the accepted proposals. The draft is the target's
//!   own int8 quantization, sharing its KV cache, so each of its `k`
//!   steps costs an int8 decode step: with the bonus token and the int8
//!   step's speedup a round beats plain decode, by less than the
//!   `spec_decode` experiment's much smaller draft does.
//!
//! Each ratio gets a pinned [`Band`]: a modeled center plus a tolerance
//! range wide enough for cache-hierarchy and ISA variance across CI
//! machines, but tight enough that a kernel regression (say, the tiled
//! path silently falling back to scalar) trips it. `bench_infer --check`
//! recomputes the report from the pinned document on every CI run.

/// A pinned tolerance band for one measured/modeled ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// The ratio the analytical roofline predicts on weight-bound
    /// decode shapes.
    pub modeled: f64,
    /// Lowest acceptable measured ratio.
    pub lo: f64,
    /// Highest plausible measured ratio (above it the measurement
    /// methodology, not the kernel, is suspect).
    pub hi: f64,
}

impl Band {
    /// Is `ratio` inside the band (inclusive)?
    #[must_use]
    pub fn contains(&self, ratio: f64) -> bool {
        ratio.is_finite() && ratio >= self.lo && ratio <= self.hi
    }
}

/// Tiled GEMV over the scalar reference, decode phase. The independent
/// accumulator lanes break the FP-add dependency chain and vectorize;
/// the win is capped by the DRAM weight stream.
pub const TILED_OVER_NAIVE_DECODE: Band = Band {
    modeled: 4.0,
    lo: 2.0,
    hi: 32.0,
};

/// Group-wise int8 over tiled f32, decode phase: the weight-traffic
/// ratio `4 / (1 + 4/64) = 3.76` (f32 bytes per weight over int8 code
/// bytes plus one f32 scale per 64-weight group), which the integer
/// kernel reaches on weight-bound decode. The floor is `bench_infer`'s
/// hard bar. The ceiling is twice the traffic ratio: `bench_infer`'s
/// 80 MB of f32 weights can spill past a shared L3 that still holds the
/// 21 MB of int8 ones, and a single core streams from DRAM at about half
/// its L3 rate.
pub const INT8_OVER_TILED_DECODE: Band = Band {
    modeled: 3.76,
    lo: 1.5,
    hi: 7.5,
};

/// Packed int4 over int8, decode phase: the traffic ratio `(1 + 4/64) /
/// (0.5 + 4/64) = 1.89`. A 64-byte block holds 128 int4 weights or 64
/// int8 ones and costs the same unpack and dot-product instructions
/// either way, so on a compute-bound shape int4 runs at most 2x int8,
/// and the rest of a decode step costs both the same: the ceiling is 2.
/// Below parity, int4 has lost its halved work per weight.
pub const INT4_OVER_INT8_DECODE: Band = Band {
    modeled: 1.89,
    lo: 1.0,
    hi: 2.0,
};

/// Speculative decode (same-shape int8-quantized draft, k=2) over
/// plain tiled decode, from the round model rather than a run.
///
/// A round emits `E(a, k) = (1 - a^(k+1)) / (1 - a)` tokens: the
/// accepted proposals plus the target's own token, a rejection's
/// replacement or the bonus after `k` acceptances. It costs `k` draft
/// steps, each an int8 decode step, `1 / r` of a tiled step at the
/// pinned int8/tiled ratio `r = INT8_OVER_TILED_DECODE.modeled = 3.76`,
/// plus one `k + 1`-position verify, which streams the target's weights
/// once and so costs about one tiled step on weight-bound decode:
///
/// ```text
/// spec / tiled = E(a, k) / (k / r + 1)
///              = (1 + 0.91 + 0.91^2) / (2 / 3.76 + 1) = 2.738 / 1.532 = 1.79
/// ```
///
/// at `k = 2` and `a = 0.91`, the acceptance `bench_infer` pins
/// (`spec_acceptance`; the weights are seeded, so it is the same on
/// every host). The band's floor is plain decode's own rate: below 1
/// speculation loses, which the round model excludes at every ratio the
/// `int8 >= 1.5x tiled` bar admits (1.17 at `r = 1.5`). Its ceiling is
/// `k + 1 = 3`, the most a round can emit for at least one target step.
pub const SPEC_OVER_TILED_DECODE: Band = Band {
    modeled: 1.79,
    lo: 1.0,
    hi: 3.0,
};

/// The four decode-phase speedup ratios `bench_infer` measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRatios {
    /// Tiled f32 tokens/sec over the scalar reference.
    pub tiled_over_naive: f64,
    /// Int8 tokens/sec over tiled f32.
    pub int8_over_tiled: f64,
    /// Int4 tokens/sec over int8.
    pub int4_over_int8: f64,
    /// Speculative tokens/sec over tiled f32.
    pub spec_over_tiled: f64,
}

/// One ratio compared against its pinned band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioCheck {
    /// Which ratio this row reports.
    pub name: &'static str,
    /// The measured value.
    pub measured: f64,
    /// The pinned band it must fall in.
    pub band: Band,
}

impl RatioCheck {
    /// Does the measurement sit inside the pinned band?
    #[must_use]
    pub fn ok(&self) -> bool {
        self.band.contains(self.measured)
    }
}

/// The full measured-vs-modeled comparison, one row per ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Rows in fixed order: tiled/naive, int8/tiled, int4/int8,
    /// spec/tiled.
    pub checks: Vec<RatioCheck>,
}

impl CalibrationReport {
    /// Compare measured ratios against the pinned bands.
    #[must_use]
    pub fn new(r: &MeasuredRatios) -> Self {
        CalibrationReport {
            checks: vec![
                RatioCheck {
                    name: "tiled_over_naive_decode",
                    measured: r.tiled_over_naive,
                    band: TILED_OVER_NAIVE_DECODE,
                },
                RatioCheck {
                    name: "int8_over_tiled_decode",
                    measured: r.int8_over_tiled,
                    band: INT8_OVER_TILED_DECODE,
                },
                RatioCheck {
                    name: "int4_over_int8_decode",
                    measured: r.int4_over_int8,
                    band: INT4_OVER_INT8_DECODE,
                },
                RatioCheck {
                    name: "spec_over_tiled_decode",
                    measured: r.spec_over_tiled,
                    band: SPEC_OVER_TILED_DECODE,
                },
            ],
        }
    }

    /// Do all ratios sit inside their bands?
    #[must_use]
    pub fn all_within(&self) -> bool {
        self.checks.iter().all(RatioCheck::ok)
    }

    /// Human-readable table: one line per ratio with measured value,
    /// modeled center, band and verdict.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            String::from("ratio                     measured  modeled  band             verdict\n");
        for c in &self.checks {
            let verdict = if c.ok() { "ok" } else { "OUT OF BAND" };
            out.push_str(&format!(
                "{:<25} {:>8.2} {:>8.2}  [{:.2}, {:.2}]     {}\n",
                c.name, c.measured, c.band.modeled, c.band.lo, c.band.hi, verdict
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modeled_ratios() -> MeasuredRatios {
        MeasuredRatios {
            tiled_over_naive: TILED_OVER_NAIVE_DECODE.modeled,
            int8_over_tiled: INT8_OVER_TILED_DECODE.modeled,
            int4_over_int8: INT4_OVER_INT8_DECODE.modeled,
            spec_over_tiled: SPEC_OVER_TILED_DECODE.modeled,
        }
    }

    #[test]
    fn modeled_centers_sit_inside_their_own_bands() {
        let report = CalibrationReport::new(&modeled_ratios());
        assert!(report.all_within(), "\n{}", report.render());
    }

    #[test]
    fn scalar_fallback_regression_trips_the_tiled_band() {
        // A tiled kernel silently falling back to scalar code measures
        // ~1x over naive — the exact regression the band exists for.
        let mut r = modeled_ratios();
        r.tiled_over_naive = 1.0;
        let report = CalibrationReport::new(&r);
        assert!(!report.all_within());
        assert!(!report.checks[0].ok());
        assert!(report.checks[1].ok());
    }

    #[test]
    fn non_finite_and_absurd_ratios_are_rejected() {
        assert!(!TILED_OVER_NAIVE_DECODE.contains(f64::NAN));
        assert!(!TILED_OVER_NAIVE_DECODE.contains(f64::INFINITY));
        assert!(!TILED_OVER_NAIVE_DECODE.contains(1000.0));
        assert!(!INT8_OVER_TILED_DECODE.contains(0.0));
    }

    #[test]
    fn render_lists_every_ratio_with_verdict() {
        let report = CalibrationReport::new(&modeled_ratios());
        let text = report.render();
        for name in [
            "tiled_over_naive_decode",
            "int8_over_tiled_decode",
            "int4_over_int8_decode",
            "spec_over_tiled_decode",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(!text.contains("OUT OF BAND"));
    }

    #[test]
    fn spec_center_is_the_round_model() {
        // E(a, k) tokens per round over k int8 draft steps plus one
        // verify step, at the acceptance bench_infer pins.
        let (a, k, r) = (0.91_f64, 2.0, INT8_OVER_TILED_DECODE.modeled);
        let tokens_per_round = (1.0 - a.powi(3)) / (1.0 - a);
        let ratio = tokens_per_round / (k / r + 1.0);
        assert!(
            (ratio - SPEC_OVER_TILED_DECODE.modeled).abs() < 0.005,
            "{ratio}"
        );
        // The floor holds at the weakest int8 step the bench admits.
        let weakest = tokens_per_round / (k / 1.5 + 1.0);
        assert!(SPEC_OVER_TILED_DECODE.lo < weakest, "{weakest}");
        assert!(SPEC_OVER_TILED_DECODE.hi <= k + 1.0);
    }

    /// Bytes per weight of the group-quantized formats: the codes plus
    /// one f32 scale per 64-weight group (`cllm_infer::quant::GROUP`).
    fn quant_bytes(code_bytes: f64) -> f64 {
        code_bytes + 4.0 / 64.0
    }

    #[test]
    fn int8_band_is_the_weight_traffic_ratio() {
        let traffic = 4.0 / quant_bytes(1.0);
        assert!(
            (traffic - INT8_OVER_TILED_DECODE.modeled).abs() < 0.005,
            "{traffic}"
        );
        // f32 served from DRAM at half the rate int8 is served from L3.
        assert!((2.0 * traffic - INT8_OVER_TILED_DECODE.hi).abs() < 0.05);
        assert_eq!(INT8_OVER_TILED_DECODE.lo, 1.5, "the bench's hard bar");
    }

    #[test]
    fn int4_band_is_traffic_centered_and_capped_by_the_block() {
        let traffic = quant_bytes(1.0) / quant_bytes(0.5);
        assert!(
            (traffic - INT4_OVER_INT8_DECODE.modeled).abs() < 0.005,
            "{traffic}"
        );
        // Weights per 64-byte block: 128 nibbles against 64 bytes.
        let per_block = (64.0 * 2.0) / 64.0;
        assert_eq!(INT4_OVER_INT8_DECODE.hi, per_block);
        assert_eq!(INT4_OVER_INT8_DECODE.lo, 1.0, "parity");
    }

    #[test]
    fn acceptance_floor_ratios_clear_the_bands() {
        // The bench's hard acceptance bars (tiled >= 2x naive,
        // int8 >= 1.5x tiled) coincide with the band floors: passing
        // the bench implies a calibration-admissible ratio.
        assert!(TILED_OVER_NAIVE_DECODE.contains(2.0));
        assert!(INT8_OVER_TILED_DECODE.contains(1.5));
    }
}
