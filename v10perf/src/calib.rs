//! A fixed calibration kernel that runs no simulator code, and the phase
//! correction built on it.
//!
//! The host this benchmark runs on shares its cores with other machines'
//! work and switches between speed phases 1.3–2× apart that can last a
//! minute or more, longer than one run. In the slow phase a neighbour
//! takes part of the core: its issue slots and its private cache. The
//! kernel is six independent xorshift/add lanes held in registers, which
//! slow when issue slots are taken and touch no memory, so nothing the
//! simulator does to the caches can change the kernel's time.
//!
//! Every timed call is bracketed by a kernel sample before and after it,
//! and its host time is reported twice: raw, and corrected to the speed
//! of a quiet host, `raw × NOMINAL_MS / mean(before, after)`. The kernel
//! is fixed, so a code change moves the corrected time as it moves the
//! raw one; only the machine's phase is divided out. The median sample is
//! printed as `host.calib_ms`: if it moves together with the raw times
//! between two runs, the machine changed speed, not the code.
//!
//! The correction is partial: on a 2-vCPU Sapphire Rapids VM the kernel
//! slowed by 1.3–1.5× between phases in which the simulator slowed by
//! 1.4–2×. Over ten seeds per workload at 30 s a run, the interquartile
//! range of the run medians, as a share of their median, went from
//! 0.106 / 0.123 / 0.155 / 0.261 raw to 0.108 / 0.049 / 0.020 / 0.172
//! corrected (pairs_closed / serve_dense / fleet_flash / stressed_burst).
//! A cold 2 MiB cache walk timed the same way is not used: its time
//! depended on how much cache the simulator had just used, so a change to
//! the simulator's footprint would have moved the correction.

use std::hint::black_box;
use std::time::Instant;

/// Rounds of the lane loop per sample.
const ROUNDS: u64 = 1_000_000;

/// The kernel's time, in ms, on a quiet host: the fast phase of a 2-vCPU
/// Sapphire Rapids VM at 2.0 GHz. It only sets the scale of corrected
/// times, so that they read about as ms on that host; any fixed value
/// would do.
pub const NOMINAL_MS: f64 = 2.0;

/// The kernel samples taken so far.
#[derive(Default)]
pub struct Calibrator {
    samples: Vec<f64>,
}

/// The host time of one bracketed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub raw_ms: f64,
    pub corrected_ms: f64,
}

impl Calibrator {
    /// Every kernel sample taken, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Runs `f` between two kernel samples and returns its host time with
    /// its result. The sample after one call is the sample before the
    /// next, so back-to-back calls cost one sample each.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (Timed, T) {
        let before = match self.samples.last() {
            Some(&ms) => ms,
            None => self.sample_ms(),
        };
        let start = Instant::now();
        let out = f();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.sample_ms();
        let timed = Timed {
            raw_ms,
            corrected_ms: corrected_ms(raw_ms, before, after),
        };
        (timed, out)
    }

    /// Runs the kernel once and records its host time in ms.
    fn sample_ms(&mut self) -> f64 {
        let start = Instant::now();
        black_box(lanes(black_box(ROUNDS)));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }
}

/// `rounds` of six xorshift/add lanes with no dependences between them.
fn lanes(rounds: u64) -> u64 {
    let (mut a, mut b, mut c, mut d, mut e, mut f) = (1u64, 2u64, 3u64, 4u64, 5u64, 6u64);
    for _ in 0..rounds {
        a ^= a << 13;
        b ^= b >> 7;
        c ^= c << 17;
        d = d.wrapping_add(a);
        e ^= b.rotate_left(9);
        f = f.wrapping_add(c ^ d);
        a ^= a >> 7;
        b ^= b << 17;
        c ^= c >> 9;
    }
    a ^ b ^ c ^ d ^ e ^ f
}

/// A raw time scaled to the quiet-host speed: `raw × NOMINAL_MS` over the
/// mean of the kernel samples taken just before and just after it.
pub fn corrected_ms(raw_ms: f64, before_ms: f64, after_ms: f64) -> f64 {
    raw_ms * NOMINAL_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(lanes(1000), lanes(1000));
        assert_ne!(lanes(1000), lanes(1001));
    }

    #[test]
    fn correction_divides_out_the_bracketing_samples() {
        // A host at nominal speed leaves the time unchanged.
        assert_eq!(corrected_ms(100.0, NOMINAL_MS, NOMINAL_MS), 100.0);
        // Twice as slow on both sides: half the raw time.
        assert_eq!(
            corrected_ms(100.0, 2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS),
            50.0
        );
        // The two samples are averaged.
        let mid = corrected_ms(90.0, NOMINAL_MS, 2.0 * NOMINAL_MS);
        assert!((mid - 60.0).abs() < 1e-9, "{mid}");
    }

    #[test]
    fn back_to_back_calls_share_a_sample() {
        let mut c = Calibrator::default();
        let (t, v) = c.time(|| 7);
        assert_eq!(v, 7);
        assert!(t.raw_ms >= 0.0 && t.corrected_ms >= 0.0);
        assert_eq!(c.samples().len(), 2);
        c.time(|| ());
        assert_eq!(c.samples().len(), 3, "the previous 'after' is reused");
    }
}
