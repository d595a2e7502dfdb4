//! The benchmark's own arithmetic: order statistics over host timings,
//! the failure ratio, and the simulated-output digest.

/// Median of `values` (mean of the middle pair for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a tail is reported at, highest first, in tenths of a
/// percent so rank arithmetic stays exact.
pub const TAIL_LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The tail of a timing distribution: the highest percentile of
/// [`TAIL_LADDER_PERMILLE`] that still has [`TAIL_BEYOND`] samples above
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile.
    pub percentile: f64,
    /// Samples above it in rank.
    pub beyond: usize,
    /// Samples in the distribution.
    pub samples: usize,
}

/// Selects the tail sample. The `p`th percentile is the nearest-rank
/// sample, at 0-based rank `ceil(p / 100 * n) - 1` of the ascending
/// order; the highest ladder percentile with at least [`TAIL_BEYOND`]
/// samples ranked above it wins. Returns `None` when even the median lacks
/// them, that is below [`MIN_TAIL_SAMPLES`].
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let sorted = sorted(values);
    TAIL_LADDER_PERMILLE.iter().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000).checked_sub(1)?;
        let beyond = n - rank - 1;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            value: sorted[rank],
            percentile: pm as f64 / 10.0,
            beyond,
            samples: n,
        })
    })
}

/// The fewest samples [`tail`] needs: the median of `2 * TAIL_BEYOND`
/// samples has `TAIL_BEYOND` above it.
pub const MIN_TAIL_SAMPLES: usize = 2 * TAIL_BEYOND;

/// Failed operations as a share of those attempted (0 when none were).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// 64-bit FNV-1a over the little-endian bytes of `words`: a compact,
/// order-sensitive fingerprint of a run's digest words.
pub fn digest_hash(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Describes the first difference between a pinned digest and a fresh
/// one, or returns `None` when they are identical word for word.
pub fn digest_mismatch(pinned: &[u64], fresh: &[u64]) -> Option<String> {
    if pinned.len() != fresh.len() {
        return Some(format!(
            "digest length {} != pinned {}",
            fresh.len(),
            pinned.len()
        ));
    }
    pinned.iter().zip(fresh).position(|(a, b)| a != b).map(|i| {
        format!(
            "digest word {i}: {:#018x} != pinned {:#018x}",
            fresh[i], pinned[i]
        )
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (1..MIN_TAIL_SAMPLES as u32).map(f64::from).collect();
        assert_eq!(tail(&short), None, "the median has only 9 samples beyond");
        assert_eq!(tail(&[]), None);

        let t = tail(&(1..=20).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (50.0, 10.0, 10, 20)
        );
    }

    #[test]
    fn tail_climbs_the_ladder_as_samples_grow() {
        // Shuffled input: selection must sort, not trust the order.
        let shuffled =
            |n: u32| -> Vec<f64> { (0..n).map(|i| f64::from((i * 37) % n + 1)).collect() };
        let t = tail(&shuffled(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&shuffled(199)).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 19), "p95 would leave 9");
        let t = tail(&shuffled(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&shuffled(20_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 19_980.0, 20));
        let above = shuffled(1000).iter().filter(|&&v| v > 990.0).count();
        assert_eq!(above, TAIL_BEYOND);
    }

    #[test]
    fn failed_fraction() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 40), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
        assert_eq!(failed_frac(7, 7), 1.0);
    }

    #[test]
    fn digest_comparison_finds_the_first_differing_word() {
        let pinned = [1, 2, 3, 4];
        assert_eq!(digest_mismatch(&pinned, &[1, 2, 3, 4]), None);
        let msg = digest_mismatch(&pinned, &[1, 2, 9, 4]).unwrap();
        assert!(msg.starts_with("digest word 2:"), "{msg}");
        let msg = digest_mismatch(&pinned, &[1, 2, 3]).unwrap();
        assert!(msg.contains("length 3"), "{msg}");
    }

    #[test]
    fn digest_hash_is_order_and_bit_sensitive() {
        let a = digest_hash(&[1, 2, 3]);
        assert_eq!(a, digest_hash(&[1, 2, 3]), "deterministic");
        assert_ne!(a, digest_hash(&[2, 1, 3]), "order matters");
        assert_ne!(a, digest_hash(&[1, 2, 3 ^ (1 << 63)]), "one flipped bit");
        assert_ne!(digest_hash(&[]), digest_hash(&[0]), "length matters");
        // FNV-1a of the empty input is its offset basis.
        assert_eq!(digest_hash(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
