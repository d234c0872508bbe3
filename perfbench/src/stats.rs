//! Small deterministic helpers: a seeded PRNG, digests, order statistics.

use cimflow_sim::SimReport;

/// SplitMix64: a tiny seeded generator, so the request list depends on
/// nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digest of a whole simulation report (every field, via its JSON form).
pub fn report_digest(report: &SimReport) -> u64 {
    fnv1a(serde_json::to_string(report).expect("a SimReport always serializes").as_bytes())
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The highest latency percentile that still has at least `beyond`
/// samples above it, by nearest rank: returns `(percentile, value)`,
/// where the value is the `beyond + 1`-th largest sample (the maximum
/// when the sample is too small to leave `beyond` samples out).
pub fn tail(values: &[f64], beyond: usize) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= beyond {
        return (100.0, sorted.last().copied().unwrap_or(0.0));
    }
    ((n - beyond) as f64 / n as f64 * 100.0, sorted[n - beyond - 1])
}

/// Geometric mean of positive values (0 for an empty sample).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Quantile over the `(lower bound, count)` buckets of one or more
/// histogram snapshots, with the same rank rule as the metrics crate.
pub fn bucket_quantile(buckets: &std::collections::BTreeMap<u64, u64>, q: f64) -> u64 {
    let count: u64 = buckets.values().sum();
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0;
    for (bound, n) in buckets {
        cumulative += n;
        if cumulative >= rank {
            return *bound;
        }
    }
    *buckets.keys().last().unwrap_or(&0)
}
