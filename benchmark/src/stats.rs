//! Seeded randomness, digests, and the percentile arithmetic every reported
//! timing goes through.

/// SplitMix64: small, fast, and fully determined by its seed, so the same
/// `--seed` gives the same inputs on every machine.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream derived from this one's seed (client threads,
    /// per-phase generators).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Zipf(1.0)-skewed rank in `0..n`: a log-uniform draw, so
    /// `P(rank < r) = ln r / ln n` — the same skew the instance generator
    /// gives the join fan-out.
    pub fn zipf(&mut self, n: usize) -> usize {
        let r = (n as f64).powf(self.unit()) as usize;
        r.saturating_sub(1).min(n - 1)
    }
}

/// FNV-1a, for op-sequence and answer digests that can be compared between
/// two commits on one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so `eat("ab"); eat("c")` and `eat("a"); eat("bc")` differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// The median, or `None` without samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The mean of what is left when the lowest and the highest `trim` share of
/// the samples (rounded down) are set aside, or `None` without samples. Where
/// a latency comes in modes — a commit that must copy the relation because a
/// reader pinned it, and one that need not — the median is whichever mode
/// holds the 50th percentile this run; a mean moves smoothly with the modes'
/// shares, and trimming keeps a handful of stalls from setting it.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> Option<f64> {
    let v = sorted(samples);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The `p`-th percentile (`0 < p < 100`, nearest rank), reported only when at
/// least ten samples lie beyond it — a tail read off fewer is an anecdote.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// `[q1, median, q3]` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method) — the driver computes spreads the same way.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 95.0), None, "only five samples beyond p95");
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), Some(190.0));
        assert_eq!(percentile(&s, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(990.0));
    }

    #[test]
    fn trimmed_mean_sets_the_extremes_aside() {
        let mut s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(trimmed_mean(&s, 0.05), Some(10.5));
        s[19] = 1e9;
        assert_eq!(trimmed_mean(&s, 0.05), Some(10.5), "one stall in twenty");
        assert_eq!(trimmed_mean(&[4.0, 2.0], 0.05), Some(3.0));
        assert_eq!(trimmed_mean(&[], 0.05), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some([1.5, 4.0, 12.0])
        );
    }

    #[test]
    fn rng_is_seeded_and_zipf_is_skewed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = Rng::new(1);
        let ranks: Vec<usize> = (0..10_000).map(|_| r.zipf(2000)).collect();
        assert!(ranks.iter().all(|&k| k < 2000));
        let head = ranks.iter().filter(|&&k| k < 20).count();
        let tail = ranks.iter().filter(|&&k| k >= 1980).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn digest_separates_chunk_boundaries() {
        let mut a = Digest::default();
        a.eat(b"ab");
        a.eat(b"c");
        let mut b = Digest::default();
        b.eat(b"a");
        b.eat(b"bc");
        assert_ne!(a, b);
    }
}
