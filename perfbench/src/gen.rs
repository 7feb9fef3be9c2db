//! Seeded input generation. Every input a workload hands the program is made
//! here from the `--seed` argument alone, so one seed always yields
//! bit-identical signals, request mixes and event blocks.

/// SplitMix64 (Steele, Lea and Flood, 2014): small, fast and fixed forever,
/// so inputs never change with a dependency upgrade.
#[derive(Debug, Clone)]
pub struct Rng(u64);

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX_1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_2: u64 = 0x94D0_49BB_1331_11EB;

impl Rng {
    /// The stream for sub-input `tag` of `seed`: distinct tags give
    /// independent streams, so adding an input never shifts another.
    pub fn derive(seed: u64, tag: u64) -> Self {
        let mut rng = Rng(seed);
        for _ in 0..=tag {
            rng.next_u64();
        }
        Rng(rng.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(MIX_1);
        z = (z ^ (z >> 27)).wrapping_mul(MIX_2);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos()
    }
}

/// A non-negative noisy step signal of length `n`: `plateaus` random levels
/// in `[1, 100)` at random cut points, Gaussian noise of deviation `noise`,
/// and a spike on about one value in a thousand — the shape histograms are
/// fitted to, with outliers the merge rounds must keep.
pub fn plateau_signal(rng: &mut Rng, n: usize, plateaus: usize, noise: f64) -> Vec<f64> {
    let mut cuts: Vec<usize> = (1..plateaus).map(|_| rng.below(n)).collect();
    cuts.sort_unstable();
    cuts.push(n);
    let mut out = Vec::with_capacity(n);
    for end in cuts {
        let level = 1.0 + 99.0 * rng.unit();
        while out.len() < end {
            let spike = if rng.below(1_000) == 0 { 200.0 * rng.unit() } else { 0.0 };
            out.push((level + noise * rng.normal() + spike).max(0.0));
        }
    }
    out
}

/// `nonzeros` ascending, distinct `(index, value)` entries over
/// `[0, domain)`: one uniformly placed index per equal stratum of the domain,
/// valued by a plateau signal over the strata (shifted to stay non-zero).
pub fn sparse_entries(
    rng: &mut Rng,
    domain: usize,
    nonzeros: usize,
    plateaus: usize,
) -> Vec<(usize, f64)> {
    let stratum = domain / nonzeros;
    assert!(stratum >= 1, "more nonzeros than domain positions");
    let values = plateau_signal(rng, nonzeros, plateaus, 2.0);
    values.iter().enumerate().map(|(i, &v)| (i * stratum + rng.below(stratum), v + 1.0)).collect()
}

/// Zipf-distributed picks over `n` keys: rank `r` is drawn with weight
/// `1 / (r + 1)^s`, and ranks map to keys through a seeded shuffle so the hot
/// keys are scattered over the key space (and the store's shards).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
    rank_to_key: Vec<usize>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` keys with exponent `s`.
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut rank_to_key: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank_to_key.swap(i, rng.below(i + 1));
        }
        Self { cdf, rank_to_key }
    }

    /// The key holding popularity rank `rank`.
    #[cfg(test)]
    pub fn key_of_rank(&self, rank: usize) -> usize {
        self.rank_to_key[rank]
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.rank_to_key[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = plateau_signal(&mut Rng::derive(7, 1), 5_000, 40, 2.0);
        let b = plateau_signal(&mut Rng::derive(7, 1), 5_000, 40, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, plateau_signal(&mut Rng::derive(8, 1), 5_000, 40, 2.0));
        assert_ne!(a, plateau_signal(&mut Rng::derive(7, 2), 5_000, 40, 2.0));

        let s1 = sparse_entries(&mut Rng::derive(7, 3), 1 << 20, 1 << 10, 16);
        let s2 = sparse_entries(&mut Rng::derive(7, 3), 1 << 20, 1 << 10, 16);
        assert_eq!(s1, s2);

        let z1 = Zipf::new(500, 1.1, &mut Rng::derive(7, 4));
        let z2 = Zipf::new(500, 1.1, &mut Rng::derive(7, 4));
        assert_eq!(z1, z2);
        let (mut r1, mut r2) = (Rng::derive(7, 5), Rng::derive(7, 5));
        let picks1: Vec<usize> = (0..1_000).map(|_| z1.sample(&mut r1)).collect();
        let picks2: Vec<usize> = (0..1_000).map(|_| z2.sample(&mut r2)).collect();
        assert_eq!(picks1, picks2);
    }

    #[test]
    fn generated_signals_have_the_promised_shape() {
        let values = plateau_signal(&mut Rng::derive(1, 1), 10_000, 25, 1.0);
        assert_eq!(values.len(), 10_000);
        assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0));

        let entries = sparse_entries(&mut Rng::derive(1, 2), 1 << 16, 1 << 8, 8);
        assert_eq!(entries.len(), 1 << 8);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "strictly ascending");
        assert!(entries.iter().all(|&(i, v)| i < 1 << 16 && v >= 1.0));
    }

    #[test]
    fn zipf_favours_low_ranks_with_the_right_exponent() {
        let zipf = Zipf::new(4_096, 1.1, &mut Rng::derive(3, 1));
        let mut rng = Rng::derive(3, 2);
        let mut counts = vec![0usize; 4_096];
        for _ in 0..400_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let (top, second) = (counts[zipf.key_of_rank(0)], counts[zipf.key_of_rank(1)]);
        assert_eq!(counts.iter().max(), Some(&top), "rank 0 is the hottest key");
        // Expected ratio 2^1.1 ≈ 2.14 between the two hottest ranks.
        let ratio = top as f64 / second as f64;
        assert!((1.9..2.4).contains(&ratio), "rank-0/rank-1 ratio {ratio}");
        assert!(counts.iter().filter(|&&c| c > 0).count() > 2_000, "the tail is reached");
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut rng = Rng::derive(11, 0);
        for n in [1usize, 2, 3, 1_000, usize::MAX] {
            for _ in 0..1_000 {
                assert!(rng.below(n) < n);
            }
        }
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
