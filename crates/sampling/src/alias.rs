//! Walker's alias method: `O(n)` preprocessing, `O(1)` per sample.
//!
//! Drawing i.i.d. samples from the data distribution is the first stage of the
//! paper's learning algorithms; the alias method makes this stage as cheap as
//! possible so that the measured learning times are dominated by the
//! post-processing (merging) stage, matching the paper's accounting.

use hist_core::{Distribution, Error, Result};
use rand::Rng;

/// An alias-method sampler for a fixed discrete distribution over `[0, n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasSampler {
    /// Probability of staying in the cell (scaled to `[0, 1]`).
    prob: Vec<f64>,
    /// Alias cell used when the stay-probability check fails.
    alias: Vec<usize>,
}

impl AliasSampler {
    /// Builds the alias table for `dist` in `O(n)` time.
    pub fn new(dist: &Distribution) -> Result<Self> {
        let pmf = dist.pmf();
        let n = pmf.len();
        if n == 0 {
            return Err(Error::EmptyDomain);
        }
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0usize; n];
        // Scale probabilities by n and split into under-/over-full cells.
        let scaled: Vec<f64> = pmf.iter().map(|p| p * n as f64).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut scaled = scaled;
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &l in &large {
            prob[l] = 1.0;
        }
        for &s in &small {
            // Only reachable through floating-point round-off.
            prob[s] = 1.0;
        }
        Ok(Self { prob, alias })
    }

    /// Number of cells (the domain size `n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// The sampler always has at least one cell; provided for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one sample in `O(1)` time.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let cell = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[cell] {
            cell
        } else {
            self.alias[cell]
        }
    }

    /// Draws `m` i.i.d. samples.
    pub fn sample_many<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> Vec<usize> {
        (0..m).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An inverse-CDF sampler: `O(log n)` per sample by binary search over
    /// the CDF. Slower than [`AliasSampler`] but trivially auditable, so it
    /// cross-checks the alias tables statistically.
    struct InverseCdfSampler {
        cdf: Vec<f64>,
    }

    impl InverseCdfSampler {
        fn new(dist: &Distribution) -> Self {
            Self { cdf: dist.cdf() }
        }

        fn sample_many(&self, m: usize, rng: &mut StdRng) -> Vec<usize> {
            (0..m)
                .map(|_| {
                    let u: f64 = rng.gen();
                    match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite cdf")) {
                        Ok(idx) | Err(idx) => idx.min(self.cdf.len() - 1),
                    }
                })
                .collect()
        }
    }

    fn frequencies(samples: &[usize], n: usize) -> Vec<f64> {
        let mut counts = vec![0usize; n];
        for &s in samples {
            counts[s] += 1;
        }
        counts.iter().map(|&c| c as f64 / samples.len() as f64).collect()
    }

    #[test]
    fn alias_sampler_matches_the_target_distribution() {
        let dist = Distribution::new(vec![0.5, 0.25, 0.125, 0.125, 0.0]).unwrap();
        let sampler = AliasSampler::new(&dist).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let samples = sampler.sample_many(200_000, &mut rng);
        let freq = frequencies(&samples, 5);
        for (i, (&f, &p)) in freq.iter().zip(dist.pmf()).enumerate() {
            assert!((f - p).abs() < 0.01, "cell {i}: frequency {f} vs probability {p}");
        }
        assert_eq!(freq[4], 0.0, "zero-probability cells are never drawn");
    }

    #[test]
    fn inverse_cdf_sampler_matches_the_target_distribution() {
        let dist = Distribution::new(vec![0.1, 0.0, 0.6, 0.3]).unwrap();
        let sampler = InverseCdfSampler::new(&dist);
        let mut rng = StdRng::seed_from_u64(11);
        let samples = sampler.sample_many(200_000, &mut rng);
        let freq = frequencies(&samples, 4);
        for (i, (&f, &p)) in freq.iter().zip(dist.pmf()).enumerate() {
            assert!((f - p).abs() < 0.01, "cell {i}: frequency {f} vs probability {p}");
        }
    }

    #[test]
    fn both_samplers_agree_statistically() {
        let dist = Distribution::from_weights(&[3.0, 1.0, 1.0, 5.0, 0.0, 2.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = AliasSampler::new(&dist).unwrap().sample_many(100_000, &mut rng);
        let b = InverseCdfSampler::new(&dist).sample_many(100_000, &mut rng);
        let fa = frequencies(&a, 6);
        let fb = frequencies(&b, 6);
        for i in 0..6 {
            assert!((fa[i] - fb[i]).abs() < 0.015, "cell {i}: {} vs {}", fa[i], fb[i]);
        }
    }

    #[test]
    fn point_mass_always_returns_the_same_element() {
        let dist = Distribution::point_mass(10, 7).unwrap();
        let sampler = AliasSampler::new(&dist).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sampler.sample_many(1_000, &mut rng).iter().all(|&s| s == 7));
    }

    #[test]
    fn uniform_distribution_has_full_stay_probabilities() {
        let dist = Distribution::uniform(16).unwrap();
        let sampler = AliasSampler::new(&dist).unwrap();
        assert_eq!(sampler.len(), 16);
        assert!(sampler.prob.iter().all(|&p| (p - 1.0).abs() < 1e-9));
    }
}
