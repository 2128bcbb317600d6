//! The benchmark's input generator: SplitMix64, so a seed names the
//! same inputs on every machine and every build.

/// A small, fast, fully deterministic generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so that adding
    /// draws to one workload's stream never perturbs another's.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.next_u64() % (hi - lo)
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Bounded Pareto via inverse CDF: heavy-tailed task demand.
    pub fn pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        pareto_quantile(self.unit(), alpha, lo, hi)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks an index by cumulative weights (`weights` need not sum to 1).
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// The bounded-Pareto value at quantile `u` in `[0, 1)`.
pub fn pareto_quantile(u: f64, alpha: f64, lo: f64, hi: f64) -> f64 {
    let ratio = (lo / hi).powf(alpha);
    lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn pareto_stays_in_bounds() {
        let mut r = Rng::new(3, 0);
        for _ in 0..10_000 {
            let x = r.pareto(1.3, 30.0, 3_000.0);
            assert!((30.0..=3_000.0 + 1e-6).contains(&x), "{x}");
        }
    }
}
