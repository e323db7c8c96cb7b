//! The benchmark's own seeded generator, so op lists depend on
//! `--seed` and on nothing in the workspace under test.

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the draws of different decks under one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` draws from Zipf(`exponent`) over ranks `0..n`: rank `k` is
/// drawn with weight `1 / (k + 1)^exponent`.
pub fn zipf_draws(rng: &mut Rng, n: usize, exponent: f64, count: usize) -> Vec<u32> {
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0;
    for k in 0..n {
        total += 1.0 / ((k + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    (0..count)
        .map(|_| {
            let u = rng.unit() * total;
            cumulative.partition_point(|&c| c <= u).min(n - 1) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_repeat_for_a_seed_and_differ_across_seeds() {
        let a = zipf_draws(&mut Rng::new(7, 1), 64, 1.0, 10_000);
        let b = zipf_draws(&mut Rng::new(7, 1), 64, 1.0, 10_000);
        let c = zipf_draws(&mut Rng::new(8, 1), 64, 1.0, 10_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&r| r < 64));
        // Rank 0 carries 1/H(64) ≈ 21% of the mass.
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((0.18..0.24).contains(&top), "rank-0 share {top}");
        let last = a.iter().filter(|&&r| r == 63).count();
        assert!(last > 0 && last < a.len() / 100);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(3, 0).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
