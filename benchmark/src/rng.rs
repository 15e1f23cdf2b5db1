//! SplitMix64: the one generator behind grid contents and job order, so
//! that a seed fixes every input of a run.

/// SplitMix64 (Steele, Lea, Flood), the same recurrence the failpoint
/// crate replays; reimplemented here because the benchmark depends only on
/// the workspace's stable surface.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for `seed`; `stream` separates independent uses of one
    /// seed (grids, each client's job order).
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits: normal doubles only, so no
    /// kernel meets a denormal and timing cannot depend on the seed.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_sequence_and_the_job_order() {
        let order = |seed| {
            let mut rng = SplitMix64::new(seed, 3);
            let mut jobs: Vec<usize> = (0..20).collect();
            rng.shuffle(&mut jobs);
            (jobs, rng.next_u64())
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let (jobs, _) = order(1);
        let mut back = jobs.clone();
        back.sort_unstable();
        assert_eq!(back, (0..20).collect::<Vec<_>>(), "a permutation");
        // streams of one seed are independent
        assert_ne!(
            SplitMix64::new(1, 0).next_u64(),
            SplitMix64::new(1, 1).next_u64()
        );
        // reference value of the recurrence for state 0
        assert_eq!(SplitMix64(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        let u = SplitMix64::new(9, 9).unit_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
