//! The seeded op sequence every workload draws from.
//!
//! Ops come in rounds: each round is a fresh seeded permutation of the
//! workload's population, so every run covers the same mix in a
//! seed-dependent order. Input data and output-check choices come from
//! the same seed through [`mix`], indexed by op, so op `i` is the same op
//! in every run with that seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer over `(seed, stream, index)`: independent,
/// reproducible 64-bit draws without threading one generator through
/// the whole run.
#[must_use]
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generator for op `index`'s private draws on `stream`.
#[must_use]
pub fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, index))
}

/// Streams of [`mix`], one per kind of draw.
pub mod stream {
    /// Round permutations.
    pub const ORDER: u64 = 1;
    /// Input tensors.
    pub const DATA: u64 = 2;
    /// Which outputs an op checks.
    pub const CHECK: u64 = 3;
}

/// The population indices of a seeded run, one op at a time.
#[derive(Debug, Clone)]
pub struct OpSequence {
    seed: u64,
    population: usize,
    round: Option<(usize, Vec<usize>)>,
}

impl OpSequence {
    /// The sequence over `population` items (at least one) for `seed`.
    #[must_use]
    pub fn new(seed: u64, population: usize) -> Self {
        assert!(population > 0, "a workload has at least one op kind");
        OpSequence {
            seed,
            population,
            round: None,
        }
    }

    /// The population index of op `i`.
    pub fn get(&mut self, i: usize) -> usize {
        let r = i / self.population;
        if self.round.as_ref().map(|(n, _)| *n) != Some(r) {
            self.round = Some((r, self.permutation(r)));
        }
        let (_, order) = self.round.as_ref().expect("round just filled");
        order[i % self.population]
    }

    /// Fisher–Yates shuffle of the population for round `r`.
    fn permutation(&self, r: usize) -> Vec<usize> {
        let mut rng = rng(self.seed, stream::ORDER, r as u64);
        let mut order: Vec<usize> = (0..self.population).collect();
        for j in (1..order.len()).rev() {
            let k = rng.gen_range(0..j + 1);
            order.swap(j, k);
        }
        order
    }
}
