//! Seeded byte mutations for decoder fuzz tests.
//!
//! A decoder that reads bytes from disk is fuzzed in `cargo test` by
//! decoding mutants of valid encoder output drawn from [`mutate`] with a
//! fixed seed and a bounded budget, so any failure reproduces exactly.

use crate::{Rng, RngCore};

/// One mutant of a corpus entry: with equal odds, the entry with 1–8
/// bits flipped, the entry cut short at a random length, or a splice of
/// a prefix of the entry and a suffix of another (or the same) entry.
///
/// # Panics
///
/// Panics if `corpus` is empty.
pub fn mutate<R: RngCore + ?Sized>(rng: &mut R, corpus: &[&[u8]]) -> Vec<u8> {
    let base = corpus[rng.gen_range(0..corpus.len())];
    match rng.gen_range(0..3u32) {
        0 => {
            let mut out = base.to_vec();
            if !out.is_empty() {
                for _ in 0..rng.gen_range(1..=8u32) {
                    let bit = rng.gen_range(0..out.len() * 8);
                    out[bit / 8] ^= 1 << (bit % 8);
                }
            }
            out
        }
        1 => base[..rng.gen_range(0..=base.len())].to_vec(),
        _ => {
            let other = corpus[rng.gen_range(0..corpus.len())];
            let mut out = base[..rng.gen_range(0..=base.len())].to_vec();
            out.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn mutants_are_seeded_and_stay_near_the_corpus() {
        let corpus: [&[u8]; 2] = [b"abcdefgh", b"0123456789"];
        let draw = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..200)
                .map(|_| mutate(&mut rng, &corpus))
                .collect::<Vec<_>>()
        };
        let mutants = draw(5);
        assert_eq!(mutants, draw(5));
        assert!(mutants.iter().all(|m| m.len() <= 20));
        assert!(mutants.iter().any(|m| !corpus.contains(&m.as_slice())));
        assert!(mutants.iter().any(|m| m.len() < 8));
    }
}
