//! A small, dependency-light parallel execution substrate.
//!
//! The SSDKeeper strategy learner labels thousands of mixed workloads by
//! running each of them under all 42 channel-allocation strategies on the
//! flash simulator (Algorithm 1 of the paper). Those simulations are
//! embarrassingly parallel, so the learner fans them out across cores with
//! [`par_map`]. The paper's authors ran the equivalent sweep with ad-hoc
//! scripts on a dual-Xeon workstation; this crate is the reusable Rust
//! replacement.
//!
//! Design notes:
//! * Built on [`std::thread::scope`] so closures may borrow from the
//!   caller's stack — no `'static` bounds, no `Arc` plumbing, and no
//!   external crates (the workspace builds hermetically offline).
//! * Work distribution is a single atomic cursor over the input index space
//!   (self-scheduling), which load-balances well when item costs vary by an
//!   order of magnitude, as simulator runs do.
//! * Results are returned **in input order** regardless of completion order.
//! * With one worker the implementation degrades to a plain sequential map
//!   (no threads are spawned), so the same code path is used on single-core
//!   CI machines.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod pool;

pub use chunk::{chunk_ranges, Chunk};
pub use pool::{par_map, par_map_init, par_map_with, PoolConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let out = par_map(&PoolConfig::default(), &[1, 2, 3], |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        let ranges = chunk_ranges(10, 3);
        assert_eq!(ranges.len(), 3);
    }
}
