//! Prints Table II: published trace characteristics next to the measured
//! characteristics of our MSR-like synthesizers.
//!
//! ```text
//! cargo run --release -p exp --bin traces [--requests 20000]
//! ```

use exp::args::Args;
use exp::traces::{render, run};

fn main() {
    let args = Args::from_env();
    let common = args.common(2);
    let rows = run(
        args.get("requests", 20_000usize),
        args.get("base-iops", 2_000.0f64),
        common.seed,
    );
    println!("{}", render(&rows));
}
