//! A tiny `--flag value` argument parser (no external CLI dependency),
//! plus the flag surface every `exp` binary shares.

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit token stream. `--key value` pairs become flags;
    /// a `--key` followed by another `--...` (or end of input) becomes a
    /// boolean switch.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Self {
        let tokens: Vec<String> = tokens.into_iter().collect();
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            if let Some(key) = tok.strip_prefix("--") {
                let next = tokens.get(i + 1);
                match next {
                    Some(v) if !v.starts_with("--") => {
                        flags.insert(key.to_string(), v.clone());
                        i += 2;
                    }
                    _ => {
                        switches.push(key.to_string());
                        i += 1;
                    }
                }
            } else {
                i += 1; // ignore stray positionals
            }
        }
        Self { flags, switches }
    }

    /// A `--key value` flag parsed as `T`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value fails to parse.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.flags.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                panic!(
                    "--{key} expects a {}, got `{v}`",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// A string flag, or `default` when absent.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A string flag if present.
    pub fn get_opt(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Whether a boolean `--switch` was passed.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key) || self.flags.contains_key(key)
    }

    /// Parses the flag surface shared by every `exp` binary:
    /// `--seed N` and `--json`.
    pub fn common(&self, default_seed: u64) -> CommonArgs {
        CommonArgs {
            seed: self.get("seed", default_seed),
            json: self.has("json"),
        }
    }
}

/// The common `--seed` / `--json` surface, parsed once by
/// [`Args::common`].
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// `--seed N` (binary-specific default).
    pub seed: u64,
    /// `--json` switch.
    pub json: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = parse("--samples 500 --out foo.txt");
        assert_eq!(a.get("samples", 0usize), 500);
        assert_eq!(a.get_str("out", "x"), "foo.txt");
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("");
        assert_eq!(a.get("samples", 7usize), 7);
        assert_eq!(a.get_str("out", "d"), "d");
        assert!(a.get_opt("out").is_none());
    }

    #[test]
    fn switches_are_detected() {
        let a = parse("--quick --samples 3");
        assert!(a.has("quick"));
        assert!(a.has("samples"));
        assert!(!a.has("slow"));
    }

    #[test]
    fn trailing_switch() {
        let a = parse("--samples 3 --verbose");
        assert!(a.has("verbose"));
        assert_eq!(a.get("samples", 0usize), 3);
    }

    #[test]
    #[should_panic(expected = "--samples expects")]
    fn bad_value_panics() {
        let a = parse("--samples banana");
        let _ = a.get("samples", 0usize);
    }

    #[test]
    fn stray_positionals_ignored() {
        let a = parse("stray --k v");
        assert_eq!(a.get_str("k", ""), "v");
    }

    #[test]
    fn common_surface_defaults() {
        let c = parse("").common(42);
        assert_eq!(c.seed, 42);
        assert!(!c.json);
    }

    #[test]
    fn common_surface_parses_both() {
        let c = parse("--seed 7 --json").common(42);
        assert_eq!(c.seed, 7);
        assert!(c.json);
    }
}
