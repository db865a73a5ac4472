//! Plain-text model persistence.
//!
//! The paper trains on the host and "sends the parameters to the FTL"; the
//! wire format here is a deliberately simple line-oriented text layout so
//! a firmware-side parser would be trivial and diffs stay reviewable:
//!
//! ```text
//! ann-v1
//! layers <count>
//! layer <fan_in> <fan_out> <activation>
//! w <fan_in*fan_out floats, row-major, space-separated>
//! b <fan_out floats>
//! ...repeated per layer...
//! ```
//!
//! Every weight and bias must be finite: that is what keeps a loaded
//! network's forward pass bit-identical to the one it was trained with
//! (see `Matrix::matmul_into`).

use crate::activation::Activation;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::network::Network;
use std::path::Path;

/// Errors from [`parse_network`] / [`load_network`].
#[derive(Debug)]
pub enum ModelIoError {
    /// File I/O failed.
    Io(std::io::Error),
    /// The text did not match the format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model I/O error: {e}"),
            ModelIoError::Parse { line, message } => {
                write!(f, "model parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> ModelIoError {
    ModelIoError::Parse {
        line,
        message: message.into(),
    }
}

/// Serializes a network to the text format.
pub fn format_network(net: &Network) -> String {
    let mut out = String::new();
    out.push_str("ann-v1\n");
    out.push_str(&format!("layers {}\n", net.layers().len()));
    for layer in net.layers() {
        out.push_str(&format!(
            "layer {} {} {}\n",
            layer.fan_in(),
            layer.fan_out(),
            layer.act.name()
        ));
        out.push('w');
        for &v in layer.w.as_slice() {
            out.push(' ');
            out.push_str(&format!("{v:e}"));
        }
        out.push('\n');
        out.push('b');
        for &v in &layer.b {
            out.push(' ');
            out.push_str(&format!("{v:e}"));
        }
        out.push('\n');
    }
    out
}

/// Parses the text format back into a network. Rejects non-finite
/// weights and biases; the layer count and shapes are only trusted as far
/// as the lines present back them.
pub fn parse_network(text: &str) -> Result<Network, ModelIoError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (ln, header) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
    if header.trim() != "ann-v1" {
        return Err(parse_err(ln, format!("bad header `{header}`")));
    }
    let (ln, count_line) = lines
        .next()
        .ok_or_else(|| parse_err(2, "missing layer count"))?;
    let count: usize = count_line
        .strip_prefix("layers ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| parse_err(ln, "expected `layers <n>`"))?;
    if count == 0 {
        return Err(parse_err(ln, "a network needs at least one layer"));
    }

    let mut layers = Vec::new();
    for _ in 0..count {
        let (ln, meta) = lines
            .next()
            .ok_or_else(|| parse_err(0, "missing layer header"))?;
        let mut parts = meta.split_whitespace();
        if parts.next() != Some("layer") {
            return Err(parse_err(ln, "expected `layer <in> <out> <act>`"));
        }
        let fan_in: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(ln, "bad fan_in"))?;
        let fan_out: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(ln, "bad fan_out"))?;
        if fan_in == 0 || fan_out == 0 {
            return Err(parse_err(ln, "layer dimensions must be positive"));
        }
        let act = parts
            .next()
            .and_then(Activation::from_name)
            .ok_or_else(|| parse_err(ln, "bad activation"))?;

        let (ln_w, w_line) = lines
            .next()
            .ok_or_else(|| parse_err(ln, "missing weights"))?;
        let weights = fan_in
            .checked_mul(fan_out)
            .ok_or_else(|| parse_err(ln, "layer dimensions overflow"))?;
        let w_vals = parse_float_line(w_line, 'w', weights, ln_w)?;
        let (ln_b, b_line) = lines
            .next()
            .ok_or_else(|| parse_err(ln, "missing biases"))?;
        let b_vals = parse_float_line(b_line, 'b', fan_out, ln_b)?;

        layers.push(Dense {
            w: Matrix::from_vec(fan_in, fan_out, w_vals),
            b: b_vals,
            act,
        });
    }
    for pair in layers.windows(2) {
        if pair[0].fan_out() != pair[1].fan_in() {
            return Err(parse_err(0, "layer width mismatch"));
        }
    }
    Ok(Network::from_layers(layers))
}

fn parse_float_line(
    line: &str,
    tag: char,
    expected: usize,
    ln: usize,
) -> Result<Vec<f32>, ModelIoError> {
    let rest = line
        .strip_prefix(tag)
        .ok_or_else(|| parse_err(ln, format!("expected `{tag} ...`")))?;
    let vals: Result<Vec<f32>, _> = rest.split_whitespace().map(str::parse).collect();
    let vals = vals.map_err(|e| parse_err(ln, format!("bad float: {e}")))?;
    if !vals.iter().all(|v| v.is_finite()) {
        return Err(parse_err(ln, "values must be finite"));
    }
    if vals.len() != expected {
        return Err(parse_err(
            ln,
            format!("expected {expected} values, found {}", vals.len()),
        ));
    }
    Ok(vals)
}

/// Writes a network to a file.
pub fn save_network(net: &Network, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
    std::fs::write(path, format_network(net))?;
    Ok(())
}

/// Reads a network from a file.
pub fn load_network(path: impl AsRef<Path>) -> Result<Network, ModelIoError> {
    let text = std::fs::read_to_string(path)?;
    parse_network(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_net() -> Network {
        Network::builder(3, 11)
            .hidden(5, Activation::ReLU)
            .output(4)
            .build()
    }

    #[test]
    fn round_trip_preserves_network_exactly() {
        let net = sample_net();
        let text = format_network(&net);
        let parsed = parse_network(&text).unwrap();
        assert_eq!(parsed, net);
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let net = Network::paper_topology(Activation::Logistic, 4);
        let parsed = parse_network(&format_network(&net)).unwrap();
        let features: Vec<f32> = (0..9).map(|i| i as f32 / 9.0).collect();
        assert_eq!(net.predict_one(&features), parsed.predict_one(&features));
    }

    #[test]
    fn file_round_trip() {
        let net = sample_net();
        let dir = std::env::temp_dir().join("ann_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        save_network(&net, &path).unwrap();
        let loaded = load_network(&path).unwrap();
        assert_eq!(loaded, net);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_network("/nonexistent/definitely/missing.txt").unwrap_err();
        assert!(matches!(err, ModelIoError::Io(_)));
    }

    #[test]
    fn rejects_bad_header() {
        let err = parse_network("not-a-model\n").unwrap_err();
        assert!(err.to_string().contains("bad header"));
    }

    #[test]
    fn rejects_zero_layers() {
        let err = parse_network("ann-v1\nlayers 0\n").unwrap_err();
        assert!(err.to_string().contains("at least one"));
    }

    #[test]
    fn rejects_wrong_value_count() {
        let text = "ann-v1\nlayers 1\nlayer 2 2 relu\nw 1 2 3\nb 0 0\n";
        let err = parse_network(text).unwrap_err();
        assert!(err.to_string().contains("expected 4 values"));
    }

    #[test]
    fn rejects_bad_activation() {
        let text = "ann-v1\nlayers 1\nlayer 1 1 swish\nw 1\nb 0\n";
        let err = parse_network(text).unwrap_err();
        assert!(err.to_string().contains("bad activation"));
    }

    #[test]
    fn rejects_mismatched_layer_widths() {
        let text = "ann-v1\nlayers 2\nlayer 2 3 relu\nw 1 1 1 1 1 1\nb 0 0 0\nlayer 4 1 identity\nw 1 1 1 1\nb 0\n";
        let err = parse_network(text).unwrap_err();
        assert!(err.to_string().contains("width mismatch"));
    }

    #[test]
    fn rejects_truncated_input() {
        let err = parse_network("ann-v1\nlayers 1\nlayer 2 2 relu\n").unwrap_err();
        assert!(err.to_string().contains("missing weights"));
    }

    #[test]
    fn rejects_a_layer_count_the_lines_do_not_back() {
        // A corrupt count must not size an allocation.
        let err = parse_network(&format!("ann-v1\nlayers {}\n", usize::MAX)).unwrap_err();
        assert!(err.to_string().contains("missing layer header"));
        let text = format!(
            "ann-v1\nlayers 1\nlayer {} 2 relu\nw 1\nb 0 0\n",
            usize::MAX
        );
        let err = parse_network(&text).unwrap_err();
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn rejects_non_finite_weights_and_biases() {
        for (w, b) in [
            ("NaN 1", "0"),
            ("1 inf", "0"),
            ("1 1", "-inf"),
            ("1 1", "NaN"),
        ] {
            let text = format!("ann-v1\nlayers 1\nlayer 2 1 identity\nw {w}\nb {b}\n");
            let err = parse_network(&text).unwrap_err();
            assert!(err.to_string().contains("finite"), "{w} / {b}: {err}");
        }
    }

    #[test]
    fn extreme_magnitudes_survive_the_text_format() {
        let mut rng = simrng::SimRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        layer.w = Matrix::from_vec(2, 2, vec![1.0e-30, -1.0e30, 0.0, -0.0]);
        layer.b = vec![f32::MIN_POSITIVE, f32::MAX];
        let net = Network::from_layers(vec![layer]);
        let parsed = parse_network(&format_network(&net)).unwrap();
        assert_eq!(parsed, net);
    }
}
