//! Persistence of trained strategy models *with* their calibration.
//!
//! A bare [`ann`] network is not deployable on its own: predictions are
//! only meaningful against the intensity scale (`max_total_iops`) the
//! features were computed with during training. This module stores both
//! together, so a loaded model cannot be silently mis-calibrated:
//!
//! ```text
//! ssdkeeper-model-v1
//! max_total_iops <float>
//! <ann-v1 network text>
//! ```

use crate::allocator::ChannelAllocator;
use crate::learner::TrainedModel;
use ann::io::{format_network, parse_network, ModelIoError};
use ann::train::TrainHistory;
use std::path::Path;

const HEADER: &str = "ssdkeeper-model-v1";

/// Serializes a trained model (network + calibration) to text.
pub(crate) fn format_model(model: &TrainedModel) -> String {
    format!(
        "{HEADER}\nmax_total_iops {}\n{}",
        model.max_total_iops,
        format_network(&model.network)
    )
}

/// Parses the text form back into a model (history is not persisted).
pub(crate) fn parse_model(text: &str) -> Result<TrainedModel, ModelIoError> {
    let parse_err = |line: usize, message: &str| ModelIoError::Parse {
        line,
        message: message.to_string(),
    };
    let mut lines = text.splitn(3, '\n');
    let header = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
    if header.trim() != HEADER {
        return Err(parse_err(1, "missing ssdkeeper-model-v1 header"));
    }
    let calib = lines
        .next()
        .ok_or_else(|| parse_err(2, "missing calibration line"))?;
    let max_total_iops: f64 = calib
        .strip_prefix("max_total_iops ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| parse_err(2, "expected `max_total_iops <float>`"))?;
    if !(max_total_iops.is_finite() && max_total_iops > 0.0) {
        return Err(parse_err(2, "max_total_iops must be finite and positive"));
    }
    let rest = lines
        .next()
        .ok_or_else(|| parse_err(3, "missing network body"))?;
    let network = parse_network(rest)?;
    Ok(TrainedModel {
        network,
        max_total_iops,
        history: TrainHistory::default(),
        test_indices: Vec::new(),
    })
}

/// Writes a model file.
pub fn save_model(model: &TrainedModel, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
    std::fs::write(path, format_model(model)).map_err(ModelIoError::Io)
}

/// Reads a model file.
pub(crate) fn load_model(path: impl AsRef<Path>) -> Result<TrainedModel, ModelIoError> {
    let text = std::fs::read_to_string(path).map_err(ModelIoError::Io)?;
    parse_model(&text)
}

/// Loads a model file straight into a deployable allocator.
pub fn load_allocator(path: impl AsRef<Path>) -> Result<ChannelAllocator, ModelIoError> {
    Ok(load_model(path)?.allocator())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureVector;
    use ann::{Activation, Network};

    fn sample_model() -> TrainedModel {
        TrainedModel {
            network: Network::paper_topology(Activation::Logistic, 11),
            max_total_iops: 120_000.0,
            history: TrainHistory::default(),
            test_indices: Vec::new(),
        }
    }

    fn sample_features() -> FeatureVector {
        FeatureVector {
            intensity_level: 14,
            rw_char: [0, 1, 1, 0],
            shares: [0.5, 0.2, 0.2, 0.1],
        }
    }

    #[test]
    fn round_trip_preserves_network_and_calibration() {
        let model = sample_model();
        let parsed = parse_model(&format_model(&model)).unwrap();
        assert_eq!(parsed.network, model.network);
        assert_eq!(parsed.max_total_iops, model.max_total_iops);
        assert_eq!(
            model.allocator().predict(&sample_features()),
            parsed.allocator().predict(&sample_features())
        );
    }

    #[test]
    fn file_round_trip_and_allocator_loading() {
        let model = sample_model();
        let dir = std::env::temp_dir().join("ssdk_model_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        save_model(&model, &path).unwrap();
        let allocator = load_allocator(&path).unwrap();
        assert_eq!(allocator.max_total_iops(), 120_000.0);
        assert_eq!(
            allocator.predict(&sample_features()),
            model.allocator().predict(&sample_features())
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_missing_header() {
        assert!(parse_model("ann-v1\n...").is_err());
        assert!(parse_model("").is_err());
    }

    #[test]
    fn rejects_bad_calibration() {
        let model = sample_model();
        let text = format_model(&model).replace("max_total_iops 120000", "max_total_iops nope");
        assert!(parse_model(&text).is_err());
        for bad in ["-5", "NaN", "inf"] {
            let text = format_model(&model)
                .replace("max_total_iops 120000", &format!("max_total_iops {bad}"));
            assert!(parse_model(&text).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rejects_corrupt_network_body() {
        let model = sample_model();
        let mut text = format_model(&model);
        text.truncate(text.len() / 2);
        assert!(parse_model(&text).is_err());
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_model("/definitely/not/here.txt").unwrap_err(),
            ModelIoError::Io(_)
        ));
    }
}
