//! Profiler error analysis.
//!
//! The paper validates its profiling models by comparing predictions against
//! ground truth on four objects × 45 configuration pairs, reporting a mean
//! quality (SSIM) error of 0.0065 (σ = 0.0088) and a mean size error of
//! 3.34 MB (σ = 2.73). This module reproduces that analysis for our
//! simulator: it measures a held-out grid of configurations and summarises
//! the absolute prediction errors.

use crate::measurement::{measure_object, MeasurementContext, MeasurementSettings};
use crate::profiler::ObjectProfile;
use nerflex_bake::BakeConfig;
use nerflex_math::stats::Summary;
use nerflex_scene::object::ObjectModel;
use serde::{Deserialize, Serialize};

/// Summary of a profiler's prediction errors over a configuration grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorAnalysis {
    /// Object name the analysis refers to.
    pub name: String,
    /// Number of configuration pairs evaluated.
    pub configurations: usize,
    /// Mean absolute SSIM prediction error.
    pub quality_error_mean: f64,
    /// Standard deviation of the SSIM prediction error.
    pub quality_error_std: f64,
    /// Mean absolute size prediction error (MB).
    pub size_error_mean: f64,
    /// Standard deviation of the size prediction error (MB).
    pub size_error_std: f64,
}

/// Evaluates a fitted profile on a held-out grid of configurations.
///
/// # Panics
///
/// Panics when `configs` is empty.
pub fn analyze_errors(
    model: &ObjectModel,
    profile: &ObjectProfile,
    configs: &[BakeConfig],
    settings: &MeasurementSettings,
) -> ErrorAnalysis {
    assert!(!configs.is_empty(), "need at least one held-out configuration");
    let measurements = measure_object(model, configs, settings, &MeasurementContext::default());
    let quality_errors: Vec<f64> = measurements
        .iter()
        .map(|m| (profile.predict_quality(m.config.grid, m.config.patch) - m.ssim).abs())
        .collect();
    let size_errors: Vec<f64> = measurements
        .iter()
        .map(|m| (profile.predict_size(m.config.grid, m.config.patch) - m.size_mb).abs())
        .collect();
    let q = Summary::of(&quality_errors);
    let s = Summary::of(&size_errors);
    ErrorAnalysis {
        name: profile.name.clone(),
        configurations: configs.len(),
        quality_error_mean: q.mean,
        quality_error_std: q.std_dev,
        size_error_mean: s.mean,
        size_error_std: s.std_dev,
    }
}

/// A uniform grid of held-out configurations (`g_steps × p_steps` pairs) over
/// the given range, used by the Fig. 3 / error-analysis benchmarks.
pub fn holdout_grid(
    g_min: u32,
    g_max: u32,
    p_min: u32,
    p_max: u32,
    g_steps: u32,
    p_steps: u32,
) -> Vec<BakeConfig> {
    assert!(g_steps >= 2 && p_steps >= 2, "need at least two steps per axis");
    let mut out = Vec::new();
    for gi in 0..g_steps {
        for pi in 0..p_steps {
            let g = g_min + (g_max - g_min) * gi / (g_steps - 1);
            let p = p_min + (p_max - p_min) * pi / (p_steps - 1);
            out.push(BakeConfig::new(g.max(1), p.max(1)));
        }
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{build_profile, ProfilerOptions};
    use nerflex_scene::object::CanonicalObject;

    #[test]
    fn holdout_grid_spans_the_range() {
        let grid = holdout_grid(16, 128, 3, 45, 3, 3);
        assert_eq!(grid.len(), 9);
        assert!(grid.contains(&BakeConfig::new(16, 3)));
        assert!(grid.contains(&BakeConfig::new(128, 45)));
        assert!(grid.contains(&BakeConfig::new(72, 24)));
    }

    #[test]
    fn profile_errors_are_small_on_heldout_configs() {
        // Mirror of the paper's error analysis at reduced scale: fit on the
        // variable-step samples, evaluate on configurations never sampled.
        let model = CanonicalObject::Hotdog.build();
        let options = ProfilerOptions::quick();
        let profile = build_profile(&model, 0, &options, &MeasurementContext::default());
        let holdout = vec![BakeConfig::new(14, 7), BakeConfig::new(28, 5), BakeConfig::new(34, 7)];
        let analysis = analyze_errors(&model, &profile, &holdout, &options.measurement);
        assert_eq!(analysis.configurations, 3);
        assert!(
            analysis.quality_error_mean < 0.08,
            "quality error too large: {}",
            analysis.quality_error_mean
        );
        assert!(
            analysis.size_error_mean < 4.0,
            "size error too large: {} MB",
            analysis.size_error_mean
        );
        assert!(analysis.quality_error_std >= 0.0 && analysis.size_error_std >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one held-out configuration")]
    fn empty_holdout_panics() {
        let model = CanonicalObject::Hotdog.build();
        let profile =
            build_profile(&model, 0, &ProfilerOptions::quick(), &MeasurementContext::default());
        let _ = analyze_errors(&model, &profile, &[], &MeasurementSettings::default());
    }

    #[test]
    #[should_panic(expected = "two steps")]
    fn degenerate_grid_panics() {
        let _ = holdout_grid(16, 128, 3, 45, 1, 3);
    }
}
