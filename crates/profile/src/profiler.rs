//! Per-object profiles: sample, measure, fit.

use crate::fit::{fit_quality_model, fit_size_model, fit_splat_models};
use crate::measurement::{measure_object, Measurement, MeasurementContext, MeasurementSettings};
use crate::model::{ProfileModels, QualityModel, SizeModel, SizeQualityModel, SplatModels};
use crate::sampling::{
    sample_configurations, splat_sample_configurations, SampleRange, SplatSampleRange,
};
use nerflex_bake::BakeConfig;
use nerflex_scene::object::ObjectModel;
use serde::{Deserialize, Serialize};

/// Options controlling profile construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProfilerOptions {
    /// Configuration-space bounds sampled by the variable-step search.
    pub range: SampleRange,
    /// Splat-family sample axis. Disabled by default (`steps == 0`): mesh-only
    /// pipelines pay nothing and get profiles without splat models.
    pub splats: SplatSampleRange,
    /// Probe-view settings for the sample measurements.
    pub measurement: MeasurementSettings,
}

impl ProfilerOptions {
    /// A reduced-cost preset used by tests and quick examples: a smaller
    /// configuration range and low-resolution probes.
    pub fn quick() -> Self {
        Self {
            range: SampleRange { g_min: 10, g_max: 40, p_min: 3, p_max: 9 },
            splats: SplatSampleRange::default(),
            measurement: MeasurementSettings {
                views: 2,
                resolution: 56,
                ..MeasurementSettings::default()
            },
        }
    }

    /// [`ProfilerOptions::quick`] with the splat-family sample axis enabled
    /// at its quick preset — profiles then carry fitted splat models too.
    pub fn quick_with_splats() -> Self {
        Self { splats: SplatSampleRange::quick(), ..Self::quick() }
    }

    /// Returns the options with the given splat sample axis.
    pub fn with_splats(mut self, splats: SplatSampleRange) -> Self {
        self.splats = splats;
        self
    }
}

/// A fitted per-object profile: the white-box size/quality models plus the
/// sample measurements they were fitted from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectProfile {
    /// Instance id of the object within its scene.
    pub object_id: usize,
    /// Object name.
    pub name: String,
    /// Fitted size model (MB).
    pub size_model: SizeModel,
    /// Fitted quality model (SSIM).
    pub quality_model: QualityModel,
    /// Fitted splat-family models, present only when the profiler sampled
    /// the splat axis ([`ProfilerOptions::splats`]). Selectors skip splat
    /// candidates for objects without them.
    pub splat_models: Option<SplatModels>,
    /// The sample measurements used for fitting.
    pub samples: Vec<Measurement>,
}

impl ObjectProfile {
    /// Predicted baked-data size (MB) for a configuration.
    pub fn predict_size(&self, g: u32, p: u32) -> f64 {
        self.size_model.predict(g, p)
    }

    /// Predicted rendering quality (SSIM) for a configuration.
    pub fn predict_quality(&self, g: u32, p: u32) -> f64 {
        self.quality_model.predict(g, p)
    }

    /// Family-aware prediction: `(size MB, SSIM)` for any configuration.
    /// Mesh configurations always predict; splat configurations predict only
    /// when the profile carries splat models (`None` otherwise, so selectors
    /// can skip candidates the profiler never sampled).
    pub fn predict_config(&self, config: &BakeConfig) -> Option<(f64, f64)> {
        match config.splat_count() {
            None => Some((
                self.predict_size(config.grid, config.patch),
                self.predict_quality(config.grid, config.patch),
            )),
            Some(count) => {
                self.splat_models.map(|m| (m.predict_size(count), m.predict_quality(count)))
            }
        }
    }

    /// The paired models (for callers that only need the closed forms).
    pub fn models(&self) -> ProfileModels {
        ProfileModels { size: self.size_model, quality: self.quality_model }
    }

    /// The smallest predicted size over a candidate configuration list —
    /// the `min_{θ∈C} f_s(θ)` term of the feasibility condition (Eq. 3).
    pub fn min_size_over(&self, configs: &[(u32, u32)]) -> f64 {
        configs.iter().map(|&(g, p)| self.predict_size(g, p)).fold(f64::INFINITY, f64::min)
    }
}

impl SizeQualityModel for ObjectProfile {
    fn predict_size(&self, g: u32, p: u32) -> f64 {
        ObjectProfile::predict_size(self, g, p)
    }
    fn predict_quality(&self, g: u32, p: u32) -> f64 {
        ObjectProfile::predict_quality(self, g, p)
    }
}

/// Builds the profile of one object: pick sample configurations with the
/// variable-step strategy, measure them through [`measure_object`] in
/// `context`, and fit both models. The pipeline engine passes a context holding its shared
/// bake and ground-truth caches, so every configuration the profiler probes
/// is already baked if the selector later picks it, and duplicate objects
/// and repeated runs render each object's probe views once. Neither cache
/// changes the resulting profile.
pub fn build_profile(
    model: &ObjectModel,
    object_id: usize,
    options: &ProfilerOptions,
    context: &MeasurementContext<'_>,
) -> ObjectProfile {
    let mut configs = sample_configurations(&options.range);
    configs.extend(splat_sample_configurations(&options.splats));
    let samples = measure_object(model, &configs, &options.measurement, context);
    build_profile_from_measurements(model, object_id, samples)
}

/// Builds a profile directly from existing measurements (used when the
/// caller already has measurements, e.g. the error-analysis benchmark).
///
/// The mesh `(g, p)` models are fitted from the mesh-family samples only;
/// splat-family samples (when present) fit their own count-axis models, so
/// mixing families never perturbs either fit.
pub fn build_profile_from_measurements(
    model: &ObjectModel,
    object_id: usize,
    samples: Vec<Measurement>,
) -> ObjectProfile {
    let mesh_samples: Vec<Measurement> =
        samples.iter().filter(|m| m.config.splat_count().is_none()).copied().collect();
    let size_model = fit_size_model(&mesh_samples);
    let quality_model = fit_quality_model(&mesh_samples);
    let splat_models = fit_splat_models(&samples);
    ObjectProfile {
        object_id,
        name: model.name.clone(),
        size_model,
        quality_model,
        splat_models,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::object::CanonicalObject;

    #[test]
    fn quick_profile_is_sane_and_monotone() {
        let model = CanonicalObject::Hotdog.build();
        let profile =
            build_profile(&model, 0, &ProfilerOptions::quick(), &MeasurementContext::default());
        assert_eq!(profile.name, "hotdog");
        assert!(!profile.samples.is_empty());
        // Predictions are monotone in both knobs over the profiled range.
        assert!(profile.predict_size(40, 9) > profile.predict_size(10, 3));
        assert!(profile.predict_quality(40, 9) >= profile.predict_quality(10, 3));
        // Quality stays a valid SSIM.
        assert!(profile.predict_quality(40, 9) <= 1.0);
        assert!(profile.predict_quality(10, 3) >= 0.0);
    }

    #[test]
    fn profile_predicts_its_own_samples_reasonably() {
        let model = CanonicalObject::Chair.build();
        let profile =
            build_profile(&model, 2, &ProfilerOptions::quick(), &MeasurementContext::default());
        for sample in &profile.samples {
            let ps = profile.predict_size(sample.config.grid, sample.config.patch);
            let pq = profile.predict_quality(sample.config.grid, sample.config.patch);
            assert!(
                (ps - sample.size_mb).abs() < sample.size_mb.max(1.0) * 0.6,
                "size prediction off: {ps} vs {}",
                sample.size_mb
            );
            assert!(
                (pq - sample.ssim).abs() < 0.15,
                "quality prediction off: {pq} vs {}",
                sample.ssim
            );
        }
    }

    #[test]
    fn splat_axis_fits_splat_models_without_perturbing_mesh_models() {
        let model = CanonicalObject::Hotdog.build();
        let plain =
            build_profile(&model, 0, &ProfilerOptions::quick(), &MeasurementContext::default());
        assert!(plain.splat_models.is_none(), "splat axis is off by default");
        let with_splats = build_profile(
            &model,
            0,
            &ProfilerOptions::quick_with_splats(),
            &MeasurementContext::default(),
        );
        let splat_models = with_splats.splat_models.expect("splat axis was enabled");
        // The mesh samples are identical in both runs and the mesh fit only
        // sees mesh samples, so the (g, p) models must match exactly.
        assert_eq!(plain.size_model, with_splats.size_model);
        assert_eq!(plain.quality_model, with_splats.quality_model);
        // The splat models behave physically: linear size, saturating quality.
        assert!(splat_models.predict_size(8192) > splat_models.predict_size(128));
        assert!(splat_models.predict_quality(8192) >= splat_models.predict_quality(128));
        assert!(splat_models.predict_quality(8192) <= 1.0);
    }

    #[test]
    fn predict_config_dispatches_on_the_family() {
        let model = CanonicalObject::Chair.build();
        let profile = build_profile(
            &model,
            1,
            &ProfilerOptions::quick_with_splats(),
            &MeasurementContext::default(),
        );
        let (mesh_size, mesh_quality) =
            profile.predict_config(&BakeConfig::new(20, 5)).expect("mesh always predicts");
        assert!((mesh_size - profile.predict_size(20, 5)).abs() < 1e-12);
        assert!((mesh_quality - profile.predict_quality(20, 5)).abs() < 1e-12);
        let (splat_size, splat_quality) =
            profile.predict_config(&BakeConfig::splat(24, 2048)).expect("splat models fitted");
        assert!(splat_size > 0.0);
        assert!(splat_quality > 0.0 && splat_quality <= 1.0);
        // A profile without splat models declines splat configurations.
        let plain =
            build_profile(&model, 1, &ProfilerOptions::quick(), &MeasurementContext::default());
        assert!(plain.predict_config(&BakeConfig::splat(24, 2048)).is_none());
        assert!(plain.predict_config(&BakeConfig::new(20, 5)).is_some());
    }

    #[test]
    fn min_size_over_picks_the_cheapest_configuration() {
        let model = CanonicalObject::Hotdog.build();
        let profile =
            build_profile(&model, 0, &ProfilerOptions::quick(), &MeasurementContext::default());
        let configs = vec![(10u32, 3u32), (20, 5), (40, 9)];
        let min_size = profile.min_size_over(&configs);
        assert!((min_size - profile.predict_size(10, 3)).abs() < 1e-9);
    }
}
