//! Criterion benchmarks of the lightweight profiler (paper §III-B): the
//! variable-step sample selection, the Levenberg–Marquardt curve fits, and a
//! single sample-configuration measurement (bake + render + SSIM), which is
//! the unit cost that the variable-step strategy minimises.

use criterion::{criterion_group, criterion_main, Criterion};
use nerflex_bake::BakeConfig;
use nerflex_profile::fit::{fit_quality_model, fit_size_model};
use nerflex_profile::measurement::{
    measure_object, Measurement, MeasurementContext, MeasurementSettings,
};
use nerflex_profile::model::{QualityModel, SizeModel};
use nerflex_profile::sampling::{sample_configurations, SampleRange};
use nerflex_profile::GroundTruthCache;
use nerflex_scene::object::CanonicalObject;

fn synthetic_measurements() -> Vec<Measurement> {
    let size = SizeModel { k: 2.5e-8, a: 1.0, b: 2.0, m: 0.8 };
    let quality = QualityModel { q_inf: 0.93, k: 6.0e4, a: 2.0, b: 1.0 };
    sample_configurations(&SampleRange::default())
        .into_iter()
        .map(|config| Measurement {
            config,
            size_mb: size.predict(config.grid, config.patch),
            ssim: quality.predict(config.grid, config.patch),
            quad_count: 0,
        })
        .collect()
}

fn bench_sampling_and_fit(c: &mut Criterion) {
    c.bench_function("variable_step_sample_selection", |b| {
        let range = SampleRange::default();
        b.iter(|| sample_configurations(&range))
    });

    let measurements = synthetic_measurements();
    let mut group = c.benchmark_group("curve_fitting");
    group.sample_size(20);
    group.bench_function("fit_size_model", |b| b.iter(|| fit_size_model(&measurements)));
    group.bench_function("fit_quality_model", |b| b.iter(|| fit_quality_model(&measurements)));
    group.finish();
}

fn bench_sample_measurement(c: &mut Criterion) {
    // One sample-point measurement at a small configuration: this is what the
    // profiler pays per sample instead of a multi-hour NeRF training run. The
    // ground truth is rendered once up front and served from the cache, so
    // each iteration times only the bake, the probe renders and the scoring.
    let model = CanonicalObject::Hotdog.build();
    let settings =
        MeasurementSettings { views: 2, resolution: 48, ..MeasurementSettings::default() };
    let ground_truth = GroundTruthCache::new();
    let _ = ground_truth.get_or_build(&model, &settings, 1);
    let context = MeasurementContext { ground_truth: Some(&ground_truth), ..Default::default() };
    let measure = |config| measure_object(&model, &[config], &settings, &context);
    let mut group = c.benchmark_group("sample_measurement");
    group.sample_size(10);
    group.bench_function("bake_and_score_g16_p5", |b| b.iter(|| measure(BakeConfig::new(16, 5))));
    group.bench_function("bake_and_score_g32_p9", |b| b.iter(|| measure(BakeConfig::new(32, 9))));
    group.finish();
}

criterion_group!(benches, bench_sampling_and_fit, bench_sample_measurement);
criterion_main!(benches);
