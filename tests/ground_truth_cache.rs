//! Cross-crate tests of the fast ground-truth path: the persistent
//! [`nerflex::profile::GroundTruthCache`] shared by the pipeline engine
//! (zero re-renders on a warm store), and end-to-end bit-identity of the
//! tiled/packet ray marcher through the profiling stage.

use nerflex::bake::BakeConfig;
use nerflex::core::pipeline::{NerflexPipeline, PipelineOptions};
use nerflex::device::DeviceSpec;
use nerflex::profile::measurement::MeasurementSettings;
use nerflex::profile::{measure_object, GroundTruthCache, MeasurementContext};
use nerflex::scene::dataset::Dataset;
use nerflex::scene::object::CanonicalObject;
use nerflex::scene::scene::Scene;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique, self-cleaning temporary cache directory per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        Self(std::env::temp_dir().join(format!(
            "nerflex-gtest-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_setup() -> (Scene, Dataset) {
    let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Lego], 3);
    let dataset = Dataset::generate(&scene, 3, 1, 56, 56);
    (scene, dataset)
}

#[test]
fn second_run_over_a_persisted_store_renders_no_ground_truth() {
    // The cross-process warm path the CI bench-smoke job asserts: run one
    // renders and flushes every ground truth, run two (a fresh pipeline over
    // the same cache dir, simulating a second process) must report
    // ground_truth_builds == 0 and a ground-truth time of exactly zero —
    // with identical deployment output.
    let tmp = TempDir::new("warm");
    let (scene, dataset) = small_setup();
    let device = DeviceSpec::iphone_13();
    let options = PipelineOptions::quick().with_cache_dir(&tmp.0);

    let first =
        NerflexPipeline::new(options.clone()).try_run(&scene, &dataset, &device).expect("deploy");
    assert_eq!(first.timings.ground_truth_builds, scene.len());
    assert!(first.timings.ground_truth_ms() > 0.0);

    let second = NerflexPipeline::new(options).try_run(&scene, &dataset, &device).expect("deploy");
    assert_eq!(
        second.timings.ground_truth_builds, 0,
        "warm store must serve every ground truth: {:?}",
        second.timings
    );
    assert_eq!(second.timings.ground_truth_hits, scene.len());
    assert_eq!(second.timings.ground_truth_ms(), 0.0);

    // Cached ground truths are bit-identical, so the whole decision chain is.
    assert_eq!(first.selection.assignments.len(), second.selection.assignments.len());
    for (a, b) in first.selection.assignments.iter().zip(&second.selection.assignments) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.predicted_quality, b.predicted_quality);
    }
    for (a, b) in first.profiles.iter().zip(second.profiles.iter()) {
        assert_eq!(a.samples, b.samples, "measurements must not depend on the GT source");
    }
}

#[test]
fn cache_limits_thread_through_to_both_pipeline_stores() {
    // PipelineOptions::with_cache_limits rides the StoreOptions builder:
    // opening with a zero age budget prunes the bake *and* ground-truth
    // stores, so the second run rebuilds everything — bit-identically.
    use nerflex::bake::StoreLimits;

    let tmp = TempDir::new("limits");
    let (scene, dataset) = small_setup();
    let device = DeviceSpec::pixel_4();

    let first = NerflexPipeline::new(PipelineOptions::quick().with_cache_dir(&tmp.0))
        .try_run(&scene, &dataset, &device)
        .expect("deploy");
    assert_eq!(first.timings.ground_truth_builds, scene.len());

    let evicting = PipelineOptions::quick()
        .with_cache_dir(&tmp.0)
        .with_cache_limits(StoreLimits::default().with_max_age(std::time::Duration::ZERO));
    let second = NerflexPipeline::new(evicting).try_run(&scene, &dataset, &device).expect("deploy");
    assert_eq!(
        second.timings.ground_truth_builds,
        scene.len(),
        "zero-age limits must evict the persisted ground truths: {:?}",
        second.timings
    );
    assert_eq!(second.timings.cache_disk_hits, 0, "bake store swept too: {:?}", second.timings);
    for (a, b) in first.profiles.iter().zip(second.profiles.iter()) {
        assert_eq!(a.samples, b.samples, "re-rendered ground truths are bit-identical");
    }
}

#[test]
fn ground_truth_workers_never_change_measurements() {
    // End-to-end determinism across the tiled/packet renderer: ground
    // truths rendered by measurements on a sequential context and on
    // multi-worker contexts (which tile the renders) are identical to the
    // last bit, and so are the measurements scored against them.
    let model = CanonicalObject::Chair.build();
    let settings =
        MeasurementSettings { views: 2, resolution: 40, ..MeasurementSettings::default() };
    let configs = [BakeConfig::new(10, 3), BakeConfig::new(16, 5)];
    let measure_on = |workers| {
        let cache = GroundTruthCache::new();
        let context =
            MeasurementContext { ground_truth: Some(&cache), workers, ..Default::default() };
        let measurements = measure_object(&model, &configs, &settings, &context);
        assert_eq!(cache.stats().builds, 1, "the measurement rendered the ground truth");
        (cache.get_or_build(&model, &settings, 1).images.clone(), measurements)
    };
    let (sequential, measured) = measure_on(1);
    for workers in [4, 0] {
        let (images, measurements) = measure_on(workers);
        assert_eq!(sequential, images, "tiling must be invisible in the output: workers={workers}");
        assert_eq!(measured, measurements, "workers={workers}");
    }
}

#[test]
fn fleet_deployment_shares_ground_truths_across_devices() {
    // try_deploy_fleet profiles once for the whole fleet: the ground-truth cache
    // must render each distinct object exactly once regardless of fleet size.
    let (scene, dataset) = small_setup();
    let devices = [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()];
    let fleet = NerflexPipeline::new(PipelineOptions::quick())
        .try_deploy_fleet(&scene, &dataset, &devices)
        .expect("fleet deploy");
    for deployment in &fleet.deployments {
        assert_eq!(deployment.timings.ground_truth_builds, scene.len());
        assert_eq!(deployment.timings.ground_truth_hits, 0);
    }
}
