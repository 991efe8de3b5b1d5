//! Cross-crate tests of the execution engine: bake-cache reuse between the
//! profiler and the final baking stage, and fleet deployment amortisation.

use nerflex::bake::{model_fingerprint, BakeCache, BakeConfig};
use nerflex::core::pipeline::{NerflexPipeline, PipelineOptions};
use nerflex::core::service::{DeployRequest, DeployService, ServiceOptions};
use nerflex::device::DeviceSpec;
use nerflex::scene::dataset::Dataset;
use nerflex::scene::object::CanonicalObject;
use nerflex::scene::scene::Scene;

fn small_setup() -> (Scene, Dataset) {
    let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Lego], 3);
    let dataset = Dataset::generate(&scene, 3, 1, 56, 56);
    (scene, dataset)
}

#[test]
fn quick_pipeline_reports_cache_hits_for_profiled_selections() {
    // Acceptance criterion: with quick options and a budget generous enough
    // that the selector picks a configuration the profiler probed, the final
    // baking stage must report at least one cache hit.
    let (scene, dataset) = small_setup();
    let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));
    let scene = std::sync::Arc::new(scene);
    let dataset = std::sync::Arc::new(dataset);
    service
        .submit(
            DeployRequest::new(
                std::sync::Arc::clone(&scene),
                std::sync::Arc::clone(&dataset),
                DeviceSpec::iphone_13(),
            )
            .with_budget_mb(500.0),
        )
        .expect("valid request");
    let deployment =
        service.next_outcome().expect("one outcome").into_success().expect("success").deployment;

    let profiled: Vec<BakeConfig> =
        deployment.profiles.iter().flat_map(|p| p.samples.iter().map(|s| s.config)).collect();
    let picked_profiled =
        deployment.selection.assignments.iter().any(|a| profiled.contains(&a.config));
    assert!(picked_profiled, "the generous budget must select a probed configuration");
    assert!(
        deployment.timings.cache_hits >= 1,
        "selected profiled configuration must not be re-baked: {:?}",
        deployment.timings
    );
}

#[test]
fn fleet_deployment_runs_shared_stages_once_and_reuses_bakes() {
    // Acceptance criterion: try_deploy_fleet over two devices runs segmentation
    // and profiling exactly once; the devices share one bake cache.
    let (scene, dataset) = small_setup();
    let devices = [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()];
    let fleet = NerflexPipeline::new(PipelineOptions::quick())
        .try_deploy_fleet(&scene, &dataset, &devices)
        .expect("fleet deploy");

    assert_eq!(fleet.stage_runs.segmentation, 1, "segmentation must run once per fleet");
    assert_eq!(fleet.stage_runs.profiling, 1, "profiling must run once per fleet");
    assert_eq!(fleet.stage_runs.selection, devices.len());
    assert_eq!(fleet.deployments.len(), devices.len());

    // Every deployment respects its own device's budget.
    for (device, deployment) in devices.iter().zip(&fleet.deployments) {
        assert_eq!(deployment.device.name, device.name);
        assert!(deployment.selection.total_size_mb <= deployment.budget_mb + 1e-6);
        assert_eq!(deployment.assets.len(), scene.len());
    }

    // Identical profiles are shared, not recomputed: both deployments see
    // the same fitted sample sets.
    let a = &fleet.deployments[0].profiles;
    let b = &fleet.deployments[1].profiles;
    for (pa, pb) in a.iter().zip(b.iter()) {
        assert_eq!(pa.samples.len(), pb.samples.len());
        for (sa, sb) in pa.samples.iter().zip(&pb.samples) {
            assert_eq!(sa, sb, "fleet profiles must come from one profiling pass");
        }
    }

    // The devices share one cache: at least one bake request was served
    // from it, and the accounting covers profiling probes plus every
    // device's final bakes.
    let final_bakes = scene.len() * devices.len();
    assert!(fleet.cache.hits >= 1, "fleet bakes must share the cache: {:?}", fleet.cache);
    assert!(
        fleet.cache.hits + fleet.cache.misses >= final_bakes,
        "cache accounting covers profiling probes and all final bakes: {:?}",
        fleet.cache
    );
}

#[test]
fn deployment_determinism_holds_across_engine_parallelism() {
    // The parallel engine must reproduce the sequential path's decisions and
    // outputs exactly (selection, asset sizes, workload).
    let (scene, dataset) = small_setup();
    let device = DeviceSpec::pixel_4();
    let run = |workers: usize| {
        NerflexPipeline::new(PipelineOptions::quick().with_worker_threads(workers))
            .try_run(&scene, &dataset, &device)
            .expect("deploy")
    };
    let sequential = run(1);
    let parallel = run(0); // one worker per core

    for (a, b) in sequential.selection.assignments.iter().zip(&parallel.selection.assignments) {
        assert_eq!(a.config, b.config);
    }
    assert_eq!(sequential.workload().total_quads, parallel.workload().total_quads);
    let sizes = |d: &nerflex::core::pipeline::NerflexDeployment| {
        d.assets.iter().map(|a| a.size_bytes()).collect::<Vec<_>>()
    };
    assert_eq!(sizes(&sequential), sizes(&parallel));
}

#[test]
fn fingerprints_are_content_addressed_at_the_facade() {
    // Same content, independent builds → same key; different objects →
    // different keys (the property the cross-stage cache relies on).
    let lego_a = CanonicalObject::Lego.build();
    let lego_b = CanonicalObject::Lego.build();
    let ship = CanonicalObject::Ship.build();
    assert_eq!(model_fingerprint(&lego_a), model_fingerprint(&lego_b));
    assert_ne!(model_fingerprint(&lego_a), model_fingerprint(&ship));

    // And the cache exposes exact hit/miss accounting over it.
    let cache = BakeCache::new();
    let config = BakeConfig::new(12, 3);
    let _ = cache.get_or_bake(&lego_a, config);
    let _ = cache.get_or_bake(&lego_b, config);
    let _ = cache.get_or_bake(&ship, config);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
}
