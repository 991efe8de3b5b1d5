//! End-to-end integration of the gaussian-splat representation family
//! (ISSUE 10): a splat-enabled configuration space deployed through
//! [`DeployService`] at a budget tight enough that the selector must reach
//! for the compact family, splat extraction answered from the persistent
//! bake store on a warm second run, and deployment fingerprints invariant
//! under the worker count.

use nerflex::bake::{BakeFamily, StoreOptions};
use nerflex::core::pipeline::PipelineOptions;
use nerflex::core::service::{DeployRequest, DeployService, ServiceOptions};
use nerflex::device::DeviceSpec;
use nerflex::profile::{build_profile, MeasurementContext, ObjectProfile, ProfilerOptions};
use nerflex::scene::dataset::Dataset;
use nerflex::scene::object::CanonicalObject;
use nerflex::scene::scene::Scene;
use nerflex::solve::{ConfigSpace, DpSelector};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A unique, self-cleaning temporary directory per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        Self(std::env::temp_dir().join(format!(
            "nerflex-splat-{tag}-{}-{}",
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

/// The splat-enabled configuration space: two mesh points plus a splat
/// count ladder at the profiler's splat sample grid, so every candidate is
/// an interpolation of the fitted curves.
fn splat_space() -> ConfigSpace {
    ConfigSpace::new(vec![20, 40], vec![5, 9]).with_splats(24, vec![128, 256, 512, 1024])
}

/// Pipeline options with the splat family switched on. The DP quantization
/// is tightened well below the splat payload sizes (a few KB) so the
/// capacity grid never decides a pick — the family economics do.
fn splat_options(worker_threads: usize) -> PipelineOptions {
    PipelineOptions::quick()
        .with_worker_threads(worker_threads)
        .with_profiler(ProfilerOptions::quick_with_splats())
        .with_space(splat_space())
        .with_selector(Arc::new(DpSelector::with_quantization(0.002)))
}

fn splat_scene() -> (Arc<Scene>, Arc<Dataset>) {
    let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 21);
    let dataset = Dataset::generate(&scene, 2, 1, 32, 32);
    (Arc::new(scene), Arc::new(dataset))
}

/// A budget strictly between "every object as its cheapest splat" and
/// "every object as its cheapest mesh": all-mesh is infeasible, so the
/// selector must hand at least one object to the splat family. Derived
/// once from fitted profiles (profiling is deterministic, so the service
/// sees the same predictions).
fn tight_budget_mb() -> f64 {
    static BUDGET: OnceLock<f64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let (scene, _) = splat_scene();
        let profiler = ProfilerOptions::quick_with_splats();
        let profiles: Vec<ObjectProfile> = scene
            .objects()
            .iter()
            .map(|obj| build_profile(&obj.model, obj.id, &profiler, &MeasurementContext::default()))
            .collect();
        let space = splat_space();
        let min_of = |profile: &ObjectProfile, mesh: bool| {
            space
                .configurations()
                .into_iter()
                .filter(|c| (c.family == BakeFamily::Mesh) == mesh)
                .filter_map(|c| profile.predict_config(&c).map(|(size, _)| size))
                .fold(f64::INFINITY, f64::min)
        };
        let mesh_min: f64 = profiles.iter().map(|p| min_of(p, true)).sum();
        let splat_min: f64 = profiles.iter().map(|p| min_of(p, false)).sum();
        assert!(
            splat_min.is_finite() && mesh_min.is_finite() && splat_min < mesh_min * 0.5,
            "splat clouds must undercut the cheapest meshes decisively \
             (splat {splat_min} MB vs mesh {mesh_min} MB)"
        );
        (mesh_min * 0.6).max(splat_min * 1.5)
    })
}

/// Runs one deployment through an inline service and returns (fingerprint,
/// splat-asset count, splat extractions this run).
fn deploy(options: PipelineOptions) -> (u64, usize, usize) {
    let (scene, dataset) = splat_scene();
    let service = DeployService::new(ServiceOptions::inline(options));
    let ticket = service
        .submit(
            DeployRequest::new(scene, dataset, DeviceSpec::pixel_4())
                .with_budget_mb(tight_budget_mb()),
        )
        .expect("valid request");
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), 1);
    let outcome = outcomes.into_iter().next().expect("one outcome");
    assert_eq!(outcome.ticket, ticket);
    let done = outcome.into_success().expect("the splat scene deploys");
    let splat_assets = done.deployment.assets.iter().filter(|asset| asset.splats.is_some()).count();
    let extractions = service.cache_stats().splat_extractions;
    service.shutdown();
    (done.deployment_fingerprint, splat_assets, extractions)
}

#[test]
fn a_tight_budget_deploys_the_splat_family_end_to_end() {
    let budget_mb = tight_budget_mb();
    let (scene, dataset) = splat_scene();
    let service = DeployService::new(ServiceOptions::inline(splat_options(2)));
    let ticket = service
        .submit(DeployRequest::new(scene, dataset, DeviceSpec::pixel_4()).with_budget_mb(budget_mb))
        .expect("valid request");
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), 1);
    let outcome = outcomes.into_iter().next().expect("one outcome");
    assert_eq!(outcome.ticket, ticket);
    let done = outcome.into_success().expect("the splat scene deploys");
    let deployment = &done.deployment;

    // The selection respects the tight budget and hands at least one object
    // to the splat family (all-mesh is infeasible by construction).
    assert!(deployment.selection.total_size_mb <= budget_mb + 1e-6);
    let splat_assignments: Vec<_> = deployment
        .selection
        .assignments
        .iter()
        .filter(|a| matches!(a.config.family, BakeFamily::Splat { .. }))
        .collect();
    assert!(
        !splat_assignments.is_empty(),
        "a budget below the cheapest all-mesh assignment must select splats: {:?}",
        deployment.selection.assignments
    );
    // Every splat assignment was really baked as a cloud, and the baked
    // bytes are exactly what the asset accounts for.
    for assignment in &splat_assignments {
        let asset = deployment
            .assets
            .iter()
            .find(|a| a.object_id == assignment.object_id)
            .expect("one asset per assignment");
        let cloud = asset.splats.as_ref().expect("splat assignments bake splat clouds");
        assert_eq!(BakeFamily::Splat { count: cloud.len() as u32 }, asset.config.family);
        assert_eq!(asset.size_bytes(), cloud.size_bytes());
        assert_eq!(asset.mlp_size_bytes(), 0, "splat assets ship no MLP");
    }
    // The deployed workload actually loads on the device.
    assert!(deployment.device.try_load(&deployment.workload()).is_ok());
    service.shutdown();
}

#[test]
fn a_warm_store_answers_the_splat_scene_with_zero_extractions() {
    let tmp = TempDir::new("warm");
    let cold = deploy(splat_options(2).with_store(StoreOptions::dir(tmp.0.clone())));
    assert!(cold.1 >= 1, "the tight budget picks at least one splat asset");
    assert!(cold.2 > 0, "a cold store extracts every sampled splat cloud");

    // Second process over the same store: every splat cloud — the profiler
    // samples and the deployed assets — decodes from disk; nothing is
    // re-extracted, and the deployment is byte-identical.
    let warm = deploy(splat_options(2).with_store(StoreOptions::dir(tmp.0.clone())));
    assert_eq!(warm.2, 0, "a warm store must answer every splat bake from disk");
    assert_eq!(warm.1, cold.1, "the warm run deploys the same family mix");
    assert_eq!(warm.0, cold.0, "warm and cold deployments are byte-identical");
}

#[test]
fn splat_deployments_are_fingerprint_identical_across_worker_counts() {
    let reference = deploy(splat_options(1));
    assert!(reference.1 >= 1, "the tight budget picks at least one splat asset");
    for worker_threads in [2, 4] {
        let run = deploy(splat_options(worker_threads));
        assert_eq!(
            run.0, reference.0,
            "worker count {worker_threads} changed the deployment bytes"
        );
        assert_eq!(run.1, reference.1);
    }
}
