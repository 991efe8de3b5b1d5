//! The four workloads, their generated inputs, the sequential reference
//! they are checked against, and the traced run of each.
//!
//! Every input comes from the seed: placement jitter of the scenes, the
//! order of the budget cycle, the burst order and priorities, and the
//! elevation of the held-out views. The program receives only those
//! generated inputs.

use crate::replay::{self, ReplayStores, StoreTotals};
use crate::report::{calibration_ms, median, metric, peak_rss_mb, quantile, Descriptor, Metric};
use crate::trace;
use crate::{Args, Outcome, WorkDir};
use nerflex_bake::disk::deployment_fingerprint;
use nerflex_bake::{model_fingerprint, BakedAsset, CacheStats, Placement};
use nerflex_core::experiments::EvaluationScene;
use nerflex_core::pipeline::{PipelineOptions, StageTimings};
use nerflex_core::service::{
    scene_content_key, CompletedDeploy, DeployOutcome, DeployRequest, DeployService,
    ServiceOptions, ServiceStats,
};
use nerflex_device::DeviceSpec;
use nerflex_image::metrics::quality_metrics;
use nerflex_image::Image;
use nerflex_math::{LaneWidth, WorkerPool};
use nerflex_profile::ProfilerOptions;
use nerflex_render::{render_assets, RenderOptions, RenderStats};
use nerflex_scene::camera_path::{orbit_path, CameraPose};
use nerflex_scene::dataset::Dataset;
use nerflex_scene::object::ObjectModel;
use nerflex_scene::raymarch::render_view_lanes;
use nerflex_scene::scene::{PlacedObject, Scene};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay and untraced-base passes of a traced run; `trace.overhead_ratio`
/// is the median of the per-pass ratios, so one slow host window does not
/// decide it.
const OVERHEAD_PASSES: usize = 3;
/// Budgets (MB) around the fig9 splat scenario's 0.35 MB: the two lower
/// ones deploy some or all objects as splats, the two upper ones only
/// meshes. Each seed shuffles their order.
const BUDGETS_MB: [f64; 4] = [0.3, 0.35, 0.45, 0.6];
/// Playback deployments: one splat-heavy budget and two mesh-only ones.
const PLAYBACK_BUDGETS_MB: [f64; 3] = [0.3, 0.45, 0.9];
const PLAYBACK_POSES: usize = 24;
const FRAME_PX: usize = 256;
/// Fleet burst shape: scenes × budgets × duplicates requests at once.
const BURST_SCENES: usize = 2;
const BURST_DUPLICATES: usize = 2;
const BURST_EXECUTORS: usize = 2;

// ---------------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------------

/// SplitMix64: the benchmark's own seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One scene to deploy: the fig9 smoke real-world scene (five objects and
/// a backdrop, six training and two test views at 56 px).
#[derive(Clone)]
struct SceneInput {
    scene: Arc<Scene>,
    dataset: Arc<Dataset>,
    key: u64,
}

fn scene_input(placement_seed: u64) -> SceneInput {
    let built = EvaluationScene::RealWorld.build(placement_seed);
    let dataset = built.dataset(6, 2, 56);
    let key = scene_content_key(&built.scene, &dataset);
    SceneInput { scene: Arc::new(built.scene), dataset: Arc::new(dataset), key }
}

/// The fig9 `--smoke --splats` engine configuration: quick profiler with
/// the splat axis, quick space plus splat candidates, DP at 0.05 MB.
fn pipeline_options(workers: usize) -> PipelineOptions {
    let mut options = PipelineOptions::quick()
        .with_profiler(ProfilerOptions::quick_with_splats())
        .with_worker_threads(workers);
    options.space = options.space.clone().with_splats(24, vec![128, 256, 512, 1024]);
    options
}

fn shuffled(rng: &mut Rng, budgets: &[f64]) -> Vec<f64> {
    let mut out = budgets.to_vec();
    rng.shuffle(&mut out);
    out
}

fn request(input: &SceneInput, budget_mb: f64) -> DeployRequest {
    DeployRequest::new(
        Arc::clone(&input.scene),
        Arc::clone(&input.dataset),
        DeviceSpec::iphone_13(),
    )
    .with_budget_mb(budget_mb)
}

// ---------------------------------------------------------------------------
// Reference and output checks
// ---------------------------------------------------------------------------

/// Expected fingerprints by (scene index, budget bits).
type Expected = HashMap<(usize, u64), u64>;

/// Checks one outcome: it succeeded, its fingerprint equals the reference
/// and the deployment fits the requested budget.
fn check<'a>(
    outcome: &'a DeployOutcome,
    expected: &Expected,
    scene: usize,
    budget_mb: f64,
) -> Result<&'a CompletedDeploy, String> {
    let done = outcome
        .success()
        .ok_or_else(|| format!("ticket {} failed: {:?}", outcome.ticket.id(), outcome.error()))?;
    let want = expected
        .get(&(scene, budget_mb.to_bits()))
        .ok_or_else(|| format!("no reference for scene {scene} at {budget_mb} MB"))?;
    if done.deployment_fingerprint != *want {
        return Err(format!(
            "scene {scene} at {budget_mb} MB: fingerprint {:016x}, reference {want:016x}",
            done.deployment_fingerprint
        ));
    }
    let deployed_mb = done.deployment.workload().data_size_mb;
    if done.deployment.budget_mb.to_bits() != budget_mb.to_bits() || deployed_mb > budget_mb {
        return Err(format!(
            "scene {scene}: {deployed_mb} MB deployed against a {budget_mb} MB budget"
        ));
    }
    Ok(done)
}

/// Checks that every ticket in `submitted` settled exactly once.
fn check_settled(submitted: &[u64], outcomes: &[DeployOutcome]) -> Result<(), String> {
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for outcome in outcomes {
        *seen.entry(outcome.ticket.id()).or_insert(0) += 1;
    }
    for id in submitted {
        match seen.remove(id) {
            Some(1) => {}
            Some(n) => return Err(format!("ticket {id} settled {n} times")),
            None => return Err(format!("ticket {id} never settled")),
        }
    }
    match seen.keys().next() {
        Some(id) => Err(format!("outcome for ticket {id}, which was never submitted")),
        None => Ok(()),
    }
}

/// The 1-worker sequential reference: an inline service with one worker
/// deploys every (scene, budget) pair. With `store`, the service persists
/// into it, which fills a store as a side effect. Returns the expected
/// fingerprints and the deployments.
fn reference(
    scenes: &[SceneInput],
    budgets: &[f64],
    store: Option<&Path>,
) -> Result<(Expected, Vec<CompletedDeploy>), String> {
    let mut options = pipeline_options(1);
    if let Some(dir) = store {
        options = options.with_cache_dir(dir);
    }
    let service = DeployService::new(ServiceOptions::inline(options));
    let mut pairs = HashMap::new();
    for (index, input) in scenes.iter().enumerate() {
        for &budget in budgets {
            let ticket = service.submit(request(input, budget)).map_err(|e| e.to_string())?;
            pairs.insert(ticket.id(), (index, budget));
        }
    }
    let mut outcomes = service.drain();
    check_settled(&pairs.keys().copied().collect::<Vec<_>>(), &outcomes)?;
    outcomes.sort_by_key(|o| o.ticket.id());
    let mut expected = Expected::new();
    let mut deployments = Vec::new();
    for outcome in outcomes {
        let (index, budget) = pairs[&outcome.ticket.id()];
        let done = outcome.into_success().map_err(|e| format!("reference failed: {e}"))?;
        if done.deployment.workload().data_size_mb > budget {
            return Err(format!("reference for scene {index} exceeds its {budget} MB budget"));
        }
        expected.insert((index, budget.to_bits()), done.deployment_fingerprint);
        deployments.push(done);
    }
    Ok((expected, deployments))
}

/// One object alone, as the profiler's probe rig places it, with
/// ray-marched images from poses the profiler never probes (an orbit below
/// its probe views, at an elevation drawn from the seed).
struct HeldOut {
    placed: PlacedObject,
    poses: Vec<CameraPose>,
    images: Vec<Image>,
}

const HELD_OUT_VIEWS: usize = 6;
const HELD_OUT_PX: usize = 56;

fn held_out(model: &ObjectModel, elevation: f32) -> HeldOut {
    let scene = Scene::from_models(vec![model.clone()], 0);
    let bounds = scene.bounding_box();
    let radius = (bounds.diagonal() * 1.1).max(1.0);
    let poses = orbit_path(bounds.center(), radius, elevation, HELD_OUT_VIEWS);
    let images = poses
        .iter()
        .map(|pose| render_view_lanes(&scene, pose, HELD_OUT_PX, HELD_OUT_PX, 0, LaneWidth::X4).0)
        .collect();
    HeldOut { placed: scene.objects()[0].clone(), poses, images }
}

/// Mean SSIM of the distinct deployments. A deployment scores the mean over
/// its objects of the deployed asset, rendered alone, against the object's
/// held-out views. Object by object, the score depends on what was deployed
/// and not on where the seed placed the objects in the scene.
fn deployed_ssim(
    distinct: &BTreeMap<u64, (usize, Vec<BakedAsset>)>,
    scenes: &[SceneInput],
    seed: u64,
) -> f64 {
    let elevation = 0.15 + 0.15 * Rng(seed ^ 0x55_5151).unit() as f32;
    let mut views: HashMap<u64, HeldOut> = HashMap::new();
    let mut total = 0.0;
    for (scene, assets) in distinct.values() {
        let objects = scenes[*scene].scene.objects();
        let mut sum = 0.0;
        for asset in assets {
            let model = &objects
                .iter()
                .find(|o| o.id == asset.object_id)
                .expect("every asset belongs to a scene object")
                .model;
            let view =
                views.entry(model_fingerprint(model)).or_insert_with(|| held_out(model, elevation));
            let mut alone = asset.clone();
            alone.object_id = view.placed.id;
            alone.placement = Placement {
                translation: view.placed.translation,
                scale: view.placed.scale,
                rotation_y: view.placed.rotation_y,
            };
            let scored: f64 = view
                .poses
                .iter()
                .zip(&view.images)
                .map(|(pose, truth)| {
                    let (image, _) = render_assets(
                        std::slice::from_ref(&alone),
                        pose,
                        HELD_OUT_PX,
                        HELD_OUT_PX,
                        &RenderOptions::default(),
                    );
                    quality_metrics(truth, &image).ssim
                })
                .sum();
            sum += scored / view.poses.len() as f64;
        }
        total += sum / assets.len().max(1) as f64;
    }
    total / distinct.len().max(1) as f64
}

// ---------------------------------------------------------------------------
// Shared run plumbing
// ---------------------------------------------------------------------------

/// Runs `setup` and returns its result with the time it took in seconds.
fn timed_setup<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let started = Instant::now();
    let value = setup()?;
    Ok((value, started.elapsed().as_secs_f64()))
}

/// Accumulates one workload's request records.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    latencies_ms: Vec<f64>,
    distinct: BTreeMap<u64, (usize, Vec<BakedAsset>)>,
    calibration_ms: Vec<f64>,
}

impl Tally {
    fn record(&mut self, latency: Duration, result: Result<(usize, &CompletedDeploy), String>) {
        match result {
            Ok((scene, done)) => {
                self.succeed(latency);
                self.distinct
                    .entry(done.deployment_fingerprint)
                    .or_insert_with(|| (scene, done.deployment.assets.clone()));
            }
            Err(err) => self.fail(err),
        }
    }

    fn succeed(&mut self, latency: Duration) {
        self.attempted += 1;
        self.latencies_ms.push(latency.as_secs_f64() * 1000.0);
    }

    fn fail(&mut self, err: String) {
        self.attempted += 1;
        self.failed += 1;
        self.latencies_ms.push(f64::INFINITY);
        if self.errors.len() < 8 {
            self.errors.push(err);
        }
    }
}

/// The end-to-end metrics every workload reports.
fn end_to_end(
    latencies_ms: &[f64],
    completed: usize,
    wall: Duration,
    ssim: f64,
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        metric("latency_p50_ms", quantile(latencies_ms, 0.5), "ms"),
        metric("latency_p90_ms", quantile(latencies_ms, 0.9), "ms"),
        metric("throughput_per_s", completed as f64 / wall.as_secs_f64(), "1/s"),
        metric("deployed_ssim", ssim, "ssim"),
        metric("setup_s", setup_s, "s"),
    ]
}

fn finish(tally: Tally, metrics: Vec<Metric>, mut descriptor: Descriptor) -> Outcome {
    descriptor.nums("calibration_ms", &tally.calibration_ms).num("peak_rss_mb", peak_rss_mb());
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        descriptor,
    }
}

fn failed_setup(err: String) -> Outcome {
    Outcome {
        attempted: 1,
        failed: 1,
        errors: vec![format!("set-up: {err}")],
        metrics: Vec::new(),
        descriptor: Descriptor::default(),
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    let result = match args.workload.as_str() {
        "cold_deploy" => closed_loop_deploys(args, work, false),
        "warm_redeploy" => closed_loop_deploys(args, work, true),
        "fleet_burst" => fleet_burst(args),
        "device_playback" => device_playback(args),
        other => Err(format!("unknown workload {other}")),
    };
    result.unwrap_or_else(failed_setup)
}

// ---------------------------------------------------------------------------
// cold_deploy and warm_redeploy
// ---------------------------------------------------------------------------

/// What one inline deploy reports besides its outcome.
struct DeployRecord {
    latency: Duration,
    outcome: Result<DeployOutcome, String>,
    stats: ServiceStats,
    cache: CacheStats,
}

/// One request through a fresh inline service over `store`: the service
/// opens the stores, deploys, flushes and shuts down, as a process that
/// starts, serves one request and exits would.
fn deploy_once(options: PipelineOptions, input: &SceneInput, budget: f64) -> DeployRecord {
    let started = Instant::now();
    let service = DeployService::new(ServiceOptions::inline(options));
    let ticket = service.submit(request(input, budget));
    let outcomes = service.drain();
    let latency = started.elapsed();
    let stats = service.stats();
    let cache = service.cache_stats();
    let outcome = ticket.map_err(|e| e.to_string()).and_then(|ticket| {
        check_settled(&[ticket.id()], &outcomes)?;
        Ok(outcomes.into_iter().next().expect("one settled outcome"))
    });
    DeployRecord { latency, outcome, stats, cache }
}

struct ClosedLoopSetup {
    input: SceneInput,
    budgets: Vec<f64>,
    expected: Expected,
    /// The filled store (warm) or the parent of per-request stores (cold).
    store: PathBuf,
}

fn closed_loop_setup(
    args: &Args,
    work: &WorkDir,
    warm: bool,
) -> Result<(ClosedLoopSetup, f64), String> {
    timed_setup(|| {
        let mut rng = Rng(args.seed);
        let input = scene_input(rng.next());
        let budgets = shuffled(&mut rng, &BUDGETS_MB);
        let store = work.0.join("store");
        // Warm: the reference deploys into the store, which fills it.
        let (expected, _) =
            reference(std::slice::from_ref(&input), &budgets, warm.then_some(store.as_path()))?;
        Ok(ClosedLoopSetup { input, budgets, expected, store })
    })
}

fn closed_loop_deploys(args: &Args, work: &WorkDir, warm: bool) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    tally.calibration_ms.push(calibration_ms());
    let (setup, setup_s) = closed_loop_setup(args, work, warm)?;
    let store_for = |i: usize| {
        if warm {
            setup.store.clone()
        } else {
            setup.store.join(format!("cold-{i}"))
        }
    };
    let mut descriptor = Descriptor::default();
    descriptor.num("executors", 0.0).num("worker_threads", 0.0);
    if args.trace {
        let requests = if warm { 8 } else { 2 };
        let metrics = traced_closed_loop(&setup, requests, warm, &store_for, &mut tally);
        descriptor.num("replayed_requests", requests as f64);
        return Ok(finish(tally, metrics, descriptor));
    }

    tally.calibration_ms.push(calibration_ms());
    let deadline = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed() < deadline {
        let budget = setup.budgets[i % setup.budgets.len()];
        let dir = store_for(i);
        let record = deploy_once(pipeline_options(0).with_cache_dir(&dir), &setup.input, budget);
        let checked = record
            .outcome
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|o| check(o, &setup.expected, 0, budget).map(|done| (0, done)));
        tally.record(record.latency, checked);
        if !warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        i += 1;
    }
    let wall = started.elapsed();
    tally.calibration_ms.push(calibration_ms());
    let completed = (tally.attempted - tally.failed) as usize;
    let ssim = deployed_ssim(&tally.distinct, std::slice::from_ref(&setup.input), args.seed);
    let metrics = end_to_end(&tally.latencies_ms, completed, wall, ssim, setup_s);
    descriptor
        .num("latency_samples", tally.latencies_ms.len() as f64)
        .num("measured_s", wall.as_secs_f64());
    Ok(finish(tally, metrics, descriptor))
}

// ---------------------------------------------------------------------------
// fleet_burst
// ---------------------------------------------------------------------------

struct FleetSetup {
    scenes: Vec<SceneInput>,
    budgets: Vec<f64>,
    expected: Expected,
}

/// One burst's requests: (scene, budget, priority), in submission order.
fn burst_requests(rng: &mut Rng, budgets: &[f64]) -> Vec<(usize, f64, i32)> {
    let mut requests = Vec::new();
    for scene in 0..BURST_SCENES {
        for &budget in budgets {
            for _ in 0..BURST_DUPLICATES {
                requests.push((scene, budget, rng.below(3) as i32));
            }
        }
    }
    rng.shuffle(&mut requests);
    requests
}

/// One burst request: its latency, its own stage time (its shared stages
/// only if it ran them itself) and its checked result.
struct BurstRequest {
    latency: Duration,
    own: Duration,
    result: Result<(usize, CompletedDeploy), String>,
}

impl BurstRequest {
    fn checked(&self) -> Result<(usize, &CompletedDeploy), String> {
        self.result.as_ref().map(|(scene, done)| (*scene, done)).map_err(Clone::clone)
    }
}

struct BurstRecord {
    makespan: Duration,
    requests: Vec<BurstRequest>,
    settled: Result<(), String>,
    stats: ServiceStats,
    cache: CacheStats,
}

/// Submits one burst at once to a fresh service and collects every
/// outcome as it lands.
fn run_burst(
    setup: &FleetSetup,
    burst: &[(usize, f64, i32)],
    executors: usize,
    workers: usize,
) -> BurstRecord {
    let service = DeployService::new(
        ServiceOptions::inline(pipeline_options(workers)).with_executors(executors),
    );
    let started = Instant::now();
    let mut submitted = HashMap::new();
    let mut ids = Vec::new();
    let mut requests = Vec::new();
    for &(scene, budget, priority) in burst {
        let at = Instant::now();
        match service.submit(request(&setup.scenes[scene], budget).with_priority(priority)) {
            Ok(ticket) => {
                ids.push(ticket.id());
                submitted.insert(ticket.id(), (at, scene, budget));
            }
            Err(err) => requests.push(BurstRequest {
                latency: Duration::ZERO,
                own: Duration::ZERO,
                result: Err(err.to_string()),
            }),
        }
    }
    let mut outcomes = Vec::new();
    let mut last = started;
    while outcomes.len() < submitted.len() {
        let Some(outcome) = service.next_outcome() else { break };
        last = Instant::now();
        outcomes.push((last, outcome));
    }
    let makespan = last - started;
    let rest = service.drain();
    let stats = service.stats();
    let cache = service.cache_stats();
    let all: Vec<DeployOutcome> =
        outcomes.iter().map(|(_, o)| o.clone()).chain(rest.iter().cloned()).collect();
    let settled = check_settled(&ids, &all);
    for (at, outcome) in outcomes {
        let (submitted_at, scene, budget) = submitted[&outcome.ticket.id()];
        let checked = check(&outcome, &setup.expected, scene, budget);
        let own = checked.as_ref().map_or(Duration::ZERO, |done| {
            let t = done.deployment.timings;
            let shared = if done.coalesced { Duration::ZERO } else { t.segmentation + t.profiling };
            shared + t.selection + t.baking
        });
        let result = checked.map(|done| (scene, done.clone()));
        requests.push(BurstRequest { latency: at - submitted_at, own, result });
    }
    BurstRecord { makespan, requests, settled, stats, cache }
}

fn fleet_burst(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    tally.calibration_ms.push(calibration_ms());
    let (setup, setup_s) = timed_setup(|| {
        let mut rng = Rng(args.seed);
        let scenes: Vec<SceneInput> = (0..BURST_SCENES).map(|_| scene_input(rng.next())).collect();
        let budgets = shuffled(&mut rng, &BUDGETS_MB);
        let (expected, _) = reference(&scenes, &budgets, None)?;
        Ok(FleetSetup { scenes, budgets, expected })
    })?;
    let mut rng = Rng(args.seed ^ 0xb0b5);
    let mut descriptor = Descriptor::default();
    descriptor
        .num("executors", BURST_EXECUTORS as f64)
        .num("worker_threads", 0.0)
        .num("burst_requests", (BURST_SCENES * BUDGETS_MB.len() * BURST_DUPLICATES) as f64);
    if args.trace {
        let burst = burst_requests(&mut rng, &setup.budgets);
        let metrics = traced_fleet(&setup, &burst, &mut tally);
        return Ok(finish(tally, metrics, descriptor));
    }

    tally.calibration_ms.push(calibration_ms());
    let deadline = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut busy = Duration::ZERO;
    let mut bursts = 0;
    while bursts == 0 || started.elapsed() < deadline {
        let burst = burst_requests(&mut rng, &setup.budgets);
        let record = run_burst(&setup, &burst, BURST_EXECUTORS, 0);
        busy += record.makespan;
        if let Err(err) = record.settled {
            tally.errors.push(err);
        }
        for request in &record.requests {
            tally.record(request.latency, request.checked());
        }
        bursts += 1;
    }
    tally.calibration_ms.push(calibration_ms());
    let completed = (tally.attempted - tally.failed) as usize;
    let ssim = deployed_ssim(&tally.distinct, &setup.scenes, args.seed);
    let metrics = end_to_end(&tally.latencies_ms, completed, busy, ssim, setup_s);
    descriptor
        .num("bursts", bursts as f64)
        .num("latency_samples", tally.latencies_ms.len() as f64)
        .num("measured_s", started.elapsed().as_secs_f64());
    Ok(finish(tally, metrics, descriptor))
}

// ---------------------------------------------------------------------------
// device_playback
// ---------------------------------------------------------------------------

struct PlaybackSetup {
    input: SceneInput,
    deployments: Vec<Vec<BakedAsset>>,
    poses: Vec<CameraPose>,
    /// Reference image hash per (deployment, pose) frame.
    frames: Vec<u64>,
}

/// FNV-1a over the image's exact colour bits.
fn image_hash(image: &Image) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in image.pixels() {
        for v in [c.r, c.g, c.b] {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn render_frame(setup: &PlaybackSetup, frame: usize) -> (Image, RenderStats) {
    let frames = setup.deployments.len() * PLAYBACK_POSES;
    let (deployment, pose) = (frame % frames / PLAYBACK_POSES, frame % PLAYBACK_POSES);
    render_assets(
        &setup.deployments[deployment],
        &setup.poses[pose],
        FRAME_PX,
        FRAME_PX,
        &RenderOptions::default(),
    )
}

fn device_playback(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    tally.calibration_ms.push(calibration_ms());
    let (setup, setup_s) = timed_setup(|| {
        let mut rng = Rng(args.seed);
        let input = scene_input(rng.next());
        let budgets = shuffled(&mut rng, &PLAYBACK_BUDGETS_MB);
        let (_, deployments) = reference(std::slice::from_ref(&input), &budgets, None)?;
        let bounds = input.scene.bounding_box();
        let poses = orbit_path(bounds.center(), bounds.diagonal() * 0.9, 0.45, PLAYBACK_POSES);
        let mut setup = PlaybackSetup {
            input,
            deployments: deployments.into_iter().map(|d| d.deployment.assets).collect(),
            poses,
            frames: Vec::new(),
        };
        let count = setup.deployments.len() * PLAYBACK_POSES;
        setup.frames = (0..count).map(|f| image_hash(&render_frame(&setup, f).0)).collect();
        Ok(setup)
    })?;
    let mut descriptor = Descriptor::default();
    descriptor.num("frame_px", FRAME_PX as f64).num("deployments", setup.deployments.len() as f64);
    if args.trace {
        let metrics = traced_playback(&setup, &mut tally);
        return Ok(finish(tally, metrics, descriptor));
    }

    tally.calibration_ms.push(calibration_ms());
    let deadline = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut frame = 0;
    while frame == 0 || started.elapsed() < deadline {
        let at = Instant::now();
        let (image, _) = render_frame(&setup, frame);
        let latency = at.elapsed();
        if image_hash(&image) == setup.frames[frame % setup.frames.len()] {
            tally.succeed(latency);
        } else {
            tally.fail(format!("frame {frame} differs from its reference render"));
        }
        frame += 1;
    }
    let wall = started.elapsed();
    tally.calibration_ms.push(calibration_ms());
    for (index, assets) in setup.deployments.iter().enumerate() {
        tally.distinct.insert(index as u64, (0, assets.clone()));
    }
    let completed = (tally.attempted - tally.failed) as usize;
    let ssim = deployed_ssim(&tally.distinct, std::slice::from_ref(&setup.input), args.seed);
    let metrics = end_to_end(&tally.latencies_ms, completed, wall, ssim, setup_s);
    descriptor
        .num("latency_samples", tally.latencies_ms.len() as f64)
        .num("measured_s", wall.as_secs_f64());
    Ok(finish(tally, metrics, descriptor))
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// The per-layer metrics, in the order `BENCHMARK.json` lists them. Every
/// one is reported on every workload; a layer a workload does not use
/// reads 0. Times and counts are per replayed request (per frame for the
/// `render.frame_*` ones).
const LAYERS: [(&str, &str); 46] = [
    ("seg.segment_ms", "ms"),
    ("scene.raymarch_ms", "ms"),
    ("scene.rays", "count"),
    ("profile.ground_truth_ms", "ms"),
    ("profile.gt_hit_ratio", "ratio"),
    ("profile.fit_ms", "ms"),
    ("bake.voxelise_ms", "ms"),
    ("bake.mesh_ms", "ms"),
    ("bake.atlas_ms", "ms"),
    ("bake.splat_extract_ms", "ms"),
    ("bake.voxel_grids", "count"),
    ("bake.voxel_useful_ratio", "ratio"),
    ("bake.encode_ms", "ms"),
    ("bake.store_write_ms", "ms"),
    ("bake.bytes_written", "bytes"),
    ("bake.store_read_ms", "ms"),
    ("bake.decode_ms", "ms"),
    ("bake.bytes_read", "bytes"),
    ("bake.cache_hit_ratio", "ratio"),
    ("render.probe_raster_ms", "ms"),
    ("render.probe_renders", "count"),
    ("render.frame_raster_ms", "ms"),
    ("render.frame_composite_ms", "ms"),
    ("render.triangles_per_frame", "count"),
    ("render.fragments_per_frame", "count"),
    ("render.splats_per_frame", "count"),
    ("image.ssim_ms", "ms"),
    ("image.evaluations", "count"),
    ("solve.select_ms", "ms"),
    ("solve.candidates", "count"),
    ("pool.dispatches", "count"),
    ("pool.jobs", "count"),
    ("pipeline.profiling_speedup", "x"),
    ("pipeline.segmentation_ms", "ms"),
    ("pipeline.profiling_ms", "ms"),
    ("pipeline.selection_ms", "ms"),
    ("pipeline.baking_ms", "ms"),
    ("service.wait_p50_ms", "ms"),
    ("service.wait_p90_ms", "ms"),
    ("service.shared_stage_runs", "count"),
    ("service.coalesced_ratio", "ratio"),
    ("service.bake_coalesced", "count"),
    ("service.gt_coalesced", "count"),
    ("trace.attributed_share", "ratio"),
    ("trace.min_request_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Default)]
struct Layers(HashMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(LAYERS.iter().any(|(n, _)| *n == name), "{name} is not a listed layer metric");
        self.0.insert(name, value);
    }

    /// Span totals per replayed unit: `*_ms` from the named span, counts
    /// from the recorder's counters.
    fn record_trace(&mut self, spans: &[trace::Span], counters: &BTreeMap<&str, u64>, units: f64) {
        let totals = trace::totals(spans);
        let ms = |name: &str| totals.get(name).map_or(0.0, |&ns| ns as f64 / 1e6) / units;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64 / units;
        for (metric, span) in [
            ("seg.segment_ms", "seg.segment"),
            ("scene.raymarch_ms", "scene.raymarch"),
            ("profile.ground_truth_ms", "profile.ground_truth"),
            ("profile.fit_ms", "profile.fit"),
            ("bake.voxelise_ms", "bake.voxelise"),
            ("bake.mesh_ms", "bake.mesh"),
            ("bake.atlas_ms", "bake.atlas"),
            ("bake.splat_extract_ms", "bake.splat_extract"),
            ("bake.encode_ms", "bake.encode"),
            ("bake.store_write_ms", "bake.store_write"),
            ("bake.store_read_ms", "bake.store_read"),
            ("bake.decode_ms", "bake.decode"),
            ("render.probe_raster_ms", "render.probe_raster"),
            ("render.frame_raster_ms", "render.frame_raster"),
            ("render.frame_composite_ms", "render.frame_composite"),
            ("image.ssim_ms", "image.ssim"),
            ("solve.select_ms", "solve.select"),
        ] {
            self.set(metric, ms(span));
        }
        for name in ["scene.rays", "render.probe_renders", "image.evaluations", "solve.candidates"]
        {
            self.set(name, count(name));
        }
        let attribution = replay::attribution(spans);
        self.set("trace.attributed_share", attribution.aggregate);
        self.set("trace.min_request_share", attribution.minimum);
    }

    /// Engine-side counters of the untraced workload requests.
    fn record_engine(&mut self, timings: &[StageTimings], pool: (u64, u64), cache: CacheStats) {
        let n = timings.len().max(1) as f64;
        let mean = |f: &dyn Fn(&StageTimings) -> f64| timings.iter().map(f).sum::<f64>() / n;
        self.set("pipeline.segmentation_ms", mean(&|t| t.segmentation.as_secs_f64() * 1e3));
        self.set("pipeline.profiling_ms", mean(&|t| t.profiling.as_secs_f64() * 1e3));
        self.set("pipeline.selection_ms", mean(&|t| t.selection.as_secs_f64() * 1e3));
        self.set("pipeline.baking_ms", mean(&|t| t.baking.as_secs_f64() * 1e3));
        self.set("pipeline.profiling_speedup", mean(&|t| t.profiling_speedup()));
        self.set("pool.dispatches", pool.0 as f64 / n);
        self.set("pool.jobs", pool.1 as f64 / n);
        self.set("bake.cache_hit_ratio", cache.hit_ratio());
    }

    fn record_service(&mut self, waits_ms: &[f64], stats: ServiceStats, runs: f64) {
        if !waits_ms.is_empty() {
            self.set("service.wait_p50_ms", quantile(waits_ms, 0.5));
            self.set("service.wait_p90_ms", quantile(waits_ms, 0.9));
        }
        self.set("service.shared_stage_runs", stats.shared_stage_runs as f64 / runs);
        self.set("service.coalesced_ratio", stats.coalesced as f64 / stats.completed.max(1) as f64);
        self.set("service.bake_coalesced", stats.bake_coalesced as f64 / runs);
        self.set("service.gt_coalesced", stats.ground_truth_coalesced as f64 / runs);
    }

    fn record_stores(&mut self, totals: StoreTotals, requests: f64) {
        self.set("bake.bytes_read", totals.bytes_read as f64 / requests);
        self.set("bake.bytes_written", totals.bytes_written as f64 / requests);
        self.set("profile.gt_hit_ratio", totals.gt_served as f64 / totals.gt_lookups.max(1) as f64);
        self.set("bake.voxel_grids", totals.grids_built as f64 / requests);
        let useful = totals.grids_distinct as f64 / totals.grids_built.max(1) as f64;
        self.set("bake.voxel_useful_ratio", useful);
    }

    fn into_metrics(self) -> Vec<Metric> {
        LAYERS
            .iter()
            .map(|&(name, unit)| metric(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

fn pool_stats() -> (u64, u64) {
    let stats = WorkerPool::shared().stats();
    (stats.dispatches, stats.jobs)
}

/// Runs the traced replay and the untraced base alternately
/// [`OVERHEAD_PASSES`] times, both on this thread. Returns the first
/// replay's spans and counters and the median ratio of replay wall time to
/// base wall time over the passes.
fn replay_against_base(
    tally: &mut Tally,
    mut replay: impl FnMut(&mut Tally),
    mut base: impl FnMut(&mut Tally),
) -> (Vec<trace::Span>, BTreeMap<&'static str, u64>, f64) {
    let mut first = None;
    let mut ratios = Vec::new();
    for _ in 0..OVERHEAD_PASSES {
        let started = Instant::now();
        trace::start();
        replay(tally);
        let recorded = trace::finish();
        let replay_wall = started.elapsed();
        let started = Instant::now();
        base(tally);
        ratios.push(replay_wall.as_secs_f64() / started.elapsed().as_secs_f64());
        first.get_or_insert(recorded);
    }
    let (spans, counters) = first.expect("at least one pass");
    (spans, counters, median(&ratios))
}

/// Traced run of `cold_deploy` / `warm_redeploy`: the first `requests`
/// requests of the workload through the engine (counters), then through
/// the traced replay (spans) alternating with a 1-worker engine run,
/// untraced (the overhead base).
fn traced_closed_loop(
    setup: &ClosedLoopSetup,
    requests: usize,
    warm: bool,
    store_for: &dyn Fn(usize) -> PathBuf,
    tally: &mut Tally,
) -> Vec<Metric> {
    let budget = |i: usize| setup.budgets[i % setup.budgets.len()];
    let reset = |dir: &Path| {
        if !warm {
            let _ = std::fs::remove_dir_all(dir);
        }
    };
    let mut layers = Layers::default();
    let mut timings = Vec::new();
    let mut stats = ServiceStats::default();
    let mut cache = CacheStats::default();
    let pool_before = pool_stats();
    for i in 0..requests {
        let dir = store_for(i);
        let record = deploy_once(pipeline_options(0).with_cache_dir(&dir), &setup.input, budget(i));
        reset(&dir);
        let checked = record.outcome.as_ref().map_err(Clone::clone).and_then(|o| {
            let done = check(o, &setup.expected, 0, budget(i))?;
            timings.push(done.deployment.timings);
            Ok((0, done))
        });
        tally.record(record.latency, checked);
        stats.completed += record.stats.completed;
        stats.coalesced += record.stats.coalesced;
        stats.shared_stage_runs += record.stats.shared_stage_runs;
        cache.hits += record.cache.hits;
        cache.disk_hits += record.cache.disk_hits;
        cache.misses += record.cache.misses;
    }
    let pool_after = pool_stats();
    layers.record_engine(
        &timings,
        (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1),
        cache,
    );
    // An inline request never queues, so its service wait stays 0.
    layers.record_service(&[], stats, requests as f64);

    let mut store_totals = StoreTotals::default();
    let replay = |tally: &mut Tally| {
        store_totals = StoreTotals::default();
        for i in 0..requests {
            let dir = store_for(i);
            let result =
                ReplayStores::open_dir(&dir).map_err(|e| e.to_string()).and_then(|mut stores| {
                    let input = &setup.input;
                    let assets = stores
                        .deploy(
                            i as u64,
                            &input.scene,
                            &input.dataset,
                            input.key,
                            budget(i),
                            &pipeline_options(1),
                        )
                        .map_err(|e| e.to_string())?;
                    store_totals.add(stores.totals());
                    Ok(assets)
                });
            reset(&dir);
            if let Err(err) =
                result.and_then(|assets| check_replay(&assets, &setup.expected, 0, budget(i)))
            {
                tally.errors.push(format!("replay of request {i}: {err}"));
            }
        }
    };
    let base = |tally: &mut Tally| {
        for i in 0..requests {
            let dir = store_for(i);
            let record =
                deploy_once(pipeline_options(1).with_cache_dir(&dir), &setup.input, budget(i));
            reset(&dir);
            if let Err(err) =
                record.outcome.and_then(|o| check(&o, &setup.expected, 0, budget(i)).map(|_| ()))
            {
                tally.errors.push(format!("1-worker run of request {i}: {err}"));
            }
        }
    };
    let (spans, counters, overhead) = replay_against_base(tally, replay, base);
    layers.record_stores(store_totals, requests as f64);
    layers.record_trace(&spans, &counters, requests as f64);
    layers.set("trace.overhead_ratio", overhead);
    layers.into_metrics()
}

/// A replayed deployment must reproduce the engine's fingerprint.
fn check_replay(
    assets: &[BakedAsset],
    expected: &Expected,
    scene: usize,
    budget: f64,
) -> Result<(), String> {
    let got = deployment_fingerprint(assets);
    let want = expected.get(&(scene, budget.to_bits())).copied().unwrap_or_default();
    if got == want {
        Ok(())
    } else {
        Err(format!("replayed fingerprint {got:016x}, engine {want:016x}"))
    }
}

/// Traced run of `fleet_burst`: one burst through the service (counters),
/// then its requests through the traced replay in submission order,
/// alternating with an inline 1-worker service run of the same burst,
/// untraced.
fn traced_fleet(setup: &FleetSetup, burst: &[(usize, f64, i32)], tally: &mut Tally) -> Vec<Metric> {
    let mut layers = Layers::default();
    let pool_before = pool_stats();
    let record = run_burst(setup, burst, BURST_EXECUTORS, 0);
    let pool_after = pool_stats();
    if let Err(err) = &record.settled {
        tally.errors.push(err.clone());
    }
    let mut timings = Vec::new();
    let mut waits = Vec::new();
    for request in &record.requests {
        if let Ok((_, done)) = &request.result {
            timings.push(done.deployment.timings);
            waits.push(request.latency.saturating_sub(request.own).as_secs_f64() * 1e3);
        }
        tally.record(request.latency, request.checked());
    }
    layers.record_engine(
        &timings,
        (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1),
        record.cache,
    );
    layers.record_service(&waits, record.stats, 1.0);

    let mut store_totals = StoreTotals::default();
    let replay = |tally: &mut Tally| {
        let mut stores = ReplayStores::in_memory();
        for (i, &(scene, budget, _)) in burst.iter().enumerate() {
            let input = &setup.scenes[scene];
            let result = stores
                .deploy(
                    i as u64,
                    &input.scene,
                    &input.dataset,
                    input.key,
                    budget,
                    &pipeline_options(1),
                )
                .map_err(|e| e.to_string())
                .and_then(|assets| check_replay(&assets, &setup.expected, scene, budget));
            if let Err(err) = result {
                tally.errors.push(format!("replay of burst request {i}: {err}"));
            }
        }
        store_totals = stores.totals();
    };
    let base = |tally: &mut Tally| {
        let base = run_burst(setup, burst, 0, 1);
        let base_errors = base.requests.iter().filter_map(|r| r.result.as_ref().err());
        for err in base.settled.as_ref().err().into_iter().chain(base_errors) {
            tally.errors.push(format!("1-worker burst: {err}"));
        }
    };
    let (spans, counters, overhead) = replay_against_base(tally, replay, base);
    layers.record_stores(store_totals, burst.len() as f64);
    layers.record_trace(&spans, &counters, burst.len() as f64);
    layers.set("trace.overhead_ratio", overhead);
    layers.into_metrics()
}

/// Traced run of `device_playback`: passes over every (deployment, pose)
/// frame, rendered by the split traced renderer and checked against the
/// reference, alternating with the same frames through `render_assets`,
/// untraced.
fn traced_playback(setup: &PlaybackSetup, tally: &mut Tally) -> Vec<Metric> {
    let frames = setup.frames.len();
    let mut layers = Layers::default();
    let replay = |tally: &mut Tally| {
        for frame in 0..frames {
            trace::set_request(frame as u64);
            let (deployment, pose) = (frame / PLAYBACK_POSES, frame % PLAYBACK_POSES);
            let image = trace::span("frame", || {
                replay::traced_frame(
                    &setup.deployments[deployment],
                    &setup.poses[pose],
                    FRAME_PX,
                    FRAME_PX,
                    &RenderOptions::default(),
                )
            });
            if image_hash(&image) == setup.frames[frame] {
                tally.attempted += 1;
            } else {
                tally.fail(format!("traced frame {frame} differs from render_assets"));
            }
        }
    };
    let mut stats = RenderStats::default();
    let base = |_: &mut Tally| {
        stats = RenderStats::default();
        for frame in 0..frames {
            let (_, frame_stats) = render_frame(setup, frame);
            stats.triangles_rasterized += frame_stats.triangles_rasterized;
            stats.fragments_shaded += frame_stats.fragments_shaded;
            stats.splats_submitted += frame_stats.splats_submitted;
        }
    };
    let (spans, counters, overhead) = replay_against_base(tally, replay, base);
    layers.record_trace(&spans, &counters, frames as f64);
    layers.set("render.triangles_per_frame", stats.triangles_rasterized as f64 / frames as f64);
    layers.set("render.fragments_per_frame", stats.fragments_shaded as f64 / frames as f64);
    layers.set("render.splats_per_frame", stats.splats_submitted as f64 / frames as f64);
    layers.set("trace.overhead_ratio", overhead);
    layers.into_metrics()
}
