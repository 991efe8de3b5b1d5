//! Criterion benchmark for the profile-measurement dispatch overhead: the
//! seed's per-pair scheduling (a fresh scoped-thread dispatch plus fresh
//! metric buffers for every (configuration, view) pair) against the
//! whole-profile batched dispatch on the persistent worker pool (one
//! dispatch for the entire evaluation grid, per-worker scratch reused
//! across jobs).
//!
//! Both paths score the identical grid with the identical fused metrics
//! engine at an equal worker budget, and the bench asserts their scores are
//! bitwise equal before timing anything — the difference under measurement
//! is pure scheduling and allocation overhead.
//!
//! Environment variables for the CI `bench-smoke` job:
//!
//! * `NERFLEX_BENCH_SMOKE` — shrink criterion sample counts (the grid
//!   itself is kept; it is what the speedup target is defined on).
//! * `NERFLEX_BENCH_JSON` — write mean times, the batched-over-per-pair
//!   speedup and the dispatch/allocation counters to the given path;
//!   uploaded as a CI artifact, where the job asserts
//!   `batched_dispatches < per_pair_dispatches` and `speedup >= 1.3`.
//! * `NERFLEX_WORKERS` — override the worker budget both paths run at.
//!
//! The `bench-dispatch:` line printed at the end is stable and parseable.

use criterion::{criterion_group, criterion_main, Criterion};
use nerflex_bench::JsonReport;
use nerflex_image::metrics::quality_metrics_scratch;
use nerflex_image::{Color, Image, MetricsScratch};
use nerflex_math::pool::{env_workers, WorkerPool};
use nerflex_math::LaneWidth;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Probe resolution: two 32-row metric tiles per image, so each per-pair
/// dispatch runs `min(workers, tiles) = 2` threads.
const RES: usize = 64;
/// Sample configurations in the synthetic profile.
const CONFIGS: usize = 12;
/// Probe views per configuration.
const VIEWS: usize = 4;

/// `true` in the CI smoke job: fewer criterion samples.
fn smoke() -> bool {
    std::env::var_os("NERFLEX_BENCH_SMOKE").is_some()
}

fn samples(full: usize) -> usize {
    if smoke() {
        2
    } else {
        full
    }
}

/// The worker budget both dispatch styles run at (`NERFLEX_WORKERS`
/// overrides; the comparison is scheduling overhead, not parallelism, so
/// the default works on a single-core runner too).
fn workers() -> usize {
    env_workers().unwrap_or(2)
}

/// Ground-truth probe views and one render per (configuration, view) pair —
/// the profile evaluation grid, fixed before timing so both paths score
/// exactly the same images.
fn fixture() -> (Vec<Image>, Vec<Vec<Image>>) {
    let ground_truth: Vec<Image> = (0..VIEWS)
        .map(|v| {
            Image::from_fn(RES, RES, |x, y| {
                Color::new(
                    0.5 + 0.4 * ((x * 3 + y + v * 17) as f32 * 0.11).sin(),
                    0.5 + 0.3 * ((x + 2 * y + v * 5) as f32 * 0.07).cos(),
                    ((x * y + v) % 17) as f32 / 17.0,
                )
            })
        })
        .collect();
    let renders: Vec<Vec<Image>> = (0..CONFIGS)
        .map(|c| {
            let amplitude = 0.02 + c as f32 * 0.01;
            ground_truth
                .iter()
                .map(|gt| {
                    Image::from_fn(RES, RES, |x, y| {
                        let h = ((x * 92821 + y * 68917) % 1000) as f32 / 1000.0 - 0.5;
                        let p = gt.get(x, y);
                        Color::new(p.r + h * amplitude, p.g + h * amplitude, p.b + h * amplitude)
                            .clamped()
                    })
                })
                .collect()
        })
        .collect();
    (ground_truth, renders)
}

/// The seed's scheduling, reproduced: every (configuration, view) pair
/// enters its own scoped-thread dispatch — `workers` threads spawned and
/// joined, results collected behind a mutex — and scores with freshly
/// allocated metric buffers. Returns the scores in pair order plus the
/// dispatch and buffer-allocation counts actually paid.
fn per_pair_dispatch(
    ground_truth: &[Image],
    renders: &[Vec<Image>],
    workers: usize,
) -> (Vec<f64>, u64, u64) {
    let mut ssims = Vec::with_capacity(CONFIGS * VIEWS);
    let mut dispatches = 0u64;
    let mut allocations = 0u64;
    for renders in renders {
        for (gt, img) in ground_truth.iter().zip(renders) {
            // One dispatch per pair, seed-style: spawn, claim from a shared
            // queue, write behind the collection mutex, join.
            let results: Mutex<Vec<Option<(f64, u64)>>> = Mutex::new(vec![None]);
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= 1 {
                            break;
                        }
                        let mut scratch = MetricsScratch::new();
                        let ssim =
                            quality_metrics_scratch(gt, img, LaneWidth::X4, &mut scratch).ssim;
                        results.lock().unwrap()[idx] = Some((ssim, scratch.allocations()));
                    });
                }
            });
            let (ssim, allocs) = results.into_inner().unwrap()[0].expect("job ran");
            ssims.push(ssim);
            dispatches += 1;
            allocations += allocs;
        }
    }
    (ssims, dispatches, allocations)
}

/// The whole-profile batched dispatch: one persistent-pool dispatch over
/// the flattened (configuration × view) grid, each worker reusing one
/// [`MetricsScratch`] across all its jobs, scoring through the 8-wide band
/// kernel. Returns the scores in pair order plus the pool-dispatch delta
/// and the buffer allocations paid.
fn batched_dispatch(
    ground_truth: &[Image],
    renders: &[Vec<Image>],
    workers: usize,
) -> (Vec<f64>, u64, u64) {
    let pool = WorkerPool::shared();
    let before = pool.stats();
    let scored =
        pool.run_scratch(CONFIGS * VIEWS, workers, MetricsScratch::new, |scratch, pair| {
            let (config, view) = (pair / VIEWS, pair % VIEWS);
            let allocs_before = scratch.allocations();
            let ssim = quality_metrics_scratch(
                &ground_truth[view],
                &renders[config][view],
                LaneWidth::X8,
                scratch,
            )
            .ssim;
            (ssim, scratch.allocations() - allocs_before)
        });
    let dispatches = pool.stats().dispatches - before.dispatches;
    let allocations = scored.iter().map(|(_, a)| a).sum();
    (scored.into_iter().map(|(s, _)| s).collect(), dispatches, allocations)
}

fn bench_dispatch(c: &mut Criterion) {
    let (ground_truth, renders) = fixture();
    let workers = workers();
    let pairs = CONFIGS * VIEWS;

    // Sanity before timing: identical scores bit for bit, strictly fewer
    // dispatches and allocations on the batched path.
    let (reference, per_pair_dispatches, per_pair_allocations) =
        per_pair_dispatch(&ground_truth, &renders, workers);
    let (batched, batched_dispatches, batched_allocations) =
        batched_dispatch(&ground_truth, &renders, workers);
    assert_eq!(reference.len(), batched.len());
    for (i, (a, b)) in reference.iter().zip(&batched).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pair {i}: batched dispatch changed the score");
    }
    assert!(
        batched_dispatches < per_pair_dispatches,
        "batching must collapse the dispatch count ({batched_dispatches} vs {per_pair_dispatches})"
    );
    assert!(
        batched_allocations < per_pair_allocations,
        "persistent scratch must cut allocations ({batched_allocations} vs {per_pair_allocations})"
    );

    let mut per_pair = Duration::ZERO;
    let mut batched_mean = Duration::ZERO;

    let mut group = c.benchmark_group("dispatch");
    group.sample_size(samples(10));
    group.bench_function(format!("per_pair_{pairs}pairs_{workers}workers"), |bench| {
        bench.iter(|| per_pair_dispatch(&ground_truth, &renders, workers).0.len());
        per_pair = bench.mean;
    });
    group.bench_function(format!("batched_{pairs}pairs_{workers}workers"), |bench| {
        bench.iter(|| batched_dispatch(&ground_truth, &renders, workers).0.len());
        batched_mean = bench.mean;
    });
    group.finish();

    let speedup = if batched_mean.as_secs_f64() > 0.0 {
        per_pair.as_secs_f64() / batched_mean.as_secs_f64()
    } else {
        1.0
    };
    // Stable, machine-readable summary parsed/archived by the CI job.
    println!(
        "bench-dispatch: pairs={pairs} workers={workers} per_pair_ms={:.3} batched_ms={:.3} \
         speedup={speedup:.2} per_pair_dispatches={per_pair_dispatches} \
         batched_dispatches={batched_dispatches} per_pair_allocations={per_pair_allocations} \
         batched_allocations={batched_allocations}",
        per_pair.as_secs_f64() * 1e3,
        batched_mean.as_secs_f64() * 1e3,
    );
    if let Some(path) = std::env::var_os("NERFLEX_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        let mut report = JsonReport::new();
        report
            .str_field("bench", "dispatch")
            .int_field("smoke", u64::from(smoke()))
            .int_field("pairs", pairs as u64)
            .int_field("workers", workers as u64)
            .float_field("per_pair_ms", per_pair.as_secs_f64() * 1e3)
            .float_field("batched_ms", batched_mean.as_secs_f64() * 1e3)
            .float_field("speedup", speedup)
            .int_field("per_pair_dispatches", per_pair_dispatches)
            .int_field("batched_dispatches", batched_dispatches)
            .int_field("per_pair_allocations", per_pair_allocations)
            .int_field("batched_allocations", batched_allocations);
        match report.write(&path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("dispatch bench: writing {} failed: {err}", path.display()),
        }
    }
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
