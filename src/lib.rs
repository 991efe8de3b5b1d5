//! # nerflex
//!
//! Full-system reproduction of **"NeRFlex: Resource-aware Real-time
//! High-quality Rendering of Complex Scenes on Mobile Devices"**
//! (Wang & Zhu, ICDCS 2025).
//!
//! This meta-crate re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`math`] | `nerflex-math` | vectors, matrices, rays, AABBs, sampling, statistics |
//! | [`image`] | `nerflex-image` | float images, SSIM/PSNR/LPIPS-proxy, DCT frequency analysis |
//! | [`scene`] | `nerflex-scene` | procedural SDF objects, scenes, datasets, ray-marched ground truth |
//! | [`bake`] | `nerflex-bake` | MobileNeRF-style baking: voxel grid, quad mesh, texture atlas, tiny MLP, content-addressed bake cache |
//! | [`render`] | `nerflex-render` | software rasteriser and quality comparison |
//! | [`device`] | `nerflex-device` | iPhone 13 / Pixel 4 models, memory ceilings, FPS simulation |
//! | [`seg`] | `nerflex-seg` | detail-based segmentation (paper §III-A) |
//! | [`profile`] | `nerflex-profile` | lightweight white-box profiler (paper §III-B) |
//! | [`solve`] | `nerflex-solve` | DP / Fairness / SLSQP / greedy configuration selectors (paper §III-C) |
//! | [`core`] | `nerflex-core` | the staged, parallel, cache-aware pipeline engine, baselines, experiments, evaluation |
//!
//! ## The pipeline engine
//!
//! [`core::pipeline::NerflexPipeline`] executes the cloud side as four
//! staged passes (segmentation → profiling → selection → baking) with three
//! properties that keep preparation cheap (the paper's Fig. 9 story):
//!
//! * profiling and baking fan out over one shared worker pool under a
//!   single worker setting,
//!   [`core::pipeline::PipelineOptions::worker_threads`], which the engine
//!   splits into objects × per-profile width; the profiler itself has one
//!   entry point, [`profile::build_profile`], whose
//!   [`profile::MeasurementContext`] carries the shared caches and that
//!   width;
//! * every sample bake the profiler pays for lands in a shared
//!   [`bake::BakeCache`], so a selected configuration that was already
//!   probed is never re-baked ([`core::pipeline::StageTimings`] reports the
//!   hit/miss counters);
//! * [`core::pipeline::NerflexPipeline::try_deploy_fleet`] prepares one
//!   scene for many devices with segmentation and profiling run exactly
//!   once, and [`core::service::DeployService`] generalises that to a
//!   long-running request stream with scene-level coalescing and in-flight
//!   dedup (`docs/service.md`).
//!
//! ## Quick start
//!
//! ```no_run
//! use nerflex::core::experiments::EvaluationScene;
//! use nerflex::core::pipeline::{NerflexPipeline, PipelineOptions};
//! use nerflex::device::DeviceSpec;
//!
//! let built = EvaluationScene::Scene4.build(42);
//! let dataset = built.dataset(6, 2, 96);
//! let deployment = NerflexPipeline::new(PipelineOptions::quick())
//!     .try_run(&built.scene, &dataset, &DeviceSpec::iphone_13())
//!     .expect("non-empty scene and dataset");
//! println!("deployed {:.1} MB across {} sub-NeRFs",
//!          deployment.workload().data_size_mb,
//!          deployment.assets.len());
//! ```
//!
//! Serving a *stream* of requests — many devices, mostly-duplicate scenes —
//! goes through the deployment service instead, which coalesces duplicate
//! work and orders the queue by priority:
//!
//! ```no_run
//! use nerflex::core::experiments::EvaluationScene;
//! use nerflex::core::pipeline::PipelineOptions;
//! use nerflex::core::service::{DeployRequest, DeployService, ServiceOptions};
//! use nerflex::device::DeviceSpec;
//! use std::sync::Arc;
//!
//! let built = EvaluationScene::Scene4.build(42);
//! let dataset = Arc::new(built.dataset(6, 2, 96));
//! let scene = Arc::new(built.scene);
//! let service =
//!     DeployService::new(ServiceOptions::inline(PipelineOptions::quick()).with_executors(2));
//! for device in [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()] {
//!     service
//!         .submit(DeployRequest::new(Arc::clone(&scene), Arc::clone(&dataset), device))
//!         .expect("valid request");
//! }
//! let outcomes = service.drain();
//! println!("{}", service.stats()); // 2 admitted, 1 shared-stage run, 1 coalesced
//! # drop(outcomes);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the binaries that regenerate every table and figure of the paper.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use nerflex_bake as bake;
pub use nerflex_core as core;
pub use nerflex_device as device;
pub use nerflex_image as image;
pub use nerflex_math as math;
pub use nerflex_profile as profile;
pub use nerflex_render as render;
pub use nerflex_scene as scene;
pub use nerflex_seg as seg;
pub use nerflex_solve as solve;
