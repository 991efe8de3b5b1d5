//! The traced replay: a 1-worker re-execution of a workload's requests
//! through the layers' public functions, in the engine's order, with a span
//! around every layer call.
//!
//! Per request: `segment`; per object the ground-truth lookup, the sample
//! bakes, a probe raster and an SSIM evaluation per (configuration, view),
//! and the fits; then the DP selection, the final bakes and the store
//! flush. Stores are `KeyedStore`s over the engine's own entry codecs and
//! keys (what `BakeCache` and `GroundTruthCache` wrap), so a replay reads
//! and writes the same entries the engine does; wrapping them lets a miss
//! build be split into its layer calls and every read, decode, encode and
//! write be timed. Each replayed deployment's `deployment_fingerprint` is
//! compared with the engine's, which shows the replay did the same work.

use crate::trace::{self, span, TracedBackend, TracedCodec};
use nerflex_bake::backend::{DirBackend, StoreBackend};
use nerflex_bake::cache::BakeEntryCodec;
use nerflex_bake::store::{EntryCodec, KeyedStore, StoreOptions};
use nerflex_bake::{
    model_fingerprint, BakeConfig, BakeFamily, BakedAsset, Placement, QuadMesh, SplatCloud,
    TextureAtlas, VoxelGrid,
};
use nerflex_core::pipeline::PipelineOptions;
use nerflex_image::{metrics, MetricsScratch};
use nerflex_image::{Color, Image};
use nerflex_math::Vec2;
use nerflex_profile::ground_truth::GtEntryCodec;
use nerflex_profile::measurement::{Measurement, MeasurementSettings, ObjectGroundTruth};
use nerflex_profile::profiler::build_profile_from_measurements;
use nerflex_profile::{sample_configurations, splat_sample_configurations, ObjectProfile};
use nerflex_render::camera::RasterCamera;
use nerflex_render::raster::{draw_triangle, Fragment, RasterStats, RasterVertex};
use nerflex_render::{composite_splats, render_assets, Framebuffer, RenderOptions};
use nerflex_scene::camera_path::CameraPose;
use nerflex_scene::dataset::Dataset;
use nerflex_scene::object::ObjectModel;
use nerflex_scene::raymarch::{background, primary_ray, shade};
use nerflex_scene::scene::{PlacedObject, Scene};
use nerflex_solve::SelectionProblem;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

type BakeStore = KeyedStore<TracedCodec<BakeEntryCodec>>;
type GtStore = KeyedStore<TracedCodec<GtEntryCodec>>;

/// Bake-store bytes moved, ground-truth lookups (served without rendering,
/// total) and voxel grids (built, distinct (model, grid) pairs).
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreTotals {
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub gt_served: usize,
    pub gt_lookups: usize,
    pub grids_built: u64,
    pub grids_distinct: u64,
}

impl StoreTotals {
    pub fn add(&mut self, other: StoreTotals) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.gt_served += other.gt_served;
        self.gt_lookups += other.gt_lookups;
        self.grids_built += other.grids_built;
        self.grids_distinct += other.grids_distinct;
    }
}

/// The replay's stores: in memory, or over a directory laid out exactly
/// as the engine lays out its persistent stores (`<root>` for bakes,
/// `<root>/ground-truth` for ground truths).
pub struct ReplayStores {
    bake: BakeStore,
    ground_truth: GtStore,
    /// The bake store's backend, for the bytes it moved (none in memory).
    bake_backend: Option<Arc<TracedBackend>>,
    /// Voxel grids built, and the distinct (model, grid) pairs among them.
    grids_built: u64,
    grids: HashSet<(u64, u32)>,
    /// Shared-stage outputs by scene key, as the service coalesces them.
    shared: HashMap<u64, Arc<Vec<ObjectProfile>>>,
}

impl ReplayStores {
    pub fn in_memory() -> Self {
        Self {
            bake: KeyedStore::in_memory(),
            ground_truth: KeyedStore::in_memory(),
            bake_backend: None,
            grids_built: 0,
            grids: HashSet::new(),
            shared: HashMap::new(),
        }
    }

    pub fn open_dir(root: &Path) -> std::io::Result<Self> {
        let bake_backend = Arc::new(TracedBackend::new(
            Arc::new(DirBackend::create(root, BakeEntryCodec::EXTENSION)?),
            "bake.store_read",
            "bake.store_write",
        ));
        let gt_backend: Arc<dyn StoreBackend> = Arc::new(TracedBackend::new(
            Arc::new(DirBackend::create(root.join("ground-truth"), GtEntryCodec::EXTENSION)?),
            "gt.store_read",
            "gt.store_write",
        ));
        Ok(Self {
            bake: KeyedStore::open(StoreOptions::backend(bake_backend.clone()))?,
            ground_truth: KeyedStore::open(StoreOptions::backend(gt_backend))?,
            bake_backend: Some(bake_backend),
            grids_built: 0,
            grids: HashSet::new(),
            shared: HashMap::new(),
        })
    }

    /// Store-level counters of everything replayed through these stores.
    pub fn totals(&self) -> StoreTotals {
        let (bytes_read, bytes_written) = self.bake_backend.as_ref().map_or((0, 0), |b| {
            (b.bytes_read.load(Ordering::Relaxed), b.bytes_written.load(Ordering::Relaxed))
        });
        let gt = self.ground_truth.stats();
        let gt_served = gt.hits + gt.disk_hits;
        StoreTotals {
            bytes_read,
            bytes_written,
            gt_served,
            gt_lookups: gt_served + gt.misses,
            grids_built: self.grids_built,
            grids_distinct: self.grids.len() as u64,
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        self.bake.flush()?;
        self.ground_truth.flush()?;
        Ok(())
    }

    /// The sample/final bake lookup: decode from the store or build with
    /// the four layer calls `bake_object` makes, split into spans.
    fn bake(&mut self, model: &ObjectModel, config: BakeConfig) -> Arc<BakedAsset> {
        let fingerprint = model_fingerprint(model);
        let mut built_grid = None;
        let asset = self.bake.get_or_build((fingerprint, config), (), || {
            if let BakeFamily::Splat { .. } = config.family {
                let cloud = span("bake.splat_extract", || SplatCloud::extract(model, config));
                return BakedAsset {
                    name: model.name.clone(),
                    object_id: 0,
                    config,
                    mesh: Arc::new(QuadMesh::default()),
                    atlas: Arc::new(TextureAtlas::from_raw(config.patch, 0, vec![])),
                    mlp: None,
                    splats: Some(Arc::new(cloud)),
                    placement: Placement::default(),
                };
            }
            let grid = span("bake.voxelise", || VoxelGrid::from_sdf(&model.sdf, config.grid));
            built_grid = Some(config.grid);
            let mesh = span("bake.mesh", || QuadMesh::extract(&grid, &model.sdf));
            let cell = grid.cell_size().max_component().max(1e-6);
            let cutoff = 0.5 * config.patch as f32 / cell;
            let atlas = span("bake.atlas", || {
                TextureAtlas::bake(&mesh, &model.appearance, config.patch, cutoff)
            });
            BakedAsset {
                name: model.name.clone(),
                object_id: 0,
                config,
                mesh: Arc::new(mesh),
                atlas: Arc::new(atlas),
                mlp: None,
                splats: None,
                placement: Placement::default(),
            }
        });
        if let Some(grid) = built_grid {
            self.grids_built += 1;
            self.grids.insert((fingerprint, grid));
        }
        asset
    }

    fn bake_placed(&mut self, object: &PlacedObject, config: BakeConfig) -> BakedAsset {
        span("bake.lookup", || {
            let mut asset = (*self.bake(&object.model, config)).clone();
            asset.object_id = object.id;
            asset.placement = Placement {
                translation: object.translation,
                scale: object.scale,
                rotation_y: object.rotation_y,
            };
            asset
        })
    }

    fn ground_truth(
        &self,
        model: &ObjectModel,
        settings: &MeasurementSettings,
    ) -> Arc<ObjectGroundTruth> {
        span("profile.ground_truth", || {
            let key = (model_fingerprint(model), settings.views, settings.resolution);
            self.ground_truth.get_or_build(key, (model, settings), || {
                let (scene, poses) = ObjectGroundTruth::probe_rig(model, settings);
                let images = poses
                    .iter()
                    .map(|pose| {
                        trace::count(
                            "scene.rays",
                            (settings.resolution * settings.resolution) as u64,
                        );
                        span("scene.raymarch", || {
                            nerflex_scene::raymarch::render_view_lanes(
                                &scene,
                                pose,
                                settings.resolution,
                                settings.resolution,
                                1,
                                settings.lane_width,
                            )
                            .0
                        })
                    })
                    .collect();
                ObjectGroundTruth { scene, poses, images, resolution: settings.resolution }
            })
        })
    }

    /// One object's profile, as `build_profile_accounted` computes it.
    fn profile(
        &mut self,
        model: &ObjectModel,
        object_id: usize,
        options: &PipelineOptions,
    ) -> ObjectProfile {
        let settings = options.profiler.measurement;
        let mut configs = sample_configurations(&options.profiler.range);
        configs.extend(splat_sample_configurations(&options.profiler.splats));
        let ground_truth = self.ground_truth(model, &settings);
        let placed = &ground_truth.scene.objects()[0];
        let assets: Vec<BakedAsset> =
            configs.iter().map(|&config| self.bake_placed(placed, config)).collect();
        let views = ground_truth.poses.len();
        let mut scratch = MetricsScratch::new();
        let samples = assets
            .into_iter()
            .map(|asset| {
                let mut ssim_sum = 0.0;
                for view in 0..views {
                    let (image, _) = span("render.probe_raster", || {
                        render_assets(
                            std::slice::from_ref(&asset),
                            &ground_truth.poses[view],
                            ground_truth.resolution,
                            ground_truth.resolution,
                            &RenderOptions::default(),
                        )
                    });
                    trace::count("render.probe_renders", 1);
                    ssim_sum += span("image.ssim", || {
                        metrics::quality_metrics_scratch(
                            &ground_truth.images[view],
                            &image,
                            settings.lane_width,
                            &mut scratch,
                        )
                        .ssim
                    });
                    trace::count("image.evaluations", 1);
                }
                Measurement {
                    config: asset.config,
                    size_mb: asset.size_mb(),
                    ssim: ssim_sum / views as f64,
                    quad_count: asset.primitive_count(),
                }
            })
            .collect();
        span("profile.fit", || build_profile_from_measurements(model, object_id, samples))
    }

    /// Replays one deploy request and returns its deployment's assets.
    /// Shared stages run once per scene key, as the service coalesces them.
    pub fn deploy(
        &mut self,
        request: u64,
        scene: &Scene,
        dataset: &Dataset,
        scene_key: u64,
        budget_mb: f64,
        options: &PipelineOptions,
    ) -> std::io::Result<Vec<BakedAsset>> {
        trace::set_request(request);
        span("request", || {
            let profiles = match self.shared.get(&scene_key) {
                Some(profiles) => Arc::clone(profiles),
                None => {
                    span("stage.segmentation", || {
                        span("seg.segment", || nerflex_seg::segment(dataset, &options.segmentation))
                    });
                    let profiles = span("stage.profiling", || {
                        scene
                            .objects()
                            .iter()
                            .map(|object| self.profile(&object.model, object.id, options))
                            .collect::<Vec<_>>()
                    });
                    let profiles = Arc::new(profiles);
                    self.shared.insert(scene_key, Arc::clone(&profiles));
                    profiles
                }
            };
            let selection = span("stage.selection", || {
                span("solve.select", || {
                    let problem =
                        SelectionProblem::from_profiles(&profiles, &options.space, budget_mb);
                    let candidates: usize = problem.objects.iter().map(|o| o.options.len()).sum();
                    trace::count("solve.candidates", candidates as u64);
                    options.selector.select(&problem)
                })
            });
            let assets = span("stage.baking", || {
                scene
                    .objects()
                    .iter()
                    .map(|object| {
                        let config = selection
                            .assignment_for(object.id)
                            .map(|a| a.config)
                            .unwrap_or(BakeConfig::MOBILENERF_DEFAULT.clamped());
                        self.bake_placed(object, config)
                    })
                    .collect::<Vec<_>>()
            });
            span("stage.flush", || self.flush())?;
            Ok(assets)
        })
    }
}

/// Attribution of replayed requests: for each request, the share of its
/// wall time covered by layer spans (every span other than the request
/// root and the `stage.*` containers, counted by self time).
pub struct Attribution {
    pub aggregate: f64,
    pub minimum: f64,
}

pub fn attribution(spans: &[trace::Span]) -> Attribution {
    // request id -> (wall, unattributed)
    let mut per_request: HashMap<u64, (u64, u64)> = HashMap::new();
    for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        let entry = per_request.entry(span.request).or_default();
        if span.name == "request" || span.name == "frame" {
            entry.0 += span.duration_ns();
            entry.1 += self_ns;
        } else if span.name.starts_with("stage.") {
            entry.1 += self_ns;
        }
    }
    let mut wall = 0u64;
    let mut unattributed = 0u64;
    let mut minimum = 1.0f64;
    for (request_wall, request_unattributed) in per_request.values() {
        if *request_wall == 0 {
            continue;
        }
        wall += request_wall;
        unattributed += request_unattributed;
        minimum = minimum.min(1.0 - *request_unattributed as f64 / *request_wall as f64);
    }
    let aggregate = if wall == 0 { 0.0 } else { 1.0 - unattributed as f64 / wall as f64 };
    Attribution { aggregate, minimum }
}

/// One playback frame, rendered as `render_assets` renders it but split
/// into the mesh raster (triangles, then the background fill) and the
/// splat composite. The caller checks the image against `render_assets`.
pub fn traced_frame(
    assets: &[BakedAsset],
    pose: &CameraPose,
    width: usize,
    height: usize,
    options: &RenderOptions,
) -> Image {
    let camera = RasterCamera::new(pose, width, height);
    let mut framebuffer = Framebuffer::new(width, height, Color::BLACK);
    span("render.frame_raster", || {
        let mut stats = RasterStats::default();
        for asset in assets {
            let placement = asset.placement;
            for (q, quad) in asset.mesh.quads.iter().enumerate() {
                let corner = |i: usize, u: f32, v: f32| -> RasterVertex {
                    let local = asset.mesh.positions[quad.vertices[i] as usize];
                    let normal = asset.mesh.normals[quad.vertices[i] as usize];
                    RasterVertex {
                        position: placement.to_world(local),
                        uv: Vec2::new(u, v),
                        normal: placement.rotate_direction(normal),
                    }
                };
                let v0 = corner(0, 0.0, 0.0);
                let v1 = corner(1, 1.0, 0.0);
                let v2 = corner(2, 1.0, 1.0);
                let v3 = corner(3, 0.0, 1.0);
                let mut shade_fragment = |frag: Fragment| -> Color {
                    let albedo = asset.atlas.sample(q, frag.uv.x, frag.uv.y);
                    match (&asset.mlp, options.use_mlp_shading) {
                        (Some(mlp), true) => mlp.shade(frag.normal, albedo),
                        _ => shade(albedo, frag.normal),
                    }
                };
                for triangle in [[v0, v1, v2], [v0, v2, v3]] {
                    draw_triangle(
                        &camera,
                        &mut framebuffer,
                        &triangle,
                        &mut stats,
                        &mut shade_fragment,
                    );
                }
            }
        }
        framebuffer
            .fill_background(|x, y| background(primary_ray(pose, x, y, width, height).direction));
    });
    span("render.frame_composite", || composite_splats(assets, &camera, &mut framebuffer, options));
    framebuffer.into_image()
}
