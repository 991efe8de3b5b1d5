//! Baked assets: the multi-modal NeRF representation data shipped to the
//! device, with exact size accounting.

use crate::atlas::TextureAtlas;
use crate::config::{BakeConfig, BakeFamily};
use crate::mesh::QuadMesh;
use crate::mlp::TinyMlp;
use crate::splat::SplatCloud;
use crate::voxel::VoxelGrid;
use nerflex_math::{Aabb, Vec3};
use nerflex_scene::object::ObjectModel;
use nerflex_scene::scene::{PlacedObject, Scene};
use std::sync::Arc;

/// Rigid placement of a baked asset in the scene (the asset itself is baked
/// in the object's local frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Translation into world space.
    pub translation: Vec3,
    /// Uniform scale.
    pub scale: f32,
    /// Rotation around the Y axis in radians.
    pub rotation_y: f32,
}

impl Default for Placement {
    fn default() -> Self {
        Self { translation: Vec3::ZERO, scale: 1.0, rotation_y: 0.0 }
    }
}

impl Placement {
    /// Transforms a local-space point into world space.
    pub fn to_world(&self, p: Vec3) -> Vec3 {
        let (s, c) = self.rotation_y.sin_cos();
        let rotated = Vec3::new(c * p.x + s * p.z, p.y, -s * p.x + c * p.z);
        rotated * self.scale + self.translation
    }

    /// Rotates a local-space direction into world space (no translation/scale
    /// normalisation is required for uniform scales).
    pub fn rotate_direction(&self, d: Vec3) -> Vec3 {
        let (s, c) = self.rotation_y.sin_cos();
        Vec3::new(c * d.x + s * d.z, d.y, -s * d.x + c * d.z)
    }
}

/// The baked multi-modal representation of one object: quad mesh, texture
/// atlas, deferred-shading MLP — or, for the splat family, a gaussian
/// splat cloud — and the configuration it was baked with.
///
/// The mesh, atlas and splat cloud — the megabytes — live behind [`Arc`]s:
/// cloning an asset to restamp its identity and placement (what every
/// cache hit does) copies reference counts, not the payload. All read
/// paths are unchanged (`Arc` derefs transparently); only construction
/// sites wrap.
#[derive(Debug, Clone)]
pub struct BakedAsset {
    /// Human-readable object name.
    pub name: String,
    /// Instance id of the source object within its scene (0 for standalone bakes).
    pub object_id: usize,
    /// The configuration used for baking.
    pub config: BakeConfig,
    /// Extracted quad mesh (local space), shared across placement-stamped
    /// copies of the same bake. Empty for splat-family assets.
    pub mesh: Arc<QuadMesh>,
    /// Baked texture atlas, shared across placement-stamped copies.
    /// Empty for splat-family assets.
    pub atlas: Arc<TextureAtlas>,
    /// Optional deferred-shading MLP (a shared few-KB network).
    pub mlp: Option<TinyMlp>,
    /// Gaussian splat cloud — the entire payload of splat-family assets,
    /// `None` for mesh-family assets.
    pub splats: Option<Arc<SplatCloud>>,
    /// Placement of the local frame in the scene.
    pub placement: Placement,
}

/// Bytes per vertex: position (3 × f32) + normal (3 × f32).
const VERTEX_BYTES: usize = 24;
/// Bytes per quad: four u32 vertex indices.
const QUAD_BYTES: usize = 16;
/// Size of the shared deferred-shading MLP counted when none is attached
/// (435 parameters × 4 bytes, see `TinyMlp::shading_model`).
const DEFAULT_MLP_BYTES: usize = 435 * 4;

impl BakedAsset {
    /// Geometry size in bytes (vertex buffer + index buffer).
    pub fn mesh_size_bytes(&self) -> usize {
        self.mesh.vertex_count() * VERTEX_BYTES + self.mesh.quad_count() * QUAD_BYTES
    }

    /// Texture size in bytes.
    pub fn texture_size_bytes(&self) -> usize {
        self.atlas.size_bytes()
    }

    /// Splat payload size in bytes (0 for mesh-family assets).
    pub fn splat_size_bytes(&self) -> usize {
        self.splats.as_ref().map_or(0, |cloud| cloud.size_bytes())
    }

    /// Size of the deferred-shading MLP in bytes (0 for splat-family
    /// assets, which ship no shading network).
    pub fn mlp_size_bytes(&self) -> usize {
        if self.splats.is_some() {
            return 0;
        }
        self.mlp.as_ref().map_or(DEFAULT_MLP_BYTES, TinyMlp::size_bytes)
    }

    /// Total baked-data size in bytes (mesh + texture + MLP for the mesh
    /// family; exactly the splat payload for the splat family).
    pub fn size_bytes(&self) -> usize {
        self.mesh_size_bytes()
            + self.texture_size_bytes()
            + self.splat_size_bytes()
            + self.mlp_size_bytes()
    }

    /// Number of device-side primitives: mesh quads plus splats. This is
    /// the load the device FPS model charges for rasterisation.
    pub fn primitive_count(&self) -> usize {
        self.mesh.quad_count() + self.splats.as_ref().map_or(0, |cloud| cloud.len())
    }

    /// Total baked-data size in megabytes.
    pub fn size_mb(&self) -> f64 {
        self.size_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Bounding box of the placed asset in world space (conservative;
    /// covers the mesh and the splat cloud's 3σ extents).
    pub fn world_bounding_box(&self) -> Aabb {
        let mut local = self.mesh.bounding_box();
        if let Some(cloud) = &self.splats {
            local = local.union(&cloud.bounding_box());
        }
        if local.is_empty() {
            return Aabb::empty();
        }
        let mut bb = Aabb::empty();
        for corner in 0..8 {
            let p = Vec3::new(
                if corner & 1 == 0 { local.min.x } else { local.max.x },
                if corner & 2 == 0 { local.min.y } else { local.max.y },
                if corner & 4 == 0 { local.min.z } else { local.max.z },
            );
            bb.expand_point(self.placement.to_world(p));
        }
        bb
    }
}

/// Bakes a standalone object (in its local frame) at the given configuration.
pub fn bake_object(model: &ObjectModel, config: BakeConfig) -> BakedAsset {
    bake_with_placement(model, config, Placement::default(), 0)
}

/// Bakes one placed scene object, preserving its placement and instance id.
pub fn bake_placed(object: &PlacedObject, config: BakeConfig) -> BakedAsset {
    bake_with_placement(
        &object.model,
        config,
        Placement {
            translation: object.translation,
            scale: object.scale,
            rotation_y: object.rotation_y,
        },
        object.id,
    )
}

fn bake_with_placement(
    model: &ObjectModel,
    config: BakeConfig,
    placement: Placement,
    object_id: usize,
) -> BakedAsset {
    if let BakeFamily::Splat { .. } = config.family {
        let cloud = SplatCloud::extract(model, config);
        return BakedAsset {
            name: model.name.clone(),
            object_id,
            config,
            mesh: Arc::new(QuadMesh::default()),
            atlas: Arc::new(TextureAtlas::from_raw(config.patch, 0, vec![])),
            mlp: None,
            splats: Some(Arc::new(cloud)),
            placement,
        };
    }
    let grid = VoxelGrid::from_sdf(&model.sdf, config.grid);
    let mesh = QuadMesh::extract(&grid, &model.sdf);
    // Highest texture frequency representable by the atlas: half the texel
    // sampling rate over a quad of one cell size (Nyquist).
    let cell = grid.cell_size().max_component().max(1e-6);
    let cutoff = 0.5 * config.patch as f32 / cell;
    let atlas = TextureAtlas::bake(&mesh, &model.appearance, config.patch, cutoff);
    BakedAsset {
        name: model.name.clone(),
        object_id,
        config,
        mesh: Arc::new(mesh),
        atlas: Arc::new(atlas),
        mlp: None,
        splats: None,
        placement,
    }
}

/// Bakes every object of a scene with its own configuration, in parallel
/// (one worker per available core). `configs[i]` is used for the object with
/// instance id `i`.
///
/// # Panics
///
/// Panics when `configs.len()` differs from the number of scene objects.
pub fn bake_scene(scene: &Scene, configs: &[BakeConfig]) -> Vec<BakedAsset> {
    assert_eq!(
        configs.len(),
        scene.objects().len(),
        "one configuration per scene object is required"
    );
    nerflex_math::pool::parallel_map(
        scene.len(),
        nerflex_math::pool::default_workers(scene.len()),
        |idx| bake_placed(&scene.objects()[idx], configs[idx]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::object::CanonicalObject;

    #[test]
    fn size_accounting_adds_up() {
        let model = CanonicalObject::Hotdog.build();
        let asset = bake_object(&model, BakeConfig::new(16, 5));
        assert_eq!(
            asset.size_bytes(),
            asset.mesh_size_bytes() + asset.texture_size_bytes() + DEFAULT_MLP_BYTES
        );
        assert!(asset.size_mb() > 0.0);
        assert_eq!(asset.name, "hotdog");
    }

    #[test]
    fn splat_bakes_carry_only_the_cloud() {
        let model = CanonicalObject::Hotdog.build();
        let asset = bake_object(&model, BakeConfig::splat(20, 1024));
        let cloud = asset.splats.as_ref().expect("splat family bakes a cloud");
        assert!(!cloud.is_empty());
        assert_eq!(asset.mesh.quad_count(), 0);
        assert_eq!(asset.texture_size_bytes(), 0);
        assert_eq!(asset.mlp_size_bytes(), 0, "splat assets ship no MLP");
        assert_eq!(asset.size_bytes(), cloud.size_bytes(), "exact size accounting");
        assert_eq!(asset.primitive_count(), cloud.len());
        // The world bounding box comes from the cloud, never NaN.
        let bb = asset.world_bounding_box();
        assert!(!bb.is_empty());
        assert!(bb.center().length().is_finite());
    }

    #[test]
    fn splat_size_scales_with_the_count_axis() {
        let model = CanonicalObject::Chair.build();
        let small = bake_object(&model, BakeConfig::splat(24, 256));
        let big = bake_object(&model, BakeConfig::splat(24, 4096));
        assert!(big.size_bytes() > small.size_bytes());
        assert!(big.size_bytes() < bake_object(&model, BakeConfig::new(24, 9)).size_bytes());
    }

    #[test]
    fn size_grows_with_both_knobs() {
        let model = CanonicalObject::Chair.build();
        let small = bake_object(&model, BakeConfig::new(12, 3));
        let bigger_grid = bake_object(&model, BakeConfig::new(24, 3));
        let bigger_patch = bake_object(&model, BakeConfig::new(12, 9));
        assert!(bigger_grid.size_bytes() > small.size_bytes());
        assert!(bigger_patch.size_bytes() > small.size_bytes());
    }

    #[test]
    fn texture_dominates_at_large_patch_sizes() {
        // The paper's size model is ∝ g³·p²: at a realistic patch size the
        // texture term dwarfs the geometry term.
        let model = CanonicalObject::Hotdog.build();
        let asset = bake_object(&model, BakeConfig::new(24, 17));
        assert!(asset.texture_size_bytes() > asset.mesh_size_bytes());
    }

    #[test]
    fn placement_is_preserved_by_bake_placed() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 5);
        let obj = &scene.objects()[1];
        let asset = bake_placed(obj, BakeConfig::new(12, 3));
        assert_eq!(asset.object_id, 1);
        assert_eq!(asset.placement.translation, obj.translation);
        // World bounding box must sit near the object's world bounding box.
        let bb = asset.world_bounding_box();
        let reference = obj.world_bounding_box();
        assert!(bb.center().distance(reference.center()) < reference.diagonal());
    }

    #[test]
    fn bake_scene_bakes_every_object_with_its_own_config() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 8);
        let configs = vec![BakeConfig::new(10, 3), BakeConfig::new(18, 5)];
        let assets = bake_scene(&scene, &configs);
        assert_eq!(assets.len(), 2);
        assert_eq!(assets[0].config, configs[0]);
        assert_eq!(assets[1].config, configs[1]);
        assert_eq!(assets[0].object_id, 0);
        assert_eq!(assets[1].object_id, 1);
    }

    #[test]
    fn placement_roundtrip_matches_scene_transform() {
        let scene = Scene::with_objects(&[CanonicalObject::Lego], 3);
        let obj = &scene.objects()[0];
        let placement = Placement {
            translation: obj.translation,
            scale: obj.scale,
            rotation_y: obj.rotation_y,
        };
        for i in 0..20 {
            let local = Vec3::new((i % 4) as f32 * 0.1, (i % 3) as f32 * 0.2, (i % 5) as f32 * 0.1);
            let world = placement.to_world(local);
            assert!((obj.to_local(world) - local).length() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "one configuration per scene object")]
    fn mismatched_config_count_panics() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog], 1);
        let _ = bake_scene(&scene, &[]);
    }
}
