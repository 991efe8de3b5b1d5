//! # nerflex-bake
//!
//! MobileNeRF-style baking simulator: converts a procedural object into the
//! multi-modal representation that mesh-assisted NeRF systems ship to the
//! device — a quad mesh extracted from a voxel grid of granularity `g`, a
//! texture atlas allocating `p × p` texels per quad, and a tiny deferred
//! shading MLP.
//!
//! The paper bakes a trained NeRF; we bake the analytic scene (DESIGN.md
//! documents the substitution). What matters for NeRFlex is preserved
//! exactly: the baked-data size and the rendered quality are controlled by
//! the same two knobs `(g, p)` with the same growth laws — size grows with
//! the number of surface quads (∝ voxel granularity) times the texels per
//! quad (`p²`), and quality saturates as both increase.
//!
//! ```
//! use nerflex_bake::{bake_object, BakeConfig};
//! use nerflex_scene::object::CanonicalObject;
//!
//! let model = CanonicalObject::Hotdog.build();
//! let asset = bake_object(&model, BakeConfig::new(24, 5));
//! assert!(asset.mesh.quad_count() > 0);
//! assert!(asset.size_bytes() > 0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asset;
pub mod atlas;
pub mod backend;
pub mod cache;
pub mod config;
pub mod disk;
pub mod fault;
pub mod mesh;
pub mod mlp;
pub mod splat;
pub mod store;
pub mod voxel;

pub use asset::{bake_object, bake_placed, bake_scene, BakedAsset, Placement};
pub use atlas::TextureAtlas;
pub use backend::{
    DirBackend, EntryMeta, MemBackend, RemoteHealth, ResilienceStats, RetryPolicy, SharedBackend,
    StoreBackend,
};
pub use cache::{model_fingerprint, BakeCache, CacheStats};
pub use config::{BakeConfig, BakeFamily};
pub use disk::CACHE_FORMAT_VERSION;
pub use fault::{
    FaultMode, FaultOp, FaultPlan, FaultSchedule, FaultStats, FaultyBackend, StoreFaultPanic,
};
pub use mesh::QuadMesh;
pub use mlp::TinyMlp;
pub use splat::{Splat, SplatCloud, SPLAT_BYTES};
pub use store::{
    EntryCodec, FlushReport, KeyedStore, PruneReport, StoreLimits, StoreLocation, StoreOptions,
    StoreStats,
};
pub use voxel::VoxelGrid;
