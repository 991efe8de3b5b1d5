//! Content-addressed cache of ray-marched object ground truths — a thin
//! typed wrapper over the generic [`nerflex_bake::KeyedStore`].
//!
//! Building an [`ObjectGroundTruth`] — sphere-tracing every probe view of an
//! object — is the dominant cost of profiling. The renders depend only on
//! the object's content and the probe settings, so they are cached exactly
//! like bakes: keyed by ([`nerflex_bake::model_fingerprint`], view count,
//! resolution), shared across threads, and optionally persisted through any
//! [`nerflex_bake::StoreBackend`] (one directory, or a local layer over a
//! shared remote — see `docs/stores.md`). Duplicate objects in a scene,
//! fleet re-deployments and repeated bench/CI runs then render each ground
//! truth **once** — fleet-wide, when machines share a remote.
//!
//! Renders are deterministic and bit-identical for every worker/tile/lane
//! count (see [`nerflex_scene::raymarch`]), so a cached ground truth —
//! in-memory, local or remote — yields measurements identical to a fresh
//! build.
//!
//! This module contributes only the entry codec: the
//! `{fingerprint:016x}-v{views}-r{resolution}.nfgt` file names and the
//! probe-image framing (unchanged from the pre-`KeyedStore` store — format
//! version [`GT_FORMAT_VERSION`] is not bumped, existing `.nfgt` files
//! load). Only the probe images are persisted (exact `f32` bit patterns);
//! the probe scene and camera poses are recomputed from the model on load,
//! which is cheap and deterministic — that is why decoding takes the model
//! and settings as [`nerflex_bake::EntryCodec::decode`] context. Lazy
//! indexing, flushing, pruning, corruption tolerance and read-only mode are
//! the shared store machinery.

use crate::measurement::{MeasurementSettings, ObjectGroundTruth};
use nerflex_bake::model_fingerprint;
use nerflex_bake::store::{EntryCodec, KeyedStore, StoreOptions};
use nerflex_image::{Color, Image};
use nerflex_scene::object::ObjectModel;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Version of the on-disk ground-truth entry format. Bump on ANY layout
/// change **and on any change to what the renderer produces** — shading
/// constants, probe-rig geometry (`ObjectGroundTruth::probe_rig`), sphere-
/// tracing parameters. Persisted entries capture renderer *output*, so a
/// behavior change without a bump lets a long-lived local store decode
/// cleanly and serve stale images, silently skewing every measurement
/// scored against them (CI is protected by its source-hash cache key;
/// developer stores are only protected by this constant). Readers reject
/// foreign versions (entries are a cache — a re-render is always correct).
pub const GT_FORMAT_VERSION: u32 = 1;

/// Magic bytes identifying a ground-truth entry file.
pub const GT_MAGIC: [u8; 4] = *b"NFGT";

/// File extension used for ground-truth entry files.
pub const GT_EXTENSION: &str = "nfgt";

/// Cache key: (object content fingerprint, probe views, probe resolution).
type GtKey = (u64, usize, usize);

/// File name for an entry (`{fingerprint:016x}-v{views}-r{res}.nfgt`).
fn entry_file_name(key: GtKey) -> String {
    format!("{:016x}-v{}-r{}.{GT_EXTENSION}", key.0, key.1, key.2)
}

/// Parses an entry file name back into its key (`None` for foreign files).
fn parse_entry_file_name(name: &str) -> Option<GtKey> {
    let stem = name.strip_suffix(&format!(".{GT_EXTENSION}"))?;
    let mut parts = stem.split('-');
    let fingerprint = u64::from_str_radix(parts.next()?, 16).ok()?;
    let views = parts.next()?.strip_prefix('v')?.parse().ok()?;
    let resolution = parts.next()?.strip_prefix('r')?.parse().ok()?;
    parts.next().is_none().then_some((fingerprint, views, resolution))
}

/// FNV-1a over a byte slice (the same stable hash the bake store uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes the probe images of one entry.
fn encode_entry(key: GtKey, images: &[Image]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&GT_MAGIC);
    out.extend_from_slice(&GT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.0.to_le_bytes());
    out.extend_from_slice(&(key.1 as u32).to_le_bytes());
    out.extend_from_slice(&(key.2 as u32).to_le_bytes());
    for image in images {
        out.extend_from_slice(&(image.width() as u32).to_le_bytes());
        out.extend_from_slice(&(image.height() as u32).to_le_bytes());
        for y in 0..image.height() {
            for x in 0..image.width() {
                let c = image.get(x, y);
                out.extend_from_slice(&c.r.to_bits().to_le_bytes());
                out.extend_from_slice(&c.g.to_bits().to_le_bytes());
                out.extend_from_slice(&c.b.to_bits().to_le_bytes());
            }
        }
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes an entry file, returning the probe images. Total: any
/// truncation, bad magic, version/key mismatch or checksum failure yields
/// `None` (the entry re-renders).
fn decode_entry(bytes: &[u8], expect: GtKey) -> Option<Vec<Image>> {
    if bytes.len() < GT_MAGIC.len() + 4 + 8 + 4 + 4 + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if fnv1a(body) != u64::from_le_bytes(tail.try_into().ok()?) {
        return None;
    }
    let mut cursor = body;
    let mut take = |n: usize| -> Option<&[u8]> {
        if cursor.len() < n {
            return None;
        }
        let (head, rest) = cursor.split_at(n);
        cursor = rest;
        Some(head)
    };
    if take(4)? != GT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(take(4)?.try_into().ok()?) != GT_FORMAT_VERSION {
        return None;
    }
    let fingerprint = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let views = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    let resolution = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    if (fingerprint, views, resolution) != expect {
        return None;
    }
    let mut images = Vec::with_capacity(views);
    for _ in 0..views {
        let width = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        let height = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        if width == 0 || height == 0 || width > 1 << 16 || height > 1 << 16 {
            return None;
        }
        let texels = take(width * height * 12)?;
        let mut image = Image::new(width, height, Color::BLACK);
        for y in 0..height {
            for x in 0..width {
                let at = (y * width + x) * 12;
                let channel = |o: usize| -> Option<f32> {
                    let raw = texels.get(at + o..at + o + 4)?;
                    Some(f32::from_bits(u32::from_le_bytes(raw.try_into().ok()?)))
                };
                image.set(x, y, Color::new(channel(0)?, channel(4)?, channel(8)?));
            }
        }
        images.push(image);
    }
    cursor.is_empty().then_some(images)
}

/// The ground-truth store's [`EntryCodec`]. Decoding reconstructs the full
/// [`ObjectGroundTruth`] (probe rig + images), which needs the model and
/// settings — they travel as the codec's decode context, supplied by the
/// lookup that triggered the decode.
#[derive(Debug)]
pub struct GtEntryCodec;

impl EntryCodec for GtEntryCodec {
    type Key = GtKey;
    type Value = ObjectGroundTruth;
    type Context<'a> = (&'a ObjectModel, &'a MeasurementSettings);
    const EXTENSION: &'static str = GT_EXTENSION;

    fn file_name(key: &GtKey) -> String {
        entry_file_name(*key)
    }

    fn parse_file_name(name: &str) -> Option<GtKey> {
        parse_entry_file_name(name)
    }

    fn encode(key: &GtKey, ground_truth: &ObjectGroundTruth) -> Vec<u8> {
        encode_entry(*key, &ground_truth.images)
    }

    fn decode(
        key: &GtKey,
        bytes: &[u8],
        (model, settings): (&ObjectModel, &MeasurementSettings),
    ) -> Option<Arc<ObjectGroundTruth>> {
        let images = decode_entry(bytes, *key)?;
        ObjectGroundTruth::from_images(model, settings, images).map(Arc::new)
    }
}

/// Hit/miss/build counters of a [`GroundTruthCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroundTruthStats {
    /// Lookups answered by a ground truth built in this process.
    pub hits: usize,
    /// Lookups answered by an entry decoded from the persistent store
    /// (cross-process reuse).
    pub disk_hits: usize,
    /// Lookups that had to render.
    pub misses: usize,
    /// Ground truths rendered by this process (`== misses`, kept separate
    /// for reporting symmetry).
    pub builds: usize,
    /// Lookups that waited on another lookup's in-flight render of the same
    /// ground truth instead of duplicating it (0 unless the cache was
    /// opened with `StoreOptions::coalesce` — the deployment service does).
    pub coalesced: usize,
    /// Distinct ground truths currently held in memory or indexed on disk.
    pub entries: usize,
    /// Entries indexed from the store directory when the cache was opened
    /// (decoded lazily on first lookup; 0 for in-memory caches).
    pub indexed_from_disk: usize,
    /// Remote operations attempted by a shared backend (0 otherwise).
    pub remote_ops: usize,
    /// Remote operations that failed after exhausting their retry budget.
    pub remote_errors: usize,
    /// Transient remote errors that were retried.
    pub retries: usize,
    /// Remote operations skipped because the remote was degraded.
    pub degraded_ops: usize,
}

/// A thread-safe, content-addressed store of object ground truths, shared by
/// every profiling call of a pipeline run (and, when opened over a
/// persistent backend, across processes and machines).
#[derive(Debug, Default)]
pub struct GroundTruthCache {
    store: KeyedStore<GtEntryCodec>,
}

impl GroundTruthCache {
    /// Creates an empty in-memory cache (no persistence;
    /// [`GroundTruthCache::flush`] is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a cache as the [`StoreOptions`] direct — a plain path opens the
    /// classic single-directory store; [`StoreOptions::shared`] layers a
    /// local directory over a fleet-shared remote; limits and read-only
    /// mode ride on the same builder.
    ///
    /// Opening indexes the entry files already present **by file name
    /// only** — an entry is read and decoded on its first lookup, so
    /// opening a large accumulated store is O(listing), not O(store size).
    /// GT entries are ~12 bytes/texel and grow with the probe resolution,
    /// so bounding this store via [`StoreOptions::with_limits`] matters
    /// even more than for the bake store; a pruned entry costs exactly one
    /// re-render on its next miss.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the backing store cannot be
    /// created or listed. Damaged entry files are not detected here
    /// (decoding is lazy); they cost one re-render at first lookup.
    pub fn open(options: impl Into<StoreOptions>) -> io::Result<Self> {
        Ok(Self { store: KeyedStore::open(options)? })
    }

    /// The primary local directory of a persistent cache (`None` when
    /// in-memory).
    pub fn dir(&self) -> Option<&Path> {
        self.store.options().primary_dir()
    }

    /// Current counters.
    pub fn stats(&self) -> GroundTruthStats {
        let stats = self.store.stats();
        GroundTruthStats {
            hits: stats.hits,
            disk_hits: stats.disk_hits,
            misses: stats.misses,
            builds: stats.misses,
            coalesced: stats.coalesced,
            entries: stats.entries,
            indexed_from_disk: stats.indexed,
            remote_ops: stats.remote_ops,
            remote_errors: stats.remote_errors,
            retries: stats.retries,
            degraded_ops: stats.degraded_ops,
        }
    }

    /// Total wall-clock time this cache spent rendering ground truths —
    /// the pipeline's `ground_truth_ms`. Exactly zero when every lookup was
    /// a hit.
    pub fn build_time(&self) -> Duration {
        self.store.build_time()
    }

    /// Returns the ground truth for `(model, settings)`, rendering and
    /// storing it on first request (tiled over `workers` pool threads, `0` =
    /// one per core; the worker count is not part of the key because it
    /// never changes the images). An entry indexed from the persistent
    /// store is read and decoded here, on its first lookup — outside the
    /// entry lock, so other profiling workers keep making progress during
    /// long reads/builds.
    ///
    /// Concurrent misses on the same key may both render (the lock is not
    /// held across the render, deliberately — renders are long); the result
    /// is identical either way because rendering is deterministic, and only
    /// one copy is kept.
    pub fn get_or_build(
        &self,
        model: &ObjectModel,
        settings: &MeasurementSettings,
        workers: usize,
    ) -> Arc<ObjectGroundTruth> {
        let key = (model_fingerprint(model), settings.views, settings.resolution);
        self.store.get_or_build(key, (model, settings), || {
            ObjectGroundTruth::build(model, settings, workers)
        })
    }

    /// Writes every ground truth rendered since the last flush to the
    /// backing store, returning how many entries were written (0 for
    /// in-memory or read-only caches). See
    /// [`nerflex_bake::KeyedStore::flush`] for the concurrency and
    /// atomicity guarantees.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered; entries flushed before the
    /// failure stay flushed.
    pub fn flush(&self) -> io::Result<usize> {
        self.store.flush()
    }

    /// Like [`GroundTruthCache::flush`], but attempts **every** dirty entry
    /// and collects per-entry failures instead of stopping at the first one.
    pub fn flush_report(&self) -> nerflex_bake::FlushReport {
        self.store.flush_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{measure_object, MeasurementContext};
    use nerflex_bake::{BakeConfig, StoreLimits};
    use nerflex_scene::object::CanonicalObject;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quick_settings() -> MeasurementSettings {
        MeasurementSettings { views: 2, resolution: 24, ..MeasurementSettings::default() }
    }

    /// A unique, self-cleaning temporary directory.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            Self(std::env::temp_dir().join(format!(
                "nerflex-gt-test-{tag}-{}-{}",
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

    #[test]
    fn file_names_round_trip() {
        let key = (0x2f1c_66aa_0194_5f10, 3, 96);
        assert_eq!(parse_entry_file_name(&entry_file_name(key)), Some(key));
        assert_eq!(parse_entry_file_name("garbage.nfgt"), None);
        assert_eq!(parse_entry_file_name("0123-v3.nfgt"), None);
        assert_eq!(parse_entry_file_name("0123-v3-r96-x.nfgt"), None);
        assert_eq!(parse_entry_file_name("0123-v3-r96.other"), None);
    }

    #[test]
    fn codec_round_trips_exact_bits() {
        let key = (42, 2, 8);
        let images = vec![
            Image::from_fn(8, 8, |x, y| Color::new(x as f32 * 0.1, y as f32 * 0.2, 0.5)),
            Image::from_fn(8, 8, |x, y| Color::gray((x * y) as f32 / 49.0)),
        ];
        let bytes = encode_entry(key, &images);
        let decoded = decode_entry(&bytes, key).expect("round trip");
        assert_eq!(decoded, images);
        // Wrong key, truncation and bit flips are all rejected.
        assert!(decode_entry(&bytes, (43, 2, 8)).is_none());
        assert!(decode_entry(&bytes[..bytes.len() - 9], key).is_none());
        let mut flipped = bytes.clone();
        flipped[30] ^= 0x10;
        assert!(decode_entry(&flipped, key).is_none());
    }

    #[test]
    fn hits_share_one_build_and_identical_images() {
        let cache = GroundTruthCache::new();
        let model = CanonicalObject::Hotdog.build();
        let settings = quick_settings();
        let first = cache.get_or_build(&model, &settings, 1);
        let again = cache.get_or_build(&model, &settings, 1);
        // A second independently generated copy of the same object is the
        // same content and therefore the same entry.
        let clone = cache.get_or_build(&CanonicalObject::Hotdog.build(), &settings, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds, stats.entries), (2, 1, 1, 1));
        assert!(Arc::ptr_eq(&first, &again) && Arc::ptr_eq(&first, &clone));
        assert!(cache.build_time() > Duration::ZERO);
        // Worker counts never affect the key (output bits are identical),
        // whether given directly or as a measurement context's width.
        let other = cache.get_or_build(&model, &settings, 4);
        assert!(Arc::ptr_eq(&first, &other), "worker count is not part of the key");
        let context =
            MeasurementContext { ground_truth: Some(&cache), workers: 4, ..Default::default() };
        let _ = measure_object(&model, &[BakeConfig::new(10, 3)], &settings, &context);
        assert_eq!(cache.stats().builds, 1, "a 4-worker measurement reuses the 1-worker entry");
        let mut finer = settings;
        finer.resolution = 32;
        let _ = cache.get_or_build(&model, &finer, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn flush_and_reopen_turn_builds_into_disk_hits() {
        let tmp = TempDir::new("roundtrip");
        let model = CanonicalObject::Chair.build();
        let settings = quick_settings();

        let cache = GroundTruthCache::open(&tmp.0).expect("open");
        assert_eq!(cache.stats().indexed_from_disk, 0);
        let built = cache.get_or_build(&model, &settings, 1);
        assert_eq!(cache.flush().expect("flush"), 1);
        assert_eq!(cache.flush().expect("clean flush"), 0);

        let reopened = GroundTruthCache::open(&tmp.0).expect("reopen");
        assert_eq!(reopened.stats().indexed_from_disk, 1);
        let loaded = reopened.get_or_build(&model, &settings, 1);
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (0, 1, 0));
        assert_eq!(reopened.build_time(), Duration::ZERO, "warm lookup renders nothing");
        // The persisted ground truth is bit-identical to the fresh build.
        assert_eq!(built.images, loaded.images);
        assert_eq!(built.poses.len(), loaded.poses.len());
    }

    #[test]
    fn damaged_entries_rebuild_and_repair() {
        let tmp = TempDir::new("damage");
        let model = CanonicalObject::Hotdog.build();
        let settings = quick_settings();
        let cache = GroundTruthCache::open(&tmp.0).expect("open");
        let built = cache.get_or_build(&model, &settings, 1);
        cache.flush().expect("flush");

        // Truncate the entry file; the reopened cache still indexes it but
        // the first lookup falls back to a fresh render.
        let key = (model_fingerprint(&model), settings.views, settings.resolution);
        let path = tmp.0.join(entry_file_name(key));
        let bytes = std::fs::read(&path).expect("read entry");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");

        let reopened = GroundTruthCache::open(&tmp.0).expect("reopen");
        assert_eq!(reopened.stats().indexed_from_disk, 1);
        let rebuilt = reopened.get_or_build(&model, &settings, 1);
        let stats = reopened.stats();
        assert_eq!((stats.disk_hits, stats.misses), (0, 1));
        assert_eq!(built.images, rebuilt.images, "re-render is bit-identical");
        // The next flush repairs the damaged file.
        assert_eq!(reopened.flush().expect("repair"), 1);
        let repaired = GroundTruthCache::open(&tmp.0).expect("open repaired");
        let _ = repaired.get_or_build(&model, &settings, 1);
        assert_eq!(repaired.stats().disk_hits, 1);
    }

    #[test]
    fn limits_prune_and_evicted_entries_rerender() {
        let tmp = TempDir::new("limits");
        let model = CanonicalObject::Hotdog.build();
        let settings = quick_settings();
        let cache = GroundTruthCache::open(&tmp.0).expect("open");
        let built = cache.get_or_build(&model, &settings, 1);
        cache.flush().expect("flush");

        // A zero age budget sweeps the persisted ground truth on open; the
        // next lookup re-renders it bit-identically.
        let options = StoreOptions::dir(&tmp.0)
            .with_limits(StoreLimits::default().with_max_age(std::time::Duration::ZERO));
        let pruned = GroundTruthCache::open(options).expect("open");
        assert_eq!(pruned.stats().indexed_from_disk, 0, "expired entry must not index");
        let rebuilt = pruned.get_or_build(&model, &settings, 1);
        assert_eq!(pruned.stats().misses, 1);
        assert_eq!(built.images, rebuilt.images);

        // A size budget large enough for the store keeps the entry.
        pruned.flush().expect("flush");
        let generous =
            StoreOptions::dir(&tmp.0).with_limits(StoreLimits::default().with_max_bytes(u64::MAX));
        let kept = GroundTruthCache::open(generous).expect("open");
        assert_eq!(kept.stats().indexed_from_disk, 1);
    }

    #[test]
    fn shared_store_serves_a_cold_local_dir_from_the_remote() {
        // Machine A renders against (local A, remote R); machine B with a
        // cold local dir sharing R re-renders nothing and reads identical
        // bits.
        let local_a = TempDir::new("shared-a");
        let local_b = TempDir::new("shared-b");
        let remote = TempDir::new("shared-remote");
        let model = CanonicalObject::Chair.build();
        let settings = quick_settings();

        let a =
            GroundTruthCache::open(StoreOptions::shared(&local_a.0, &remote.0)).expect("open A");
        let built = a.get_or_build(&model, &settings, 1);
        a.flush().expect("flush A");

        let b =
            GroundTruthCache::open(StoreOptions::shared(&local_b.0, &remote.0)).expect("open B");
        assert_eq!(b.stats().indexed_from_disk, 1, "cold local layer indexes the remote");
        let loaded = b.get_or_build(&model, &settings, 1);
        let stats = b.stats();
        assert_eq!((stats.disk_hits, stats.misses), (1, 0), "warm remote renders nothing");
        assert_eq!(b.build_time(), Duration::ZERO);
        assert_eq!(built.images, loaded.images, "remote round-trip is bit-identical");
    }

    #[test]
    fn in_memory_flush_is_a_noop() {
        let cache = GroundTruthCache::new();
        let _ = cache.get_or_build(&CanonicalObject::Hotdog.build(), &quick_settings(), 1);
        assert_eq!(cache.dir(), None);
        assert_eq!(cache.flush().expect("noop"), 0);
    }

    #[test]
    fn measurements_do_not_depend_on_the_ground_truth_source() {
        let tmp = TempDir::new("measure");
        let model = CanonicalObject::Hotdog.build();
        let settings = quick_settings();
        let configs = [BakeConfig::new(10, 3), BakeConfig::new(16, 5)];
        let measure = |ground_truth| {
            let context = MeasurementContext { ground_truth, ..MeasurementContext::default() };
            measure_object(&model, &configs, &settings, &context)
        };

        let direct = measure(None);
        let cold = GroundTruthCache::open(&tmp.0).expect("open");
        let first = measure(Some(&cold));
        cold.flush().expect("flush");
        let warm = GroundTruthCache::open(&tmp.0).expect("reopen");
        let second = measure(Some(&warm));
        assert_eq!(direct, first);
        assert_eq!(first, second);
        assert_eq!(warm.stats().misses, 0, "warm run renders no ground truth");
    }
}
