//! Span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! workspace's public functions; nothing inside the program is
//! instrumented. The recorder is thread-local: the replay runs on one
//! worker, so every span it opens lands on the calling thread. With no
//! recorder installed, [`span`] is a branch on a thread-local `Option`.

use nerflex_bake::backend::{EntryMeta, StoreBackend};
use nerflex_bake::store::EntryCodec;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One closed span: name, start and end (ns since the recorder's epoch),
/// the index of its parent span and the request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs an empty recorder on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
        })
    });
}

/// Removes this thread's recorder and returns what it recorded.
pub fn finish() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    RECORDER.with(|r| {
        let recorder = r.borrow_mut().take().expect("trace::finish without trace::start");
        assert!(recorder.open.is_empty(), "spans still open at trace::finish");
        (recorder.spans, recorder.counters)
    })
}

/// Tags the spans opened from now on with `request`.
pub fn set_request(request: u64) {
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow_mut().as_mut() {
            recorder.request = request;
        }
    });
}

/// Adds `by` to a named counter (no-op without a recorder).
pub fn count(name: &'static str, by: u64) {
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow_mut().as_mut() {
            *recorder.counters.entry(name).or_insert(0) += by;
        }
    });
}

/// Runs `f` inside a span named `name`, child of the innermost open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let recorder = guard.as_mut()?;
        let index = recorder.spans.len();
        let start_ns = recorder.epoch.elapsed().as_nanos() as u64;
        let parent = recorder.open.last().copied();
        let request = recorder.request;
        recorder.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        recorder.open.push(index);
        Some(index)
    });
    let value = f();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let recorder = guard.as_mut().expect("recorder removed while a span was open");
            let end_ns = recorder.epoch.elapsed().as_nanos() as u64;
            recorder.spans[index].end_ns = end_ns;
            let closed = recorder.open.pop();
            debug_assert_eq!(closed, Some(index), "spans must close in stack order");
        });
    }
    value
}

/// Names of the spans a traced store records around its entry codec.
pub trait CodecSpans {
    const DECODE: &'static str;
    const ENCODE: &'static str;
}

impl CodecSpans for nerflex_bake::cache::BakeEntryCodec {
    const DECODE: &'static str = "bake.decode";
    const ENCODE: &'static str = "bake.encode";
}

impl CodecSpans for nerflex_profile::ground_truth::GtEntryCodec {
    const DECODE: &'static str = "gt.decode";
    const ENCODE: &'static str = "gt.encode";
}

/// An [`EntryCodec`] that delegates to `C` (same file names, same bytes)
/// and records a span around every encode and decode.
#[derive(Debug)]
pub struct TracedCodec<C>(PhantomData<C>);

impl<C: EntryCodec + CodecSpans> EntryCodec for TracedCodec<C> {
    type Key = C::Key;
    type Value = C::Value;
    type Context<'a> = C::Context<'a>;
    const EXTENSION: &'static str = C::EXTENSION;

    fn file_name(key: &Self::Key) -> String {
        C::file_name(key)
    }

    fn parse_file_name(name: &str) -> Option<Self::Key> {
        C::parse_file_name(name)
    }

    fn encode(key: &Self::Key, value: &Self::Value) -> Vec<u8> {
        span(C::ENCODE, || C::encode(key, value))
    }

    fn decode(key: &Self::Key, bytes: &[u8], ctx: Self::Context<'_>) -> Option<Arc<Self::Value>> {
        span(C::DECODE, || C::decode(key, bytes, ctx))
    }
}

/// A [`StoreBackend`] that delegates to `inner` and records a span around
/// every entry read and write, plus the bytes moved.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn StoreBackend>,
    read_span: &'static str,
    write_span: &'static str,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
}

impl TracedBackend {
    pub fn new(
        inner: Arc<dyn StoreBackend>,
        read_span: &'static str,
        write_span: &'static str,
    ) -> Self {
        Self {
            inner,
            read_span,
            write_span,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }
}

impl StoreBackend for TracedBackend {
    fn list(&self) -> io::Result<Vec<EntryMeta>> {
        self.inner.list()
    }

    fn list_prunable(&self) -> io::Result<Vec<EntryMeta>> {
        self.inner.list_prunable()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let bytes = span(self.read_span, || self.inner.read(name))?;
        self.bytes_read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        span(self.write_span, || self.inner.write_atomic(name, bytes))?;
        self.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn sweep_tmp(&self) -> io::Result<()> {
        self.inner.sweep_tmp()
    }

    fn describe(&self) -> String {
        format!("traced({})", self.inner.describe())
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, child)| span.duration_ns().saturating_sub(child))
        .collect()
}

/// Total time per span name, in ns.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for span in spans {
        *out.entry(span.name).or_insert(0) += span.duration_ns();
    }
    out
}
