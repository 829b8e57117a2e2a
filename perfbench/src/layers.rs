//! Timing of the program's public entry points from outside, for the
//! traced run.
//!
//! [`Layers`] times each call the benchmark makes into a module and, when
//! tracing, records it twice: as a sample under the layer's name (what
//! the per-layer metrics are computed from) and as a `bench` span in the
//! `cim-obs` collector, carrying the op id and the enclosing benchmark
//! span as its parent. The program's own `pass:*`, `pool:*` and `serve:*`
//! spans land in the same collector, so one export shows both.
//!
//! [`TimingCache`] does the same for the compile cache: it implements the
//! public `CompileCache` trait around a `MemoryCache`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use cim_mlc::compiler::{Artifact, CacheStats, CompileCache, Fingerprint, MemoryCache};
use cim_mlc::obs::{self, Key, Phase, SpanGuard, Trace};

const OP: Key<u64> = Key::new("op");
const PARENT: Key<String> = Key::new("parent");

/// Most events a traced run keeps for its export; later events are
/// counted but not kept, so a long traced run stays small.
const KEEP_EVENTS: usize = 50_000;

/// Microseconds since `started`.
fn us_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// Per-thread recorder of layer timings; inert unless tracing.
#[derive(Default)]
pub struct Layers {
    traced: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
    stack: Vec<&'static str>,
    spans: Trace,
    span_counts: BTreeMap<&'static str, usize>,
    spans_not_kept: usize,
}

/// An open timing; close it with [`Layers::stop`].
pub struct Timer {
    name: &'static str,
    started: Instant,
    _span: SpanGuard,
}

impl Layers {
    /// A recorder that records (`traced`) or only runs the calls.
    #[must_use]
    pub fn new(traced: bool) -> Self {
        Layers {
            traced,
            ..Layers::default()
        }
    }

    /// Whether this recorder records.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Opens a timing of `name` for op `op`.
    pub fn start(&mut self, name: &'static str, op: u64) -> Timer {
        let mut span = obs::span("bench", name);
        span.set(OP, op);
        if let Some(parent) = self.stack.last() {
            span.set(PARENT, *parent);
        }
        self.stack.push(name);
        Timer {
            name,
            started: Instant::now(),
            _span: span,
        }
    }

    /// Closes `timer`, returning its duration in microseconds.
    pub fn stop(&mut self, timer: Timer) -> f64 {
        let name = timer.name;
        self.stop_as(timer, name)
    }

    /// Closes `timer`, recording its duration under `name` — for calls
    /// whose layer is known only once they return.
    pub fn stop_as(&mut self, timer: Timer, name: &'static str) -> f64 {
        let us = us_since(timer.started);
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(timer.name), "timers close innermost first");
        self.record(name, us);
        us
    }

    /// Runs `f` as one timed call of `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let timer = self.start(name, op);
        let value = f();
        self.stop(timer);
        value
    }

    /// Records a duration under `name` (traced recorders only).
    fn record(&mut self, name: &'static str, value: f64) {
        if self.traced {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Every sample recorded under `name`.
    #[must_use]
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Takes the collector's buffered events, counting spans per
    /// category and keeping the events for export up to a cap. Call it
    /// between ops, when no span is open.
    pub fn collect_spans(&mut self) {
        if !self.traced {
            return;
        }
        let trace = obs::drain();
        for event in &trace.events {
            if matches!(event.phase, Phase::Begin | Phase::Complete) {
                *self.span_counts.entry(event.cat).or_default() += 1;
            }
        }
        self.spans.dropped += trace.dropped;
        // Every drain lists every thread that ever emitted.
        self.spans.threads = trace.threads;
        if self.spans.events.len() + trace.events.len() <= KEEP_EVENTS {
            self.spans.events.extend(trace.events);
        } else {
            self.spans_not_kept += trace.events.len();
        }
    }

    /// The kept spans, and a one-line summary of everything collected.
    #[must_use]
    pub fn spans(&self) -> (&Trace, String) {
        let counts: Vec<String> = self
            .span_counts
            .iter()
            .map(|(cat, n)| format!("{cat}:{n}"))
            .collect();
        let summary = format!(
            "spans {} ({} event(s) not kept, {} dropped)",
            counts.join(" "),
            self.spans_not_kept,
            self.spans.dropped
        );
        (&self.spans, summary)
    }

    /// Folds another thread's samples into this recorder.
    pub fn merge(&mut self, other: Layers) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }
}

/// A `MemoryCache` whose loads and stores are timed.
#[derive(Default)]
pub struct TimingCache {
    inner: MemoryCache,
    load_us: Mutex<Vec<f64>>,
    store_us: Mutex<Vec<f64>>,
}

/// What a [`TimingCache`] saw; see [`TimingCache::take`].
#[derive(Debug, Default, Clone)]
pub struct CacheReadings {
    /// Duration of every load, microseconds.
    pub load_us: Vec<f64>,
    /// Duration of every store, microseconds.
    pub store_us: Vec<f64>,
    /// Hit/miss/store counters.
    pub stats: CacheStats,
}

impl CacheReadings {
    /// Adds another op's readings to these.
    pub fn absorb(&mut self, other: CacheReadings) {
        self.load_us.extend(other.load_us);
        self.store_us.extend(other.store_us);
        self.stats.hits += other.stats.hits;
        self.stats.misses += other.stats.misses;
        self.stats.stores += other.stats.stores;
    }

    /// Adds the `cache.*` per-layer metrics.
    pub fn report(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("cache.load_us", crate::stats::median(&self.load_us));
        layers.insert("cache.store_us", crate::stats::median(&self.store_us));
        layers.insert("cache.hits", self.stats.hits as f64);
        layers.insert("cache.misses", self.stats.misses as f64);
        layers.insert("cache.stores", self.stats.stores as f64);
        layers.insert("cache.hit_ratio", self.stats.hit_rate());
    }
}

impl TimingCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        TimingCache::default()
    }

    /// Takes the timings recorded so far and the counters since `since`.
    pub fn take(&self, since: &CacheStats) -> CacheReadings {
        CacheReadings {
            load_us: std::mem::take(&mut *self.load_us.lock().expect("timing lock poisoned")),
            store_us: std::mem::take(&mut *self.store_us.lock().expect("timing lock poisoned")),
            stats: self.inner.stats().since(since),
        }
    }
}

impl CompileCache for TimingCache {
    fn load(&self, key: &Fingerprint) -> Option<Artifact> {
        let _span = obs::span("bench", "cache.load");
        let started = Instant::now();
        let found = self.inner.load(key);
        let us = us_since(started);
        self.load_us.lock().expect("timing lock poisoned").push(us);
        found
    }

    fn store(&self, key: &Fingerprint, artifact: &Artifact) -> bool {
        let _span = obs::span("bench", "cache.store");
        let started = Instant::now();
        let stored = self.inner.store(key, artifact);
        let us = us_since(started);
        self.store_us.lock().expect("timing lock poisoned").push(us);
        stored
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}
