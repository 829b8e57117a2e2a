//! `serve-warm`: a closed loop of two clients, each on its own TCP
//! connection to an in-process `run_tcp` server whose shared memory
//! cache already holds every pair. The wire, the JSON API and the cache
//! hit path do all the work; the scheduler passes do none.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use cim_mlc::api::{CachePolicy, ErrorKind, Handler, RequestEnvelope, Response, ResponseBody};
use cim_mlc::arch::presets;
use cim_mlc::compiler::cache::source_fingerprint;
use cim_mlc::compiler::{CacheStats, CompileCache, CompileMetrics, MemoryCache};
use cim_mlc::graph::zoo;
use cim_mlc::loadtest::{fetch_metrics, send_shutdown};
use cim_mlc::obs::MetricsSnapshot;
use cim_mlc::serve::{run_tcp, ServeOptions};

use crate::compile_cold::{outcome, request};
use crate::layers::{Layers, TimingCache};
use crate::{stats, Phase, Readings, Rng, Workload};

/// Small to large models over every computing mode; `resnet152@isaac`
/// is the costliest cold compile, so a miss on it would show.
const PAIRS: [(&str, &str); 8] = [
    ("lenet5", "isaac"),
    ("mlp", "jain"),
    ("resnet18", "isaac"),
    ("resnet50", "puma"),
    ("vgg16", "jain"),
    ("vit_base", "isaac"),
    ("vit_large", "isaac-wlm"),
    ("resnet152", "isaac"),
];
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

pub struct ServeWarm {
    seed: u64,
    addr: String,
    server: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
    /// The server's cache, when timed (traced set-up only).
    timed_cache: Option<Arc<TimingCache>>,
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one line with a single write and waits for one line back.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One request of the measured loop.
struct Sample {
    pair: usize,
    line: String,
    client_ms: f64,
    server_ms: f64,
}

/// Metrics of each pair compiled in-process without a cache: what every
/// served response must match.
fn reference() -> &'static Result<Vec<CompileMetrics>, String> {
    static REFERENCE: OnceLock<Result<Vec<CompileMetrics>, String>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let handler = Handler::new();
        PAIRS
            .iter()
            .map(|(model, arch)| {
                outcome(handler.handle(&request(model, arch, false, CachePolicy::Off)))
                    .map(|o| o.metrics)
            })
            .collect()
    })
}

fn envelope_line(id: u64, pair: usize) -> String {
    let (model, arch) = PAIRS[pair];
    let mut line =
        RequestEnvelope::new(id, request(model, arch, false, CachePolicy::Default)).to_json();
    line.push('\n');
    line
}

/// Why `reply` to request `id` for `pair` is wrong, if it is; counts
/// protocol errors and overload answers on the way.
fn check(reply: &Response, id: u64, pair: usize, counts: &mut (u64, u64)) -> Option<String> {
    if reply.id != id {
        return Some(format!("response id {} for request {id}", reply.id));
    }
    match &reply.body {
        ResponseBody::Compile(o) if o.warm() != Some(true) => {
            Some(format!("{:?} was not served warm", PAIRS[pair]))
        }
        ResponseBody::Compile(o) => match reference() {
            Ok(reference) if o.metrics == reference[pair] => None,
            Ok(_) => Some(format!(
                "{:?}: served metrics differ from a local compile",
                PAIRS[pair]
            )),
            Err(e) => Some(format!("local reference compile failed: {e}")),
        },
        ResponseBody::Overloaded { .. } => {
            counts.1 += 1;
            Some("overloaded".to_owned())
        }
        ResponseBody::Error(e) => {
            if e.kind == ErrorKind::Protocol {
                counts.0 += 1;
            }
            Some(e.message.clone())
        }
        other => Some(format!("unexpected body {other:?}")),
    }
}

/// Sum and count of the pool's queue-wait histogram, and its busy time.
fn pool_counters(snapshot: &MetricsSnapshot) -> (f64, f64, f64) {
    let wait = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "pool.queue_wait_us");
    let busy = snapshot.counters.iter().find(|c| c.name == "pool.busy_us");
    (
        wait.map_or(0.0, |h| h.sum as f64),
        wait.map_or(0.0, |h| h.count as f64),
        busy.map_or(0.0, |c| c.value as f64),
    )
}

impl Workload for ServeWarm {
    const TAIL_Q: f64 = 0.9;
    const INPUTS: usize = 1;

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let timed_cache = traced.then(|| Arc::new(TimingCache::new()));
        let cache: Arc<dyn CompileCache> = match &timed_cache {
            Some(timed) => Arc::clone(timed) as Arc<dyn CompileCache>,
            None => Arc::new(MemoryCache::new()),
        };
        let options = ServeOptions {
            workers: WORKERS,
            metrics: traced,
            ..ServeOptions::default()
        };
        let handler = Handler::with_shared_cache(cache);
        let server = std::thread::Builder::new()
            .name("perfbench-server".to_owned())
            .spawn(move || run_tcp(handler, &listener, &options))
            .map_err(|e| format!("spawn server: {e}"))?;
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(&addr))
            .collect::<Result<Vec<_>, _>>();
        let mut workload = ServeWarm {
            seed,
            addr,
            server,
            clients: Vec::new(),
            timed_cache,
        };
        match clients {
            Ok(clients) => workload.clients = clients,
            Err(e) => {
                let _ = workload.teardown();
                return Err(e);
            }
        }
        for (pair, name) in PAIRS.iter().enumerate() {
            let warmed = workload.clients[0]
                .call(&envelope_line(u64::MAX - pair as u64, pair))
                .and_then(|line| Response::from_json(&line))
                .and_then(|reply| outcome(reply.body));
            if let Err(e) = warmed {
                let _ = workload.teardown();
                return Err(format!("warming {name:?}: {e}"));
            }
        }
        Ok(workload)
    }

    fn run(&mut self, phase: &Phase, layers: &mut Layers) -> Readings {
        let mut readings = Readings::default();
        let traced = layers.traced();
        let pool_before = if traced {
            fetch_metrics(&self.addr).ok()
        } else {
            None
        };
        let cache_before = self
            .timed_cache
            .as_ref()
            .map(|c| c.take(&CacheStats::default()).stats);
        let completed = AtomicUsize::new(0);
        let started = Instant::now();
        let seed = self.seed;
        let per_client: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let completed = &completed;
                    scope.spawn(move || {
                        let mut rng = Rng::new(seed, 1 + c as u64);
                        let mut client_layers = Layers::new(traced);
                        let mut samples = Vec::new();
                        let mut failures = Vec::new();
                        let mut counts = (0, 0);
                        let mut n = 0u64;
                        while phase.more(completed.load(Ordering::Relaxed)) {
                            let id = ((c as u64) << 32) | n;
                            n += 1;
                            let pair = rng.below(PAIRS.len());
                            let line = envelope_line(id, pair);
                            let timer = client_layers.start("serve.request", id);
                            let began = Instant::now();
                            let reply = client.call(&line);
                            let client_ms = began.elapsed().as_secs_f64() * 1e3;
                            client_layers.stop(timer);
                            completed.fetch_add(1, Ordering::Relaxed);
                            let reply = match reply.and_then(|l| Response::from_json(&l)) {
                                Ok(reply) => reply,
                                Err(e) => {
                                    failures.push(e);
                                    // The connection's state is unknown now.
                                    break;
                                }
                            };
                            if let Some(e) = check(&reply, id, pair, &mut counts) {
                                failures.push(e);
                            }
                            samples.push(Sample {
                                pair,
                                line,
                                client_ms,
                                server_ms: reply.elapsed_ms,
                            });
                        }
                        (samples, failures, counts, client_layers, n)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed_s = started.elapsed().as_secs_f64();

        let mut samples = Vec::new();
        let mut counts = (0, 0);
        for (client_samples, failures, (protocol, overloaded), client_layers, sent) in per_client {
            samples.extend(client_samples);
            readings.failures.extend(failures);
            readings.attempted += sent;
            counts.0 += protocol;
            counts.1 += overloaded;
            layers.merge(client_layers);
        }
        let client_ms: Vec<f64> = samples.iter().map(|s| s.client_ms).collect();
        let server_ms: Vec<f64> = samples.iter().map(|s| s.server_ms).collect();
        readings.p50_ms = stats::median(&client_ms);
        readings.tail_ms = stats::tail(&client_ms, Self::TAIL_Q);
        readings.ops_per_s = samples.len() as f64 / elapsed_s;
        if let Ok(reference) = reference() {
            readings.schedules = reference
                .iter()
                .map(|m| (m.latency_cycles, m.energy.total()))
                .collect();
        }
        let gaps = stats::gaps(&client_ms, &server_ms);
        readings.notes.push(format!(
            "{} requests in {elapsed_s:.2} s over {CLIENTS} connections: client p50 {:.3} ms, \
             server p50 {:.3} ms, gap p50 {:.3} ms",
            samples.len(),
            readings.p50_ms,
            stats::median(&server_ms),
            stats::median(&gaps)
        ));

        if traced {
            let pool = pool_before.zip(fetch_metrics(&self.addr).ok());
            if pool.is_none() {
                readings.fail("metrics scrape failed");
            }
            let out = &mut readings.layers;
            out.insert("serve.client_p50_ms", readings.p50_ms);
            out.insert("serve.server_p50_ms", stats::median(&server_ms));
            out.insert("serve.gap_p50_ms", stats::median(&gaps));
            out.insert("serve.gap_p90_ms", stats::tail(&gaps, 0.9).unwrap_or(0.0));
            out.insert("serve.protocol_errors", counts.0 as f64);
            out.insert("serve.overloaded", counts.1 as f64);
            if let Some((before, after)) = pool {
                let (wait0, jobs0, busy0) = pool_counters(&before);
                let (wait1, jobs1, busy1) = pool_counters(&after);
                out.insert(
                    "serve.queue_wait_mean_us",
                    (wait1 - wait0) / (jobs1 - jobs0).max(1.0),
                );
                out.insert(
                    "serve.pool_busy_frac",
                    (busy1 - busy0) / (WORKERS as f64 * elapsed_s * 1e6),
                );
            }
            if let (Some(cache), Some(before)) = (&self.timed_cache, cache_before) {
                cache.take(&before).report(out);
            }
            self.replay(&samples, layers);
            let out = &mut readings.layers;
            for (metric, layer) in [
                ("api.parse_us", "api.parse"),
                ("api.handle_us", "api.handle"),
                ("api.render_us", "api.render"),
                ("api.decode_us", "api.decode"),
                ("graph.build_us", "graph.build"),
                ("cache.fingerprint_us", "cache.fingerprint"),
            ] {
                out.insert(metric, stats::median(layers.samples(layer)));
            }
            if let Some(cache) = &self.timed_cache {
                // The replay's own cache traffic is not the server's.
                drop(cache.take(&CacheStats::default()));
            }
        }
        readings
    }

    fn teardown(self) -> Result<(), String> {
        drop(self.clients);
        send_shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"))?;
        match self.server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

impl ServeWarm {
    /// Replays the measured requests in-process, one public call at a
    /// time, against a handler sharing the server's (warm) cache.
    fn replay(&self, samples: &[Sample], layers: &mut Layers) {
        let Some(cache) = &self.timed_cache else {
            return;
        };
        let handler = Handler::with_shared_cache(Arc::clone(cache) as Arc<dyn CompileCache>);
        for (op, sample) in samples.iter().enumerate() {
            let op = op as u64;
            let timer = layers.start("replay", op);
            let Ok(envelope) = layers.time("api.parse", op, || {
                RequestEnvelope::from_json(sample.line.trim())
            }) else {
                layers.stop(timer);
                continue;
            };
            let body = layers.time("api.handle", op, || handler.handle(&envelope.request));
            let json = layers.time("api.render", op, || {
                Response::new(envelope.id, 0.0, body).to_json()
            });
            let _ = layers.time("api.decode", op, || Response::from_json(&json));
            let (model, arch) = PAIRS[sample.pair];
            if let (Some(graph), Some(arch)) = (
                layers.time("graph.build", op, || zoo::by_name(model)),
                presets::by_name(arch),
            ) {
                layers.time("cache.fingerprint", op, || {
                    source_fingerprint(&graph, &arch)
                });
            }
            layers.stop(timer);
        }
    }
}
