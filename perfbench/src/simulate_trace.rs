//! `simulate-trace`: decode a ~160 KB request trace and replay it on
//! `isaac` under every scheduling policy (the `cimc simulate`
//! defaults). Large JSON documents go through the same decoder that
//! `serve-warm` uses on small ones.

use std::sync::Arc;
use std::time::Instant;

use cim_mlc::api::{CachePolicy, Handler, Request, ResponseBody, SimulateRequest};
use cim_mlc::arch::presets;
use cim_mlc::compiler::{CacheStats, CompileCache, Compiler};
use cim_mlc::graph::{zoo, Graph};
use cim_mlc::traffic::{
    price_placement, simulate_priced, Batching, GeneratorKind, Placement, PolicyKind, SimConfig,
    TenantSpec, Trace, TraceSpec, TrafficReport, TrafficTiming,
};

use crate::layers::{CacheReadings, Layers, TimingCache};
use crate::{stats, Phase, Readings, Workload};

const JOBS: usize = 2;
/// The `cimc simulate` batching defaults.
const BATCHING: Batching = Batching {
    max_batch: 8,
    max_wait: 0,
};

pub struct SimulateTrace {
    /// The trace as a client would send it.
    text: String,
    trace: Trace,
    handler: Handler,
    /// The set-up op's reports, run-specific fields stripped.
    reference: Vec<TrafficReport>,
}

/// Requests kept from the generated trace: about 160 KB of JSON. Decode
/// time grows faster than linearly with the document, so a fixed count
/// keeps one seed's op as costly as another's.
const REQUESTS: usize = 1_300;

/// Three tenants in on/off bursts; the horizon leaves room for well over
/// [`REQUESTS`] arrivals.
fn spec(seed: u64) -> TraceSpec {
    let tenant = |name: &str, model: &str, priority| TenantSpec {
        name: name.to_owned(),
        model: model.to_owned(),
        weight: 1.0,
        priority,
        deadline: Some(30_000),
    };
    TraceSpec {
        name: "perfbench-bursty".to_owned(),
        kind: GeneratorKind::Bursty,
        seed,
        horizon: 8_000_000,
        mean_gap: 2_000.0,
        burst_len: 8,
        idle_gap: 76_000.0,
        tenants: vec![
            tenant("interactive", "lenet5", 2),
            tenant("assistant", "mlp", 1),
            tenant("vision", "resnet18", 0),
        ],
    }
}

fn simulate(handler: &Handler, trace: Trace) -> Result<Vec<TrafficReport>, String> {
    let request = Request::Simulate(SimulateRequest {
        trace: Some(trace),
        spec: None,
        arch: None,
        placement: None,
        policies: None,
        max_batch: None,
        max_wait: None,
        jobs: JOBS,
        cache: CachePolicy::Default,
    });
    match handler.handle(&request) {
        ResponseBody::Simulate { reports } => Ok(reports),
        ResponseBody::Error(e) => Err(e.message),
        other => Err(format!("not a simulate body: {other:?}")),
    }
}

/// The work `Handler::handle` does for the same request, one public
/// call at a time, with a fresh timed cache as the handler's default.
fn simulate_stepwise(
    trace: &Trace,
    op: u64,
    layers: &mut Layers,
    cache: &Arc<TimingCache>,
) -> Result<Vec<TrafficReport>, String> {
    trace.validate().map_err(|e| e.to_string())?;
    let arch = presets::by_name("isaac").ok_or("no isaac preset")?;
    let placement = Placement::balanced(&arch, &trace.spec).map_err(|e| e.to_string())?;
    let models = models(&trace.spec, op, layers)?;
    let cache = Arc::clone(cache) as Arc<dyn CompileCache>;
    let services = layers
        .time("traffic.price", op, || {
            price_placement(&arch, &placement, &models, Some(&cache), JOBS)
        })
        .map_err(|e| e.to_string())?;
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let started = Instant::now();
            let config = SimConfig {
                policy,
                batching: BATCHING,
            };
            let (mut report, _) = layers
                .time("traffic.engine", op, || {
                    simulate_priced(trace, &arch, &placement, &services, &config, JOBS)
                })
                .map_err(|e| e.to_string())?;
            report.timing = TrafficTiming {
                total_ms: started.elapsed().as_secs_f64() * 1e3,
                threads: JOBS,
            };
            Ok(report)
        })
        .collect()
}

/// Each distinct tenant model's graph, in first-appearance order.
fn models(spec: &TraceSpec, op: u64, layers: &mut Layers) -> Result<Vec<(String, Graph)>, String> {
    let mut models: Vec<(String, Graph)> = Vec::new();
    for tenant in &spec.tenants {
        if models.iter().all(|(name, _)| *name != tenant.model) {
            let graph = layers
                .time("graph.build", op, || zoo::by_name(&tenant.model))
                .ok_or_else(|| format!("unknown model {}", tenant.model))?;
            models.push((tenant.model.clone(), graph));
        }
    }
    Ok(models)
}

/// `(latency cycles, energy)` of each placed model compiled on its
/// slice of the chip: the schedules the simulation is priced from.
fn placed_schedules(trace: &Trace) -> Result<Vec<(f64, f64)>, String> {
    let arch = presets::by_name("isaac").ok_or("no isaac preset")?;
    let placement = Placement::balanced(&arch, &trace.spec).map_err(|e| e.to_string())?;
    placement
        .partitions
        .iter()
        .map(|partition| {
            let graph = zoo::by_name(&partition.model).ok_or("unknown model")?;
            let slice = arch.partition(partition.cores).map_err(|e| e.to_string())?;
            let compiled = Compiler::new()
                .compile(&graph, &slice)
                .map_err(|e| e.to_string())?;
            let metrics = compiled.metrics(&slice);
            Ok((metrics.latency_cycles, metrics.energy.total()))
        })
        .collect()
}

fn comparable(reports: &[TrafficReport]) -> Vec<TrafficReport> {
    reports.iter().map(TrafficReport::comparable).collect()
}

impl Workload for SimulateTrace {
    const TAIL_Q: f64 = 0.75;
    const INPUTS: usize = 1;

    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        let mut trace = spec(seed).generate().map_err(|e| e.to_string())?;
        if trace.requests.len() < REQUESTS {
            return Err(format!(
                "seed {seed} generated only {} requests",
                trace.requests.len()
            ));
        }
        trace.requests.truncate(REQUESTS);
        let text = trace.to_json();
        let handler = Handler::new();
        let decoded = Trace::from_json(&text).map_err(|e| e.to_string())?;
        let reference = comparable(&simulate(&handler, decoded)?);
        Ok(SimulateTrace {
            text,
            trace,
            handler,
            reference,
        })
    }

    fn run(&mut self, phase: &Phase, layers: &mut Layers) -> Readings {
        let mut readings = Readings::default();
        let mut op_ms = Vec::new();
        let mut decode_ms = Vec::new();
        let mut cache = CacheReadings::default();
        let started = Instant::now();
        while phase.more(op_ms.len()) {
            let op = op_ms.len() as u64;
            readings.attempted += 1;
            let timer = layers.start("op", op);
            let began = Instant::now();
            let decoded = layers.time("traffic.decode", op, || Trace::from_json(&self.text));
            decode_ms.push(began.elapsed().as_secs_f64() * 1e3);
            let reports = match decoded {
                Ok(trace) if layers.traced() => {
                    let timed = Arc::new(TimingCache::new());
                    let reports = simulate_stepwise(&trace, op, layers, &timed);
                    cache.absorb(timed.take(&CacheStats::default()));
                    reports
                }
                Ok(trace) => simulate(&self.handler, trace),
                Err(e) => Err(format!("decode: {e}")),
            };
            op_ms.push(began.elapsed().as_secs_f64() * 1e3);
            layers.stop(timer);
            layers.collect_spans();
            match reports {
                Ok(reports) if comparable(&reports) == self.reference => {}
                Ok(_) => readings.fail("reports differ from the first simulation of this trace"),
                Err(e) => readings.fail(e),
            }
        }
        let elapsed_s = started.elapsed().as_secs_f64();

        readings.attempted += 1;
        match Trace::from_json(&self.trace.to_json()) {
            Ok(round_trip) if round_trip == self.trace => {}
            Ok(_) => readings.fail("the trace changed in a JSON round trip"),
            Err(e) => readings.fail(format!("the trace does not decode: {e}")),
        }
        match placed_schedules(&self.trace) {
            Ok(schedules) => readings.schedules = schedules,
            Err(e) => readings.fail(format!("pricing check: {e}")),
        }
        readings.p50_ms = stats::median(&op_ms);
        readings.tail_ms = stats::tail(&op_ms, Self::TAIL_Q);
        readings.ops_per_s = stats::pass_rate(&[readings.p50_ms]);
        readings.notes.push(format!(
            "{} simulations of {} requests ({} bytes) in {elapsed_s:.2} s: p50 {:.3} ms, \
             decode p50 {:.3} ms",
            op_ms.len(),
            self.trace.requests.len(),
            self.text.len(),
            readings.p50_ms,
            stats::median(&decode_ms)
        ));
        if layers.traced() {
            let out = &mut readings.layers;
            let decode = stats::median(layers.samples("traffic.decode")) / 1e3;
            let engine = layers.samples("traffic.engine");
            out.insert("traffic.decode_ms", decode);
            out.insert(
                "traffic.decode_mb_s",
                self.text.len() as f64 / 1e6 / (decode / 1e3),
            );
            out.insert(
                "traffic.price_ms",
                stats::median(layers.samples("traffic.price")) / 1e3,
            );
            out.insert("traffic.engine_ms", stats::median(engine) / 1e3);
            out.insert(
                "traffic.requests_per_s",
                (self.trace.requests.len() * engine.len()) as f64
                    / (engine.iter().sum::<f64>() / 1e6),
            );
            out.insert(
                "graph.build_us",
                stats::median(layers.samples("graph.build")),
            );
            cache.report(out);
        }
        readings
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}
