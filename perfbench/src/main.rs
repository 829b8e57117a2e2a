//! The CIM-MLC benchmark: four seeded workloads driven through the
//! stack's public API, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md` beside this
//! package for why each workload exists and what each metric should
//! move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed or wrong
//! op makes the exit code non-zero.

mod compile_cold;
mod explore_dse;
mod layers;
mod serve_warm;
mod simulate_trace;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use layers::Layers;

/// `(name, unit, better)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("success_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("sched_cycles_geomean", "cycles", "lower"),
    ("sched_energy_geomean", "energy", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, in output order.
const PER_LAYER: [(&str, &str, &str); 37] = [
    ("graph.build_us", "us", "lower"),
    ("compiler.stages_us", "us", "lower"),
    ("compiler.cg_us", "us", "lower"),
    ("compiler.mvm_us", "us", "lower"),
    ("compiler.vvm_us", "us", "lower"),
    ("compiler.cg_busy_frac", "frac", "lower"),
    ("compiler.cg_max_ms", "ms", "lower"),
    ("compiler.segments", "count", "lower"),
    ("cache.fingerprint_us", "us", "lower"),
    ("cache.load_us", "us", "lower"),
    ("cache.store_us", "us", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.hit_ratio", "frac", "higher"),
    ("api.parse_us", "us", "lower"),
    ("api.handle_us", "us", "lower"),
    ("api.render_us", "us", "lower"),
    ("api.decode_us", "us", "lower"),
    ("serve.client_p50_ms", "ms", "lower"),
    ("serve.server_p50_ms", "ms", "lower"),
    ("serve.gap_p50_ms", "ms", "lower"),
    ("serve.gap_p90_ms", "ms", "lower"),
    ("serve.queue_wait_mean_us", "us", "lower"),
    ("serve.pool_busy_frac", "frac", "lower"),
    ("serve.protocol_errors", "count", "lower"),
    ("serve.overloaded", "count", "lower"),
    ("traffic.decode_ms", "ms", "lower"),
    ("traffic.decode_mb_s", "MB/s", "higher"),
    ("traffic.price_ms", "ms", "lower"),
    ("traffic.engine_ms", "ms", "lower"),
    ("traffic.requests_per_s", "1/s", "higher"),
    ("dse.candidates_per_s", "1/s", "higher"),
    ("dse.unique_candidates", "count", "higher"),
    ("dse.cache_hit_ratio", "frac", "higher"),
    ("sim.verify_ms", "ms", "lower"),
    ("obs.overhead_frac", "frac", "lower"),
];

/// Times the set-up is repeated in an untraced run; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;

/// Where traced runs write their span export.
const OUT_DIR: &str = ".bench_out";

/// One workload: set up from a seed, run ops for a while, tear down.
pub trait Workload: Sized {
    /// Percentile reported as `op_tail_ms`.
    const TAIL_Q: f64;
    /// Distinct inputs every phase must run at least once.
    const INPUTS: usize;

    /// Builds the inputs from `seed` and brings the system to its
    /// measured state. `traced` swaps in the timing cache where the
    /// workload has one.
    fn setup(seed: u64, traced: bool) -> Result<Self, String>;

    /// Runs ops until `phase.until` and at least `phase.min_ops`, then
    /// checks every output.
    fn run(&mut self, phase: &Phase, layers: &mut Layers) -> Readings;

    /// Stops whatever the set-up started.
    fn teardown(self) -> Result<(), String>;
}

/// When a measured phase ends.
pub struct Phase {
    /// Stop starting new ops after this instant…
    pub until: Instant,
    /// …once at least this many have completed.
    pub min_ops: usize,
}

impl Phase {
    /// Whether an op numbered `done` (completed so far) should start.
    #[must_use]
    pub fn more(&self, done: usize) -> bool {
        done < self.min_ops || Instant::now() < self.until
    }
}

/// What one measured phase yields.
#[derive(Default)]
pub struct Readings {
    /// Ops started.
    pub attempted: u64,
    /// One line per failed or wrong op (or failed check).
    pub failures: Vec<String>,
    /// The workload's per-op median latency.
    pub p50_ms: f64,
    /// The workload's tail latency at [`Workload::TAIL_Q`].
    pub tail_ms: Option<f64>,
    /// Ops completed per second (see [`stats::pass_rate`]).
    pub ops_per_s: f64,
    /// `(latency cycles, energy)` of the schedules the ops produced.
    pub schedules: Vec<(f64, f64)>,
    /// Per-layer metrics (traced phases only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Readings {
    /// Records a failure message (the first few are printed).
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }
}

/// SplitMix64: the benchmark's own seeded generator, so a change to the
/// program's RNG cannot change the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `0..n` in a seeded order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <compile-cold|serve-warm|explore-dse|simulate-trace> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "compile-cold" => measure::<compile_cold::CompileCold>(&args),
        "serve-warm" => measure::<serve_warm::ServeWarm>(&args),
        "explore-dse" => measure::<explore_dse::ExploreDse>(&args),
        "simulate-trace" => measure::<simulate_trace::SimulateTrace>(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Runs one workload and prints its report; returns whether every op
/// was correct.
fn measure<W: Workload>(args: &Args) -> Result<bool, String> {
    println!(
        "workload: {} (seed {}, {} s)",
        args.workload, args.seed, args.seconds
    );
    println!("host: {}", host());
    let (readings, metrics) = if args.trace {
        traced_run::<W>(args)?
    } else {
        untraced_run::<W>(args)?
    };
    for note in &readings.notes {
        println!("  {note}");
    }
    for failure in readings.failures.iter().take(10) {
        eprintln!("FAILED: {failure}");
    }
    let failed = readings.failures.len() as u64;
    let attempted = readings.attempted.max(1);
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn untraced_run<W: Workload>(args: &Args) -> Result<(Readings, Metrics), String> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = workload.take() {
            W::teardown(previous)?;
        }
        let started = Instant::now();
        workload = Some(W::setup(args.seed, false)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");
    let phase = Phase {
        until: Instant::now() + Duration::from_secs_f64(args.seconds),
        min_ops: W::INPUTS.max(stats::min_samples_for(W::TAIL_Q)),
    };
    let mut readings = workload.run(&phase, &mut Layers::new(false));
    W::teardown(workload)?;

    let tail_ms = readings.tail_ms.unwrap_or_else(|| {
        readings.fail(format!("too few ops for a p{} tail", W::TAIL_Q * 100.0));
        0.0
    });
    let cycles: Vec<f64> = readings.schedules.iter().map(|s| s.0).collect();
    let energy: Vec<f64> = readings.schedules.iter().map(|s| s.1).collect();
    let failed = readings.failures.len() as f64;
    let values = [
        stats::median(&setup_s),
        1.0 - failed / readings.attempted.max(1) as f64,
        peak_rss_mb(),
        readings.p50_ms,
        tail_ms,
        readings.ops_per_s,
        stats::geomean(&cycles),
        stats::geomean(&energy),
    ];
    readings.notes.push(format!(
        "set-up {:?} s (median of {SETUP_REPEATS}); {} op(s)",
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        readings.attempted
    ));
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| (name, value, unit))
        .collect();
    Ok((readings, metrics))
}

/// Half the time untraced, half traced: the per-layer metrics come from
/// the traced half, and the two halves' p50s give the tracing overhead.
fn traced_run<W: Workload>(args: &Args) -> Result<(Readings, Metrics), String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut plain = W::setup(args.seed, false)?;
    let phase = Phase {
        until: Instant::now() + half,
        min_ops: W::INPUTS,
    };
    let untraced = plain.run(&phase, &mut Layers::new(false));
    W::teardown(plain)?;

    let mut workload = W::setup(args.seed, true)?;
    drop(cim_mlc::obs::drain());
    cim_mlc::obs::enable();
    let phase = Phase {
        until: Instant::now() + half,
        min_ops: W::INPUTS,
    };
    let mut layers = Layers::new(true);
    let mut readings = workload.run(&phase, &mut layers);
    cim_mlc::obs::disable();
    W::teardown(workload)?;
    layers.collect_spans();

    readings.failures.extend(untraced.failures);
    readings.attempted += untraced.attempted;
    let overhead = (readings.p50_ms - untraced.p50_ms) / untraced.p50_ms;
    readings.layers.insert("obs.overhead_frac", overhead);
    readings.notes.push(format!(
        "| {:<14} | p50 w/o tracing {:>10.3} ms | p50 w/ tracing {:>10.3} ms | overhead {:>+7.2}% |",
        args.workload,
        untraced.p50_ms,
        readings.p50_ms,
        overhead * 100.0
    ));
    readings.notes.push(export_spans(args, &layers));

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            (
                name,
                readings.layers.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect();
    Ok((readings, metrics))
}

/// Writes the traced half's kept spans as a Chrome trace.
fn export_spans(args: &Args, layers: &Layers) -> String {
    let (spans, summary) = layers.spans();
    let path = format!("{OUT_DIR}/{}-seed{}.trace.json", args.workload, args.seed);
    let json = cim_mlc::obs::chrome_trace_json(spans);
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => format!("{summary} -> {path}"),
        Err(e) => format!("{summary}; not written: {e}"),
    }
}

/// Cores, CPU model, compiler and build profile behind a result.
fn host() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "nproc={cores} cpu=\"{cpu}\" rustc=\"{}\" profile=\"{}\"",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    )
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    #[test]
    fn benchmark_json_declares_every_metric() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared_names = declared.matches("\"name\": ").count();
        assert_eq!(
            declared_names,
            END_TO_END.len() + PER_LAYER.len() + 4,
            "4 workloads"
        );
    }
}
