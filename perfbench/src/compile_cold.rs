//! `compile-cold`: one caller compiles model@arch pairs with no cache
//! and one worker thread, the `cimc compile` default. The scheduler
//! passes do almost all the work; the cache and the wire do none.

use std::time::Instant;

use cim_mlc::api::{CachePolicy, CompileOutcome, CompileRequest, Handler, Request, ResponseBody};
use cim_mlc::arch::presets;
use cim_mlc::compiler::{CompileMetrics, CompileOptions, Pipeline, StageKind};
use cim_mlc::graph::zoo;

use crate::layers::Layers;
use crate::{stats, Phase, Readings, Rng, Workload};

/// All three computing modes (CM on `jia`, XBM on `isaac`/`puma`, WLM on
/// `table2`/`jain`/`isaac-wlm`), single- and multi-segment DPs:
/// `resnet152@isaac` has 6 segments and spends most of its time in `cg`,
/// `resnet101@isaac` has 1.
pub const PAIRS: [(&str, &str); 12] = [
    ("resnet34", "jia"),
    ("vgg11", "jia"),
    ("lenet5", "isaac"),
    ("resnet18", "isaac"),
    ("resnet50", "puma"),
    ("resnet101", "isaac"),
    ("vgg19", "isaac"),
    ("vit_base", "isaac"),
    ("resnet152", "isaac"),
    ("mlp", "table2"),
    ("vgg16", "jain"),
    ("vit_large", "isaac-wlm"),
];

/// Pairs whose generated flow fits `max_flow_ops`, so the functional
/// simulator can check it against the reference executor.
const VERIFIED: [(&str, &str); 3] = [("lenet5", "isaac"), ("lenet5", "jain"), ("mlp", "table2")];

pub struct CompileCold {
    handler: Handler,
    order: Vec<usize>,
    /// Each pair's metrics from the set-up pass; every repeat must match.
    reference: Vec<CompileMetrics>,
}

/// The request `cimc compile --model <model> --arch <arch> --no-cache`
/// sends.
pub fn request(model: &str, arch: &str, verify: bool, cache: CachePolicy) -> Request {
    Request::Compile(CompileRequest {
        model: model.to_owned(),
        arch: arch.to_owned(),
        mode: None,
        level: None,
        jobs: 1,
        schedule: false,
        flow: None,
        verify,
        dump_stage: None,
        cache,
        session: None,
    })
}

/// The compile outcome of `body`, or why there is none.
pub fn outcome(body: ResponseBody) -> Result<CompileOutcome, String> {
    match body {
        ResponseBody::Compile(outcome) => Ok(outcome),
        ResponseBody::Error(e) => Err(e.message),
        other => Err(format!("not a compile body: {other:?}")),
    }
}

fn compile(handler: &Handler, (model, arch): (&str, &str)) -> Result<CompileMetrics, String> {
    outcome(handler.handle(&request(model, arch, false, CachePolicy::Off))).map(|o| o.metrics)
}

/// The work `Handler::handle` does for the same request, one public call
/// at a time, so each `Session::step` is timed; returns the metrics and
/// the `cg` step's duration.
fn compile_stepwise(
    (model, arch): (&str, &str),
    op: u64,
    layers: &mut Layers,
) -> Result<(CompileMetrics, f64), String> {
    let graph = layers
        .time("graph.build", op, || zoo::by_name(model))
        .ok_or_else(|| format!("unknown model {model}"))?;
    let arch = presets::by_name(arch).ok_or_else(|| format!("unknown preset {arch}"))?;
    let options = CompileOptions {
        jobs: 1,
        ..CompileOptions::default()
    };
    let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
    let mut cg_us = 0.0;
    loop {
        let timer = layers.start("compiler.step", op);
        let more = session.step().map_err(|e| format!("compile error: {e}"));
        let layer = match session.artifact().kind() {
            StageKind::Staged => "compiler.stages",
            StageKind::Cg => "compiler.cg",
            StageKind::Mvm => "compiler.mvm",
            StageKind::Vvm => "compiler.vvm",
            StageKind::Source | StageKind::Codegen => "compiler.other",
        };
        if !more? {
            // The closing call runs no pass; time it under no layer.
            layers.stop_as(timer, "compiler.finished");
            break;
        }
        let us = layers.stop_as(timer, layer);
        if layer == "compiler.cg" {
            cg_us = us;
        }
    }
    let (artifact, _) = session.into_parts();
    let compiled = artifact
        .into_compiled(graph.name(), arch.name(), options)
        .map_err(|e| format!("compile error: {e}"))?;
    Ok((compiled.metrics(&arch), cg_us))
}

impl Workload for CompileCold {
    const TAIL_Q: f64 = 0.9;
    const INPUTS: usize = PAIRS.len();

    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        let handler = Handler::new();
        let order = Rng::new(seed, 0).permutation(PAIRS.len());
        let mut reference = vec![None; PAIRS.len()];
        for &pair in &order {
            reference[pair] = Some(compile(&handler, PAIRS[pair])?);
        }
        Ok(CompileCold {
            handler,
            order,
            reference: reference
                .into_iter()
                .map(|m| m.expect("every pair compiled"))
                .collect(),
        })
    }

    fn run(&mut self, phase: &Phase, layers: &mut Layers) -> Readings {
        let mut readings = Readings::default();
        let mut per_pair_ms = vec![Vec::new(); PAIRS.len()];
        let mut per_pair_cg_ms = vec![Vec::new(); PAIRS.len()];
        let mut all_ms = Vec::new();
        let mut op_us_total = 0.0;
        let started = Instant::now();
        // Whole passes over the list only, so every pair has the same
        // number of samples and the tail mixes them in fixed shares.
        while all_ms.len() % PAIRS.len() != 0 || phase.more(all_ms.len()) {
            let op = all_ms.len() as u64;
            let pair = self.order[all_ms.len() % PAIRS.len()];
            readings.attempted += 1;
            let timer = layers.start("op", op);
            let began = Instant::now();
            let result = if layers.traced() {
                compile_stepwise(PAIRS[pair], op, layers).map(|(metrics, cg_us)| {
                    per_pair_cg_ms[pair].push(cg_us / 1e3);
                    metrics
                })
            } else {
                compile(&self.handler, PAIRS[pair])
            };
            let ms = began.elapsed().as_secs_f64() * 1e3;
            op_us_total += layers.stop(timer);
            match result {
                Ok(metrics) if metrics == self.reference[pair] => {}
                Ok(_) => readings.fail(format!(
                    "{:?}: metrics differ from the first compile",
                    PAIRS[pair]
                )),
                Err(e) => readings.fail(format!("{:?}: {e}", PAIRS[pair])),
            }
            per_pair_ms[pair].push(ms);
            all_ms.push(ms);
            layers.collect_spans();
        }
        let elapsed_s = started.elapsed().as_secs_f64();

        let medians: Vec<f64> = per_pair_ms.iter().map(|ms| stats::median(ms)).collect();
        let list_ms: f64 = medians.iter().sum();
        readings.p50_ms = stats::geomean(&medians);
        readings.tail_ms = stats::tail(&all_ms, Self::TAIL_Q);
        readings.ops_per_s = stats::pass_rate(&medians);
        readings.schedules = self
            .reference
            .iter()
            .map(|m| (m.latency_cycles, m.energy.total()))
            .collect();
        readings.notes.push(format!(
            "{} compiles in {elapsed_s:.2} s; geomean of pair medians {:.3} ms, list {:.1} ms",
            all_ms.len(),
            readings.p50_ms,
            list_ms
        ));
        let mut ranked: Vec<usize> = (0..PAIRS.len()).collect();
        ranked.sort_by(|&a, &b| medians[b].total_cmp(&medians[a]));
        for pair in ranked {
            let (model, arch) = PAIRS[pair];
            let cg = if layers.traced() {
                format!(", cg {:9.3} ms", stats::median(&per_pair_cg_ms[pair]))
            } else {
                String::new()
            };
            readings.notes.push(format!(
                "{:>20} {:9.3} ms{cg}, {} segment(s), {} level",
                format!("{model}@{arch}"),
                medians[pair],
                self.reference[pair].segments,
                self.reference[pair].level
            ));
        }

        let verify_started = Instant::now();
        for (model, arch) in VERIFIED {
            readings.attempted += 1;
            match outcome(
                self.handler
                    .handle(&request(model, arch, true, CachePolicy::Off)),
            ) {
                Ok(o) if o.verified == Some(true) => {}
                Ok(o) => readings.fail(format!(
                    "{model}@{arch}: verification gave {:?}",
                    o.verified
                )),
                Err(e) => readings.fail(format!("{model}@{arch} --verify: {e}")),
            }
        }
        let verify_ms = verify_started.elapsed().as_secs_f64() * 1e3;

        if layers.traced() {
            let out = &mut readings.layers;
            out.insert(
                "graph.build_us",
                stats::median(layers.samples("graph.build")),
            );
            for (metric, layer) in [
                ("compiler.stages_us", "compiler.stages"),
                ("compiler.cg_us", "compiler.cg"),
                ("compiler.mvm_us", "compiler.mvm"),
                ("compiler.vvm_us", "compiler.vvm"),
            ] {
                out.insert(metric, stats::median(layers.samples(layer)));
            }
            let cg_total: f64 = layers.samples("compiler.cg").iter().sum();
            out.insert("compiler.cg_busy_frac", cg_total / op_us_total);
            let cg_max = per_pair_cg_ms
                .iter()
                .map(|ms| stats::median(ms))
                .fold(0.0, f64::max);
            out.insert("compiler.cg_max_ms", cg_max);
            let segments: usize = self.reference.iter().map(|m| m.segments).sum();
            out.insert("compiler.segments", segments as f64);
            out.insert("sim.verify_ms", verify_ms);
        }
        readings
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}
