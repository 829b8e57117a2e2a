//! `explore-dse`: one hill-climb exploration of `resnet18` per op,
//! scored on serving p99 latency and energy, with a fresh in-memory
//! cache per op (the `cimc explore` default). Exercises `cim-dse`, the
//! ordered thread pool, many small compiles with about a third of the
//! cache lookups hitting, and the traffic engine for every candidate.

use std::sync::Arc;
use std::time::Instant;

use cim_mlc::api::{CachePolicy, ExploreRequest, Handler, Request, ResponseBody};
use cim_mlc::compiler::{CacheStats, CompileCache};
use cim_mlc::dse::{DseCandidate, DseReport};

use crate::layers::{CacheReadings, Layers, TimingCache};
use crate::{stats, Phase, Readings, Workload};

const BUDGET: usize = 400;
const JOBS: usize = 2;
/// Strategy seeds per run, drawn from the workload seed. How much one
/// exploration costs depends on which points its seed visits (±10%), so
/// a run averages over several.
const STRATEGY_SEEDS: u64 = 4;

pub struct ExploreDse {
    seeds: Vec<u64>,
    /// Each strategy seed's set-up report, run-specific fields
    /// stripped; every op with that seed must match it.
    reference: Vec<DseReport>,
}

fn explore(handler: &Handler, seed: u64) -> Result<DseReport, String> {
    let request = Request::Explore(ExploreRequest {
        model: Some("resnet18".to_owned()),
        space: None,
        strategy: Some("hill-climb".to_owned()),
        objective: Some("p99_latency,energy".to_owned()),
        budget: Some(BUDGET),
        seed: Some(seed),
        jobs: JOBS,
        cache: CachePolicy::Default,
        trace: None,
        trace_spec: None,
        policy: None,
    });
    match handler.handle(&request) {
        ResponseBody::Explore { report } => Ok(report),
        ResponseBody::Error(e) => Err(e.message),
        other => Err(format!("not an explore body: {other:?}")),
    }
}

/// `a` is at least as good as `b` everywhere and better somewhere
/// (objectives are direction-adjusted: lower is better).
fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// Why `report` is wrong, if it is.
fn check(report: &DseReport, reference: &DseReport) -> Option<String> {
    if report.comparable() != *reference {
        return Some("report differs from the first exploration with this seed".to_owned());
    }
    for &i in &report.front {
        let point = &report.candidates[i];
        if let Some(better) = report
            .candidates
            .iter()
            .find(|c| dominates(&c.objectives, &point.objectives))
        {
            return Some(format!(
                "front point {} is dominated by {}",
                point.point.key(),
                better.point.key()
            ));
        }
    }
    None
}

impl Workload for ExploreDse {
    const TAIL_Q: f64 = 0.75;
    const INPUTS: usize = 1;

    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        let seeds: Vec<u64> = (0..STRATEGY_SEEDS)
            .map(|i| seed.wrapping_mul(STRATEGY_SEEDS).wrapping_add(i))
            .collect();
        let handler = Handler::new();
        let reference = seeds
            .iter()
            .map(|&s| explore(&handler, s).map(|r| r.comparable()))
            .collect::<Result<Vec<_>, _>>()?;
        if reference.iter().any(|r| r.front.is_empty()) {
            return Err("an exploration found no design point".to_owned());
        }
        Ok(ExploreDse { seeds, reference })
    }

    fn run(&mut self, phase: &Phase, layers: &mut Layers) -> Readings {
        let mut readings = Readings::default();
        let mut per_seed_ms = vec![Vec::new(); self.seeds.len()];
        let mut op_ms = Vec::new();
        let mut cache = CacheReadings::default();
        let mut unique = 0usize;
        let started = Instant::now();
        while op_ms.len() % self.seeds.len() != 0 || phase.more(op_ms.len()) {
            let op = op_ms.len() as u64;
            let which = op_ms.len() % self.seeds.len();
            readings.attempted += 1;
            // A fresh cache per op either way; the traced run times it.
            let timed = layers.traced().then(|| Arc::new(TimingCache::new()));
            let handler = match &timed {
                Some(timed) => {
                    Handler::with_shared_cache(Arc::clone(timed) as Arc<dyn CompileCache>)
                }
                None => Handler::new(),
            };
            let began = Instant::now();
            let report = layers.time("api.handle", op, || explore(&handler, self.seeds[which]));
            let ms = began.elapsed().as_secs_f64() * 1e3;
            per_seed_ms[which].push(ms);
            op_ms.push(ms);
            match report {
                Ok(report) => {
                    unique += report.candidates.len();
                    if let Some(e) = check(&report, &self.reference[which]) {
                        readings.fail(format!("seed {}: {e}", self.seeds[which]));
                    }
                }
                Err(e) => readings.fail(e),
            }
            if let Some(timed) = timed {
                cache.absorb(timed.take(&CacheStats::default()));
            }
            layers.collect_spans();
        }
        let elapsed_s = started.elapsed().as_secs_f64();

        let medians: Vec<f64> = per_seed_ms.iter().map(|ms| stats::median(ms)).collect();
        readings.p50_ms = stats::geomean(&medians);
        readings.tail_ms = stats::tail(&op_ms, Self::TAIL_Q);
        readings.ops_per_s = stats::pass_rate(&medians);
        // The best latency and the best energy each search reached: a
        // search that looks at less finds worse ones.
        let best = |report: &DseReport, f: fn(&DseCandidate) -> f64| {
            report
                .candidates
                .iter()
                .map(f)
                .fold(f64::INFINITY, f64::min)
        };
        readings.schedules = self
            .reference
            .iter()
            .map(|r| {
                (
                    best(r, |c| c.metrics.latency_cycles),
                    best(r, |c| c.metrics.energy_total),
                )
            })
            .collect();
        readings.notes.push(format!(
            "{} explorations in {elapsed_s:.2} s: geomean of seed medians {:.3} ms",
            op_ms.len(),
            readings.p50_ms
        ));
        for (which, report) in self.reference.iter().enumerate() {
            readings.notes.push(format!(
                "seed {:>4}: {:9.3} ms, {} unique candidate(s) of {} charged, front of {}, \
                 best score {}",
                self.seeds[which],
                medians[which],
                report.candidates.len(),
                report.proposed,
                report.front.len(),
                report.best().map_or(f64::NAN, |c| c.score)
            ));
        }
        if layers.traced() {
            let out = &mut readings.layers;
            out.insert("api.handle_us", stats::median(layers.samples("api.handle")));
            out.insert(
                "dse.candidates_per_s",
                unique as f64 / (op_ms.iter().sum::<f64>() / 1e3),
            );
            let per_op = self
                .reference
                .iter()
                .map(|r| r.candidates.len())
                .sum::<usize>() as f64
                / self.reference.len() as f64;
            out.insert("dse.unique_candidates", per_op);
            out.insert("dse.cache_hit_ratio", cache.stats.hit_rate());
            cache.report(out);
        }
        readings
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}
