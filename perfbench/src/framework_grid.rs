//! `framework_grid`: `run_framework(FrameworkConfig::planar(0.3, seed))` on
//! `grid_with_noise(2%)` graphs, then each leader solves its cluster
//! exactly and cut-edge conflicts are resolved (the Theorem 1.2 pipeline).
//! Also home of the per-layer metrics both framework workloads share.

use std::time::Instant;

use lcg_congest::{Model, Network};
use lcg_core::framework::{run_framework, FrameworkConfig, FrameworkOutcome};
use lcg_graph::{gen, Graph};

use crate::calibrate::Clock;
use crate::certify::{self, Checks};
use crate::engine::round_probe;
use crate::replay::{
    replay_framework, replayed_s, top_level_lambda2, FrameworkReplay, FRAMEWORK_LAYERS,
};
use crate::spans::Spans;
use crate::{
    end_to_end_metrics, median, mix, repeat_setup, repeat_solve, sample_note, secs, Counts, Metric,
    Outcome, Sizes,
};

/// The framework's ε.
pub const EPSILON: f64 = 0.3;

/// Share of vertices that get a noise chord.
pub const NOISE: f64 = 0.02;

/// One framework instance: the seed of the run's randomness, and the graph.
pub type Instance = (u64, Graph);

/// The batch of `sizes.grid_batch` instances a run solves. Instance `i`'s
/// graph is corpus graph `i`, drawn from a fixed seed; its run seed (the
/// walks) derives from the workload seed. Charged rounds vary by ±50%
/// from one random graph to the next, so a seed-drawn graph batch would
/// make every figure too noisy to gate; on a fixed graph the walks move
/// them by about ±10%.
fn generate(seed: u64, sizes: &Sizes) -> Vec<Instance> {
    (0..sizes.grid_batch as u64)
        .map(|i| {
            let mut rng = gen::seeded_rng(corpus_seed(i));
            let g = gen::grid_with_noise(sizes.grid_side, sizes.grid_side, NOISE, &mut rng);
            (mix(seed ^ mix(i)), g)
        })
        .collect()
}

/// Seed of corpus graph `i`.
pub fn corpus_seed(i: u64) -> u64 {
    mix(0x1C6_C0DE ^ i)
}

fn config(seed: u64, sizes: &Sizes) -> FrameworkConfig {
    FrameworkConfig {
        exec: sizes.exec(),
        ..FrameworkConfig::planar(EPSILON, seed)
    }
}

/// The Theorem 2.6 certificates and the certified Theorem 1.2 finish.
fn finish(g: &Graph, out: &FrameworkOutcome, checks: &mut Checks) -> (Counts, certify::LeaderMis) {
    certify::theorem_2_6(g, out, EPSILON, checks);
    let mis = certify::leader_mis(g, out, checks);
    (Counts::of_framework(g, out, &mis), mis)
}

/// The untraced run.
pub fn end_to_end(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let mut clock = Clock::new();
    let (setup, batch) = repeat_setup(sizes, &mut clock, || generate(seed, sizes));
    let mut checks = Checks::default();
    let (solve, counts) = repeat_solve(seconds, &mut checks, &mut clock, |checks, clock| {
        batch
            .iter()
            .map(|(s, g)| {
                clock.run(|| {
                    let out = run_framework(g, &config(*s, sizes));
                    finish(g, &out, checks).0
                })
            })
            .collect()
    });
    let notes = vec![
        format!(
            "framework_grid: {} x grid_with_noise {1}x{1}, n = {2} each",
            batch.len(),
            sizes.grid_side,
            sizes.grid_side * sizes.grid_side
        ),
        sample_note(&setup, &solve, sizes),
    ];
    checks.into_outcome(end_to_end_metrics(&setup, &solve, &counts), notes)
}

/// The traced run, per instance: the library call, its stage-by-stage
/// replay, the top-level `lambda2` and the leader solves; then, on the
/// first instance, the observation overheads and the round probe.
pub fn traced(seed: u64, sizes: &Sizes) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new();
    let batch = spans.time("graph.gen", || generate(seed, sizes));
    let mut totals = TraceTotals::default();
    for (s, g) in &batch {
        let cfg = config(*s, sizes);
        let t = Instant::now();
        let out = run_framework(g, &cfg);
        totals.framework_s += secs(t);

        let sp = spans.open("core.attempt");
        let r = replay_framework(g, &cfg, &mut spans);
        spans.close(sp);
        checks.check("replay: stats equal run_framework's", r.stats == out.stats);
        checks.check(
            "replay: clustering equal",
            r.cluster_of == out.decomposition.cluster_of,
        );
        checks.check(
            "replay: election rounds equal",
            r.election_rounds == out.phases.election,
        );
        let orientation = r.orientation_rounds == out.phases.orientation;
        checks.check("replay: orientation rounds equal", orientation);
        checks.check(
            "replay: gather rounds equal",
            r.gather_rounds == out.phases.gathering,
        );
        let routing = r.routing.iter().eq(out.clusters.iter().map(|c| &c.routing));
        checks.check("replay: per-cluster routing equal", routing);

        totals.lambda2_iters += top_level_lambda2(g, &mut spans);
        let mis = spans.time("solvers.leader", || finish(g, &out, &mut checks).1);
        totals.add(&out, &mis, vec![r]);
    }
    let (s0, g0) = &batch[0];
    let obs = observation_overheads(g0, &config(*s0, sizes));
    let mut net = Network::with_exec(g0, Model::congest(), sizes.exec());
    let probe = round_probe(&mut net, sizes.probe_rounds);

    let mut notes = vec![format!("framework_grid traced: {} instances", batch.len())];
    notes.extend(layer_notes(&spans, totals.framework_s));
    notes.push(probe.note());
    let mut metrics = layer_metrics(&spans, &totals, obs);
    metrics.extend(probe.metrics());
    checks.into_outcome(metrics, notes)
}

/// What a traced framework workload gathers besides its spans, summed over
/// its instances.
#[derive(Debug, Default)]
pub struct TraceTotals {
    /// Every replayed `run_framework`, retry attempts included.
    pub replays: Vec<FrameworkReplay>,
    /// Host seconds of the library calls.
    pub framework_s: f64,
    /// Final clusters.
    pub clusters: usize,
    /// Final cut edges.
    pub cut_edges: usize,
    /// Clusters whose leader solved optimally.
    pub optimal: usize,
    /// Power iterations of the top-level `lambda2` calls.
    pub lambda2_iters: usize,
}

impl TraceTotals {
    /// Adds one instance's final outcome, its finish and its replays.
    pub fn add(
        &mut self,
        out: &FrameworkOutcome,
        mis: &certify::LeaderMis,
        replays: Vec<FrameworkReplay>,
    ) {
        self.clusters += out.clusters.len();
        self.cut_edges += out.cut_edges();
        self.optimal += mis.optimal_clusters;
        self.replays.extend(replays);
    }
}

/// Span report lines, then the largest replayed layer.
pub fn layer_notes(spans: &Spans, framework_s: f64) -> Vec<String> {
    let mut notes = spans.report();
    let largest = FRAMEWORK_LAYERS
        .iter()
        .max_by(|a, b| spans.total(a).total_cmp(&spans.total(b)))
        .expect("layer list is non-empty");
    notes.push(format!(
        "largest layer: {largest}_s = {:.4} s of core.framework_s = {framework_s:.4} s",
        spans.total(largest)
    ));
    notes
}

/// The per-layer metrics of a framework workload. `obs` holds the host
/// seconds of one `run_framework` as configured, with `metrics: true` and
/// with `trace: true`.
pub fn layer_metrics(spans: &Spans, t: &TraceTotals, obs: (f64, f64, f64)) -> Vec<Metric> {
    let sum = |f: fn(&FrameworkReplay) -> u64| t.replays.iter().map(f).sum::<u64>() as f64;
    let max_load = t
        .replays
        .iter()
        .map(FrameworkReplay::max_edge_load)
        .max()
        .unwrap_or(0);
    let (plain_s, metrics_s, trace_s) = obs;
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("graph.gen_s", "s", spans.total("graph.gen")),
        m("graph.extract_s", "s", spans.total("graph.extract")),
        m("graph.diameter_s", "s", spans.total("graph.diameter")),
        m("expander.decomp_s", "s", spans.total("expander.decomp")),
        m("expander.lambda2_s", "s", spans.total("expander.lambda2")),
        m("expander.lambda2_iters", "count", t.lambda2_iters as f64),
        m("expander.clusters", "count", t.clusters as f64),
        m("expander.cut_edges", "count", t.cut_edges as f64),
        m("expander.gather_s", "s", spans.total("expander.gather")),
        m(
            "expander.walk_steps",
            "count",
            sum(FrameworkReplay::walk_steps),
        ),
        m("expander.gather_rounds", "rounds", sum(|r| r.gather_rounds)),
        m("expander.max_edge_load", "count", max_load as f64),
        m("congest.build_s", "s", spans.total("congest.build")),
        m("congest.election_s", "s", spans.total("congest.election")),
        m(
            "congest.election_rounds",
            "rounds",
            sum(|r| r.election_rounds),
        ),
        m(
            "congest.orientation_s",
            "s",
            spans.total("congest.orientation"),
        ),
        m(
            "congest.orientation_rounds",
            "rounds",
            sum(|r| r.orientation_rounds),
        ),
        m(
            "congest.dropped_msgs",
            "msgs",
            sum(|r| r.stats.dropped_messages),
        ),
        m("solvers.leader_s", "s", spans.total("solvers.leader")),
        m(
            "solvers.optimal_frac",
            "ratio",
            t.optimal as f64 / t.clusters as f64,
        ),
        m("core.framework_s", "s", t.framework_s),
        m(
            "core.unattributed_s",
            "s",
            t.framework_s - replayed_s(spans),
        ),
        m("core.attempts", "count", t.replays.len() as f64),
        m(
            "core.attempt_s",
            "s",
            median(&spans.durations("core.attempt")),
        ),
        m("core.detector_s", "s", spans.total("core.detector")),
        m("obs.metrics_overhead_s", "s", metrics_s - plain_s),
        m("obs.trace_overhead_s", "s", trace_s - plain_s),
    ]
}

/// Host seconds of `run_framework` as configured, then with
/// `metrics: true`, then with `trace: true`. The overheads are the
/// differences to the first.
pub fn observation_overheads(g: &Graph, cfg: &FrameworkConfig) -> (f64, f64, f64) {
    let timed = |cfg: FrameworkConfig| {
        let t = Instant::now();
        drop(run_framework(g, &cfg));
        secs(t)
    };
    let plain_s = timed(cfg.clone());
    let metrics_s = timed(FrameworkConfig {
        metrics: true,
        ..cfg.clone()
    });
    let trace_s = timed(FrameworkConfig {
        trace: true,
        ..cfg.clone()
    });
    (plain_s, metrics_s, trace_s)
}
