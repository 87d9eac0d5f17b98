//! `faithful_faulty`: `run_framework_resilient` with message-faithful
//! gathering under `FaultPlan::drops(seed, 0.05)` and the default
//! `RecoveryPolicy` on `random_planar` graphs, then the Theorem 1.2 finish
//! on whatever clustering survives.

use std::time::Instant;

use lcg_congest::{FaultPlan, Model, Network};
use lcg_core::framework::{FrameworkConfig, FrameworkOutcome};
use lcg_core::recovery::{run_framework_resilient, RecoveryPolicy, RecoveryReport};
use lcg_graph::{gen, Graph};

use crate::calibrate::Clock;
use crate::certify::{self, Checks};
use crate::engine::round_probe;
use crate::framework_grid::{
    corpus_seed, layer_metrics, layer_notes, observation_overheads, Instance, TraceTotals, EPSILON,
};
use crate::replay::{replay_resilient, top_level_lambda2};
use crate::spans::Spans;
use crate::{
    end_to_end_metrics, mix, repeat_setup, repeat_solve, sample_note, secs, Counts, Outcome, Sizes,
};

/// Edge-keep probability of the `random_planar` generator.
pub const KEEP: f64 = 0.5;

/// Per-message drop probability.
pub const DROP_P: f64 = 0.05;

/// The batch of `sizes.faithful_batch` instances a run solves: corpus graph
/// `i` (fixed, for the reason `framework_grid` gives), with run and fault
/// seeds derived from the workload seed.
fn generate(seed: u64, sizes: &Sizes) -> Vec<Instance> {
    (0..sizes.faithful_batch as u64)
        .map(|i| {
            let mut rng = gen::seeded_rng(corpus_seed(i));
            let g = gen::random_planar(sizes.faithful_n, KEEP, &mut rng);
            (mix(seed ^ mix(i)), g)
        })
        .collect()
}

fn config(seed: u64, sizes: &Sizes) -> FrameworkConfig {
    FrameworkConfig {
        message_faithful: true,
        faults: Some(FaultPlan::drops(mix(seed ^ 2), DROP_P)),
        exec: sizes.exec(),
        ..FrameworkConfig::planar(EPSILON, seed)
    }
}

/// Certifies the (possibly degraded) clustering, then runs and certifies
/// the Theorem 1.2 finish.
fn finish(
    g: &Graph,
    out: &FrameworkOutcome,
    report: &RecoveryReport,
    checks: &mut Checks,
) -> (Counts, certify::LeaderMis) {
    certify::valid_partition(g, out, checks);
    let budget = RecoveryPolicy::default().max_retries + 1;
    checks.check(
        "attempts within the retry budget",
        (1..=budget).contains(&report.attempts),
    );
    if report.degraded {
        checks.check(
            "degraded run has singleton clusters and cuts every edge",
            out.clusters.len() == g.n() && out.cut_edges() == g.m(),
        );
    }
    let mis = certify::leader_mis(g, out, checks);
    (Counts::of_framework(g, out, &mis), mis)
}

/// The untraced run.
pub fn end_to_end(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let mut clock = Clock::new();
    let (setup, batch) = repeat_setup(sizes, &mut clock, || generate(seed, sizes));
    let policy = RecoveryPolicy::default();
    let mut checks = Checks::default();
    let (solve, counts) = repeat_solve(seconds, &mut checks, &mut clock, |checks, clock| {
        batch
            .iter()
            .map(|(s, g)| {
                clock.run(|| {
                    let (out, report) = run_framework_resilient(g, &config(*s, sizes), &policy);
                    finish(g, &out, &report, checks).0
                })
            })
            .collect()
    });
    let notes = vec![
        format!(
            "faithful_faulty: {} x random_planar n = {}, drop p = {DROP_P}",
            batch.len(),
            sizes.faithful_n
        ),
        sample_note(&setup, &solve, sizes),
    ];
    checks.into_outcome(end_to_end_metrics(&setup, &solve, &counts), notes)
}

/// The traced run, per instance: the resilient call, its attempt-by-attempt
/// replay, the top-level `lambda2` and the leader solves; then, on the
/// first instance, the observation overheads of attempt 0 and the round
/// probe.
pub fn traced(seed: u64, sizes: &Sizes) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new();
    let batch = spans.time("graph.gen", || generate(seed, sizes));
    let policy = RecoveryPolicy::default();
    let mut totals = TraceTotals::default();
    let mut notes = Vec::new();
    for (s, g) in &batch {
        let cfg = config(*s, sizes);
        let t = Instant::now();
        let (out, report) = run_framework_resilient(g, &cfg, &policy);
        totals.framework_s += secs(t);

        let r = replay_resilient(g, &cfg, &policy, &mut spans);
        checks.check(
            "replay: stats equal run_framework_resilient's",
            r.stats == out.stats,
        );
        checks.check("replay: attempts equal", r.attempts == report.attempts);
        checks.check(
            "replay: degradation verdict equal",
            r.degraded == report.degraded,
        );
        let detector = r.detector_rounds == report.detector_rounds;
        checks.check("replay: detector rounds equal", detector);
        checks.check(
            "replay: final clustering equal",
            r.cluster_of == out.decomposition.cluster_of,
        );

        totals.lambda2_iters += top_level_lambda2(g, &mut spans);
        let mis = spans.time("solvers.leader", || finish(g, &out, &report, &mut checks).1);
        notes.push(format!(
            "instance n = {}, m = {}: {} attempts, degraded = {}",
            g.n(),
            g.m(),
            report.attempts,
            report.degraded
        ));
        totals.add(&out, &mis, r.attempt_replays);
    }
    let (s0, g0) = &batch[0];
    let cfg0 = config(*s0, sizes);
    let attempt0 = FrameworkConfig {
        max_walk_steps: policy.initial_walk_steps.min(cfg0.max_walk_steps),
        ..cfg0
    };
    let obs = observation_overheads(g0, &attempt0);
    let mut net = Network::with_exec(g0, Model::congest(), sizes.exec());
    let probe = round_probe(&mut net, sizes.probe_rounds);

    notes.extend(layer_notes(&spans, totals.framework_s));
    notes.push(probe.note());
    let mut metrics = layer_metrics(&spans, &totals, obs);
    metrics.extend(probe.metrics());
    checks.into_outcome(metrics, notes)
}
