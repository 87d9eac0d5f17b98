//! Stage-by-stage replays of `run_framework` and `run_framework_resilient`
//! through the layers' public functions, with a span around each call.
//!
//! A replay draws the same random numbers in the same order as the library
//! call it mirrors, so its deterministic counts must equal the library's
//! exactly; the traced runs certify that. Work a replay does not mirror
//! shows up as `core.unattributed_s`, never as an estimate.

use lcg_congest::primitives::{self, Scope};
use lcg_congest::{Model, Network, RoundStats};
use lcg_core::failure;
use lcg_core::framework::FrameworkConfig;
use lcg_core::recovery::{self, RecoveryPolicy};
use lcg_expander::routing::{self, RoutingOutcome};
use lcg_expander::{decomp, spectral};
use lcg_graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::spans::Spans;

/// The leaf layers a framework replay records: one span around each
/// library call it makes.
pub const FRAMEWORK_LAYERS: [&str; 7] = [
    "expander.decomp",
    "congest.build",
    "graph.extract",
    "graph.diameter",
    "congest.election",
    "congest.orientation",
    "expander.gather",
];

/// The detector and degradation stages of a resilient replay. Their self
/// times plus the [`FRAMEWORK_LAYERS`] totals are the replayed work that
/// `core.unattributed_s` is measured against.
pub const RESILIENT_LAYERS: [&str; 2] = ["core.detector", "core.degrade"];

/// Summed self time of every replayed layer.
pub fn replayed_s(spans: &Spans) -> f64 {
    let summary = spans.summary();
    FRAMEWORK_LAYERS
        .iter()
        .chain(&RESILIENT_LAYERS)
        .filter_map(|l| summary.get(l))
        .map(|&(_, _, own)| own)
        .sum()
}

/// Deterministic outputs of a replayed `run_framework`.
#[derive(Debug, Clone)]
pub struct FrameworkReplay {
    /// Rounds and traffic, as `FrameworkOutcome::stats`.
    pub stats: RoundStats,
    /// The decomposition's clustering.
    pub cluster_of: Vec<usize>,
    /// Election rounds.
    pub election_rounds: u64,
    /// Orientation rounds.
    pub orientation_rounds: u64,
    /// Charged gathering rounds (max over clusters).
    pub gather_rounds: u64,
    /// Per-cluster routing outcomes, in cluster-id order.
    pub routing: Vec<RoutingOutcome>,
    /// Per-cluster election agreement, in cluster-id order.
    pub election_agrees: Vec<bool>,
    /// Per-cluster induced subgraphs, in cluster-id order.
    pub subgraphs: Vec<Graph>,
}

impl FrameworkReplay {
    /// Summed walk steps over clusters.
    pub fn walk_steps(&self) -> u64 {
        self.routing.iter().map(|r| r.steps as u64).sum()
    }

    /// Largest per-step edge load over clusters.
    pub fn max_edge_load(&self) -> usize {
        self.routing
            .iter()
            .map(|r| r.max_edge_load)
            .max()
            .unwrap_or(0)
    }
}

/// Replays `run_framework(g, cfg)` for the two gathering paths the
/// workloads use: the fault-free charged walk and the message-faithful
/// network walk.
///
/// # Panics
///
/// Panics on configurations whose gathering path is not replayed (tree
/// routing, the faulty charged walk, tracing or metrics on).
pub fn replay_framework(g: &Graph, cfg: &FrameworkConfig, spans: &mut Spans) -> FrameworkReplay {
    let faults_active = cfg.faults.as_ref().is_some_and(|f| !f.is_vacuous());
    assert!(
        !cfg.deterministic_routing
            && !cfg.trace
            && !cfg.metrics
            && (cfg.message_faithful || !faults_active),
        "replay covers the fault-free charged walk and the message-faithful walk only"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let eps_prime = cfg.epsilon / cfg.density_bound;
    let decomposition = spans.time("expander.decomp", || {
        if cfg.practical_phi {
            decomp::decompose_adaptive(g, eps_prime)
        } else {
            decomp::decompose(g, eps_prime)
        }
    });
    let mut net = spans.time("congest.build", || {
        Network::with_exec(g, Model::congest(), cfg.exec)
    });
    net.set_fault_plan(cfg.faults.clone());
    let cluster_of = &decomposition.cluster_of;

    let mut diam_bound = 0usize;
    let mut subs = Vec::new();
    for members in primitives::cluster_members(cluster_of).values() {
        let (sub, mapping) = spans.time("graph.extract", || g.induced_subgraph(members));
        diam_bound = diam_bound.max(spans.time("graph.diameter", || sub.diameter()).unwrap_or(0));
        subs.push((sub, mapping));
    }
    let degrees: Vec<u64> = (0..g.n())
        .map(|v| {
            g.neighbor_vertices(v)
                .filter(|&u| cluster_of[u] == cluster_of[v])
                .count() as u64
        })
        .collect();
    let elected = spans.time("congest.election", || {
        primitives::max_flood(&mut net, &degrees, diam_bound, Scope::Intra(cluster_of))
    });
    let election_rounds = net.stats().rounds;
    let max_layers = 4 * ((g.n().max(2) as f64).log2().ceil() as usize) + 8;
    let layer = spans.time("congest.orientation", || {
        primitives::h_partition_distributed(
            &mut net,
            cfg.density_bound,
            1.0,
            max_layers,
            Scope::Intra(cluster_of),
        )
    });
    let orientation_rounds = net.stats().rounds - election_rounds;
    let out_deg: Vec<usize> = (0..g.n())
        .map(|v| {
            g.neighbor_vertices(v)
                .filter(|&u| cluster_of[u] == cluster_of[v])
                .filter(|&u| {
                    let (lv, lu) = (
                        layer[v].unwrap_or(usize::MAX),
                        layer[u].unwrap_or(usize::MAX),
                    );
                    lv < lu || (lv == lu && v < u)
                })
                .count()
        })
        .collect();

    let gather = spans.open("expander.gather");
    let mut gather_rounds = 0u64;
    let mut faithful_traffic = RoundStats::default();
    let mut outcomes = Vec::with_capacity(subs.len());
    let mut agrees = Vec::with_capacity(subs.len());
    for (sub, mapping) in &subs {
        let leader = mapping
            .iter()
            .copied()
            .max_by_key(|&v| (degrees[v], v))
            .expect("decomposition clusters are non-empty");
        agrees.push(mapping.iter().all(|&v| elected[v].1 == leader));
        let counts: Vec<usize> = mapping.iter().map(|&v| 1 + out_deg[v]).collect();
        let outcome = if sub.n() <= 1 {
            let total = counts.iter().sum();
            RoutingOutcome {
                delivered: total,
                total,
                steps: 0,
                rounds: 0,
                max_edge_load: 0,
            }
        } else if cfg.message_faithful {
            let mut cluster_net = Network::with_exec(g, Model::congest(), cfg.exec);
            cluster_net.set_fault_plan(cfg.faults.clone());
            let (outcome, rstats) = routing::network_walk_routing_with_counts(
                &mut cluster_net,
                mapping,
                leader,
                &counts,
                cfg.max_walk_steps,
                &mut rng,
            );
            faithful_traffic.messages += rstats.messages;
            faithful_traffic.words += rstats.words;
            faithful_traffic.max_words_edge_round = faithful_traffic
                .max_words_edge_round
                .max(rstats.max_words_edge_round);
            faithful_traffic.dropped_messages += rstats.dropped_messages;
            faithful_traffic.crashed_messages += rstats.crashed_messages;
            faithful_traffic.truncated_messages += rstats.truncated_messages;
            outcome
        } else {
            routing::random_walk_routing_with_counts_exec(
                g,
                mapping,
                leader,
                &counts,
                cfg.max_walk_steps,
                &mut rng,
                cfg.exec,
            )
        };
        gather_rounds = gather_rounds.max(outcome.rounds);
        outcomes.push(outcome);
    }
    spans.close(gather);
    // gathering, then the broadcast charged the same rounds
    net.charge_rounds(gather_rounds);
    if cfg.message_faithful {
        net.charge_stats(&RoundStats {
            rounds: 0,
            ..faithful_traffic
        });
    }
    net.charge_rounds(gather_rounds);

    FrameworkReplay {
        stats: net.stats(),
        cluster_of: decomposition.cluster_of,
        election_rounds,
        orientation_rounds,
        gather_rounds,
        routing: outcomes,
        election_agrees: agrees,
        subgraphs: subs.into_iter().map(|(sub, _)| sub).collect(),
    }
}

/// Deterministic outputs of a replayed `run_framework_resilient`.
#[derive(Debug, Clone)]
pub struct ResilientReplay {
    /// Rounds and traffic, as the resilient outcome's `stats`.
    pub stats: RoundStats,
    /// Attempts made.
    pub attempts: u32,
    /// Whether the run degraded to singleton clusters.
    pub degraded: bool,
    /// Rounds spent in the §2.3 detectors.
    pub detector_rounds: u64,
    /// The final clustering.
    pub cluster_of: Vec<usize>,
    /// Every attempt's framework replay.
    pub attempt_replays: Vec<FrameworkReplay>,
}

/// Replays `run_framework_resilient(g, cfg, policy)`: each attempt's
/// framework replay in a `core.attempt` span, its detectors (election
/// agreement, gathering reversal, cluster diameters and
/// `failure::enforce_diameter`) in a `core.detector` span, and the
/// singleton degradation in `core.degrade`.
pub fn replay_resilient(
    g: &Graph,
    cfg: &FrameworkConfig,
    policy: &RecoveryPolicy,
    spans: &mut Spans,
) -> ResilientReplay {
    let mut spent = RoundStats::default();
    let mut detector_rounds = 0u64;
    let mut attempt_replays = Vec::new();
    for attempt in 0..=policy.max_retries {
        let attempt_cfg = FrameworkConfig {
            seed: recovery::derived_seed(cfg.seed, attempt),
            max_walk_steps: policy
                .initial_walk_steps
                .saturating_mul(2usize.saturating_pow(attempt))
                .min(cfg.max_walk_steps),
            ..cfg.clone()
        };
        let sp = spans.open("core.attempt");
        let r = replay_framework(g, &attempt_cfg, spans);
        spans.close(sp);

        let sp = spans.open("core.detector");
        let mut failed = r.election_agrees.iter().any(|&ok| !ok)
            || r.routing.iter().any(failure::routing_failure_detected);
        let mut diam_bound = 0usize;
        for sub in &r.subgraphs {
            diam_bound =
                diam_bound.max(spans.time("graph.diameter", || sub.diameter()).unwrap_or(0));
        }
        let mut det_net = spans.time("congest.build", || {
            Network::with_exec(g, Model::congest(), cfg.exec)
        });
        let repaired = failure::enforce_diameter(&mut det_net, &r.cluster_of, diam_bound);
        failed |= repaired != r.cluster_of;
        spans.close(sp);
        detector_rounds += det_net.stats().rounds;
        spent.merge(&det_net.stats());
        if !failed {
            let mut stats = r.stats;
            stats.merge(&spent);
            let cluster_of = r.cluster_of.clone();
            attempt_replays.push(r);
            return ResilientReplay {
                stats,
                attempts: attempt + 1,
                degraded: false,
                detector_rounds,
                cluster_of,
                attempt_replays,
            };
        }
        spent.merge(&r.stats);
        attempt_replays.push(r);
    }
    let degraded = spans.time("core.degrade", || recovery::singleton_outcome(g, cfg));
    let mut stats = degraded.stats;
    stats.merge(&spent);
    ResilientReplay {
        stats,
        attempts: policy.max_retries + 1,
        degraded: true,
        detector_rounds,
        cluster_of: degraded.decomposition.cluster_of,
        attempt_replays,
    }
}

/// Times one top-level `spectral::lambda2` call, with the decomposition's
/// tolerance and iteration cap, on the largest connected component (the
/// extraction is not timed). Returns the power iterations it took.
pub fn top_level_lambda2(g: &Graph, spans: &mut Spans) -> usize {
    let (comp, k) = g.connected_components();
    let mut size = vec![0usize; k];
    for &c in &comp {
        size[c] += 1;
    }
    let big = (0..k)
        .max_by_key(|&c| (size[c], c))
        .expect("graph has a vertex");
    let members: Vec<usize> = (0..g.n()).filter(|&v| comp[v] == big).collect();
    let (component, _) = g.induced_subgraph(&members);
    spans
        .time("expander.lambda2", || {
            spectral::lambda2(&component, 1e-9, 4_000)
        })
        .iterations
}
