//! Hot-path microbenchmarks for the round engine (Experiment E21).
//!
//! The workloads below, each timed over repeated iterations with the
//! median reported (ns/round and messages/sec):
//!
//! * **flood** — all-port 1-word gossip on a torus grid: the pure
//!   message-pump ceiling of the engine;
//! * **routing** — charged-walk-style token forwarding with 2-word
//!   `[token, steps]` messages (the Lemma 2.4 message shape), sitting
//!   exactly at the inline boundary of [`lcg_congest::Msg`];
//! * **star_elim** — the Lemma 3.1 star-elimination kernel (pure graph
//!   computation, no rounds): tracks the non-engine side of the stack;
//! * **framework** — the full Theorem 2.6 pipeline at 1/2/4 threads;
//! * **decompose_grid** / **gather_walk_grid** — the framework's two big
//!   layers alone on `grid_with_noise` (n = 10⁴ in full mode): the
//!   adaptive decomposition, and the Lemma 2.4 charged walks that gather
//!   every cluster to its leader.
//!
//! ## The in-run legacy baseline
//!
//! `flood` and `routing` are additionally run on a [`LegacyNetwork`]: a
//! faithful re-implementation of the engine's *pre-optimization* hot path
//! — one `Vec<u64>` heap allocation per message and two freshly allocated
//! buffer grids per round, exactly what the seed engine did before the
//! inline-`Msg` + pooled-buffer change. Running old and new in the same
//! process on the same workload makes the reported `speedup_vs_legacy`
//! machine-independent enough to gate on: CI fails when the ratio decays
//! by more than the tolerance, not when the runner is slow.
//!
//! Allocation counts are **modeled**, not profiled (the workspace forbids
//! `unsafe`, so no counting global allocator): the legacy hot path
//! performs one allocation per message plus `2(n+1)` grid allocations per
//! round by construction, while the new path performs none for inline
//! (≤ [`lcg_congest::INLINE_WORDS`]-word) messages on pooled grids.

use std::time::Instant;

use lcg_congest::{ExecConfig, Model, Network, RoundStats};
use lcg_core::framework::{run_framework, FrameworkConfig};
use lcg_expander::{decomp, routing};
use lcg_graph::{gen, Graph};
use lcg_solvers::star_elim::star_elimination;
use serde::{Serialize, Value};

/// One benched workload's measurements.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name (`flood`, `routing`, `star_elim`, `framework_t2`, ...).
    pub name: String,
    /// Vertices in the benched graph.
    pub n: usize,
    /// Rounds per iteration (0 for round-free kernels).
    pub rounds: u64,
    /// Messages per iteration (0 for round-free kernels).
    pub messages: u64,
    /// Median wall time of one iteration, nanoseconds.
    pub median_ns: f64,
    /// `median_ns / rounds` (equals `median_ns` for round-free kernels).
    pub median_ns_per_round: f64,
    /// Messages per second at the median, if the workload sends messages.
    pub messages_per_sec: Option<f64>,
    /// Median ns/round of the legacy (Vec-message, fresh-grid) engine on
    /// the identical workload, when benched.
    pub legacy_median_ns_per_round: Option<f64>,
    /// `legacy_median_ns_per_round / median_ns_per_round`.
    pub speedup_vs_legacy: Option<f64>,
    /// For `*_scaling_tN` workloads: the 1-thread median ns/round of the
    /// same workload divided by this row's — >1 means parallelism wins.
    pub speedup_vs_t1: Option<f64>,
    /// Modeled heap allocations per round, new engine (spilled messages
    /// only; 0 for CONGEST-size payloads).
    pub modeled_allocs_per_round: Option<u64>,
    /// Modeled heap allocations per round, legacy engine (one per message
    /// plus two fresh grids).
    pub modeled_allocs_per_round_legacy: Option<u64>,
}

impl Serialize for BenchResult {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("n".to_string(), self.n.to_value()),
            ("rounds".to_string(), self.rounds.to_value()),
            ("messages".to_string(), self.messages.to_value()),
            ("median_ns".to_string(), self.median_ns.to_value()),
            ("median_ns_per_round".to_string(), self.median_ns_per_round.to_value()),
        ];
        let mut opt = |k: &str, v: Option<Value>| {
            if let Some(v) = v {
                fields.push((k.to_string(), v));
            }
        };
        opt("messages_per_sec", self.messages_per_sec.map(|x| x.to_value()));
        opt("legacy_median_ns_per_round", self.legacy_median_ns_per_round.map(|x| x.to_value()));
        opt("speedup_vs_legacy", self.speedup_vs_legacy.map(|x| x.to_value()));
        opt("speedup_vs_t1", self.speedup_vs_t1.map(|x| x.to_value()));
        opt("modeled_allocs_per_round", self.modeled_allocs_per_round.map(|x| x.to_value()));
        opt(
            "modeled_allocs_per_round_legacy",
            self.modeled_allocs_per_round_legacy.map(|x| x.to_value()),
        );
        Value::object(fields)
    }
}

/// Suite output: every workload plus run metadata.
#[derive(Debug, Clone)]
pub struct Suite {
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// Iterations per workload (median is taken over these).
    pub iters: usize,
    /// All workload results, in run order.
    pub results: Vec<BenchResult>,
}

impl Serialize for Suite {
    fn to_value(&self) -> Value {
        Value::object([
            ("mode".to_string(), self.mode.to_value()),
            ("iters".to_string(), self.iters.to_value()),
            (
                "results".to_string(),
                Value::Array(self.results.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

// --------------------------------------------------------------------------
// Legacy engine: the pre-optimization hot path, reproduced for comparison.
// --------------------------------------------------------------------------

type LegacyGrid = Vec<Vec<Option<Vec<u64>>>>;

/// The seed engine's message pump: `Vec<u64>` messages, two fresh buffer
/// grids allocated every round, no pooling. Accounting (messages, words,
/// per-edge capacity enforcement) matches [`Network`] so the two engines
/// are checked to run the *same* execution before being compared.
pub struct LegacyNetwork<'g> {
    g: &'g Graph,
    capacity: Option<usize>,
    pending: LegacyGrid,
    reverse: Vec<Vec<(usize, usize)>>,
    stats: RoundStats,
}

/// Per-vertex outbox of the legacy engine (heap message per send).
pub struct LegacyOutbox<'a> {
    slots: &'a mut [Option<Vec<u64>>],
    capacity: Option<usize>,
    vertex: usize,
}

impl LegacyOutbox<'_> {
    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.slots.len()
    }

    /// Sends a heap-allocated message, enforcing the CONGEST capacity.
    pub fn send(&mut self, port: usize, msg: Vec<u64>) {
        if let Some(cap) = self.capacity {
            assert!(
                msg.len() <= cap,
                "CONGEST violation at vertex {}: message of {} words exceeds capacity {cap}",
                self.vertex,
                msg.len(),
            );
        }
        let slot = &mut self.slots[port];
        assert!(slot.is_none(), "vertex {}: port {port} sent twice in one round", self.vertex);
        *slot = Some(msg);
    }
}

impl<'g> LegacyNetwork<'g> {
    /// Builds the legacy engine over `g` under `model`.
    pub fn new(g: &'g Graph, model: Model) -> LegacyNetwork<'g> {
        let capacity = match model {
            Model::Congest { words_per_edge } => Some(words_per_edge),
            Model::Local => None,
        };
        let reverse = (0..g.n())
            .map(|v| {
                g.neighbors(v)
                    .map(|(u, _)| {
                        let q = g
                            .neighbors(u)
                            .position(|(w, _)| w == v)
                            .expect("graph adjacency is symmetric");
                        (u, q)
                    })
                    .collect()
            })
            .collect();
        LegacyNetwork { g, capacity, pending: Self::fresh(g), reverse, stats: RoundStats::default() }
    }

    fn fresh(g: &Graph) -> LegacyGrid {
        (0..g.n()).map(|v| vec![None; g.degree(v)]).collect()
    }

    /// One synchronous round, seed-style: both buffer grids are allocated
    /// from scratch (this is the allocation behavior being benchmarked,
    /// not an oversight).
    pub fn step<F>(&mut self, mut f: F)
    where
        F: FnMut(usize, &[Option<Vec<u64>>], &mut LegacyOutbox),
    {
        let inboxes = std::mem::replace(&mut self.pending, Self::fresh(self.g));
        let mut outgoing = Self::fresh(self.g);
        let mut max_words = 0usize;
        for (v, (inbox, slots)) in inboxes.iter().zip(outgoing.iter_mut()).enumerate() {
            let mut out = LegacyOutbox { slots, capacity: self.capacity, vertex: v };
            f(v, inbox, &mut out);
            for msg in slots.iter().flatten() {
                self.stats.messages += 1;
                self.stats.words += msg.len() as u64;
                max_words = max_words.max(msg.len());
            }
        }
        for (v, out_v) in outgoing.iter_mut().enumerate() {
            for (p, slot) in out_v.iter_mut().enumerate() {
                if let Some(msg) = slot.take() {
                    let (u, q) = self.reverse[v][p];
                    self.pending[u][q] = Some(msg);
                }
            }
        }
        self.stats.max_words_edge_round = self.stats.max_words_edge_round.max(max_words);
        self.stats.rounds += 1;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RoundStats {
        self.stats
    }
}

// --------------------------------------------------------------------------
// Workloads (identical logic on both engines).
// --------------------------------------------------------------------------

/// All-port 1-word gossip: every vertex mixes its inbox into a digest and
/// re-sends it on every port, every round.
fn flood_new(g: &Graph, rounds: usize) -> RoundStats {
    let mut net = Network::new(g, Model::congest());
    for _ in 0..rounds {
        net.step(|v, inbox, out| {
            let mut h = v as u64 ^ 0x9E37_79B9_7F4A_7C15;
            for m in inbox.iter().flatten() {
                h = h.rotate_left(7) ^ m[0].wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
            for p in 0..out.ports() {
                out.send(p, [h ^ p as u64]);
            }
        });
    }
    net.stats()
}

fn flood_legacy(g: &Graph, rounds: usize) -> RoundStats {
    let mut net = LegacyNetwork::new(g, Model::congest());
    for _ in 0..rounds {
        net.step(|v, inbox, out| {
            let mut h = v as u64 ^ 0x9E37_79B9_7F4A_7C15;
            for m in inbox.iter().flatten() {
                h = h.rotate_left(7) ^ m[0].wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
            for p in 0..out.ports() {
                out.send(p, vec![h ^ p as u64]);
            }
        });
    }
    net.stats()
}

/// The same all-port gossip as [`flood_new`], but run as **one
/// `run_state` batch** on the network's worker pool: per-vertex digests
/// are the batch state, so this measures the persistent-pool engine
/// (parked workers, rendezvous wakeups, chunked arenas) rather than the
/// sequential `step` path.
fn flood_batch(g: &Graph, rounds: usize, exec: ExecConfig) -> RoundStats {
    let mut net = Network::with_exec(g, Model::congest(), exec);
    let mut digests: Vec<u64> = vec![0x9E37_79B9_7F4A_7C15; g.n()];
    net.run_state(rounds, &mut digests, |h, v, inbox, out| {
        for m in inbox.iter().flatten() {
            *h = h.rotate_left(7) ^ m[0].wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        }
        for p in 0..out.ports() {
            out.send(p, [*h ^ v as u64 ^ p as u64]);
        }
    });
    net.stats()
}

/// Charged-walk-style forwarding: each vertex carries tokens and forwards
/// one per round as a 2-word `[token, steps]` message on a deterministic
/// rotating port — the message shape of Lemma 2.4 routing, sitting exactly
/// at the inline boundary.
fn routing_new(g: &Graph, rounds: usize) -> RoundStats {
    let mut net = Network::new(g, Model::congest());
    let mut tokens: Vec<u64> = (0..g.n() as u64).collect();
    for r in 0..rounds {
        net.step_state(&mut tokens, |tok, v, inbox, out| {
            for m in inbox.iter().flatten() {
                *tok = (*tok).wrapping_add(m[0]).rotate_left((m[1] % 63) as u32 + 1);
            }
            if out.ports() > 0 {
                out.send((v + r) % out.ports(), [*tok, r as u64]);
            }
        });
    }
    net.stats()
}

fn routing_legacy(g: &Graph, rounds: usize) -> RoundStats {
    let mut net = LegacyNetwork::new(g, Model::congest());
    let mut tokens: Vec<u64> = (0..g.n() as u64).collect();
    for r in 0..rounds {
        net.step(|v, inbox, out| {
            let tok = &mut tokens[v];
            for m in inbox.iter().flatten() {
                *tok = (*tok).wrapping_add(m[0]).rotate_left((m[1] % 63) as u32 + 1);
            }
            if out.ports() > 0 {
                out.send((v + r) % out.ports(), vec![*tok, r as u64]);
            }
        });
    }
    net.stats()
}

// --------------------------------------------------------------------------
// Timing harness.
// --------------------------------------------------------------------------

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    if xs.is_empty() {
        return 0.0;
    }
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Times `iters` runs of `f`, returning (median ns, last result).
fn time_iters<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters {
        let started = Instant::now();
        let out = f();
        samples.push(started.elapsed().as_nanos() as f64);
        last = Some(out);
    }
    (median(samples), last.expect("at least one iteration"))
}

fn engine_result(
    name: &str,
    g: &Graph,
    iters: usize,
    new_run: impl Fn(&Graph) -> RoundStats,
    legacy_run: impl Fn(&Graph) -> RoundStats,
) -> BenchResult {
    // one unmeasured warmup each, which also cross-checks that the two
    // engines execute the same workload (same messages/words/rounds)
    let s_new = new_run(g);
    let s_old = legacy_run(g);
    lcg_congest::stats::compare(&s_new, &s_old)
        .unwrap_or_else(|e| panic!("{name}: legacy engine ran a different workload: {e}"));

    let (new_ns, stats) = time_iters(iters, || new_run(g));
    let (old_ns, _) = time_iters(iters, || legacy_run(g));
    let rounds = stats.rounds.max(1);
    let new_per_round = new_ns / rounds as f64;
    let old_per_round = old_ns / rounds as f64;
    let msgs_per_round = stats.messages / rounds;
    BenchResult {
        name: name.to_string(),
        n: g.n(),
        rounds: stats.rounds,
        messages: stats.messages,
        median_ns: new_ns,
        median_ns_per_round: new_per_round,
        messages_per_sec: Some(stats.messages as f64 / (new_ns / 1e9)),
        legacy_median_ns_per_round: Some(old_per_round),
        speedup_vs_legacy: Some(old_per_round / new_per_round),
        speedup_vs_t1: None,
        // new path: all payloads here are 1–2 words -> inline, pooled grids
        modeled_allocs_per_round: Some(0),
        // legacy path: one Vec per message + two fresh grids (n rows each
        // plus the outer Vec)
        modeled_allocs_per_round_legacy: Some(msgs_per_round + 2 * (g.n() as u64 + 1)),
    }
}

/// A row for a round-free kernel: `messages` carries a result count that
/// doubles as a determinism check.
fn round_free_result(name: &str, n: usize, messages: u64, median_ns: f64) -> BenchResult {
    BenchResult {
        name: name.to_string(),
        n,
        rounds: 0,
        messages,
        median_ns,
        median_ns_per_round: median_ns,
        messages_per_sec: None,
        legacy_median_ns_per_round: None,
        speedup_vs_legacy: None,
        speedup_vs_t1: None,
        modeled_allocs_per_round: None,
        modeled_allocs_per_round_legacy: None,
    }
}

/// Runs the full suite. `quick` shrinks sizes/iterations for CI.
pub fn run_suite(quick: bool) -> Suite {
    let iters = if quick { 5 } else { 9 };
    let mut results = Vec::new();

    // flood: message-pump ceiling
    let side = if quick { 40 } else { 110 };
    let rounds = if quick { 30 } else { 60 };
    let torus = gen::torus_grid(side, side);
    results.push(engine_result(
        "flood",
        &torus,
        iters,
        |g| flood_new(g, rounds),
        |g| flood_legacy(g, rounds),
    ));

    // routing: 2-word charged-walk message shape
    results.push(engine_result(
        "routing",
        &torus,
        iters,
        |g| routing_new(g, rounds),
        |g| routing_legacy(g, rounds),
    ));

    // the scale tier: the same two hot paths at n = 10⁶ on the huge-sparse
    // generators, few rounds and few iterations — these rows exist to catch
    // per-round neighbor-iteration regressions that only show once the
    // working set falls out of cache, which the small-torus rows never do
    let big_n = 1_000_000;
    let big_rounds = if quick { 4 } else { 8 };
    let big_iters = if quick { 3 } else { 5 };
    let pl = gen::power_law(big_n, 2, &mut gen::seeded_rng(0xB1601));
    results.push(engine_result(
        "flood_n1e6",
        &pl,
        big_iters,
        |g| flood_new(g, big_rounds),
        |g| flood_legacy(g, big_rounds),
    ));
    drop(pl);
    let ba = gen::bounded_arboricity(big_n, 3, &mut gen::seeded_rng(0xB1602));
    results.push(engine_result(
        "routing_n1e6",
        &ba,
        big_iters,
        |g| routing_new(g, big_rounds),
        |g| routing_legacy(g, big_rounds),
    ));
    drop(ba);

    // star elimination: round-free kernel (Lemma 3.1)
    let mut rng = gen::seeded_rng(0xE21);
    let planar = gen::random_planar(if quick { 2_000 } else { 20_000 }, 0.5, &mut rng);
    let (star_ns, elim) = time_iters(iters, || star_elimination(&planar));
    let kept = elim.kept.iter().filter(|&&k| k).count() as u64;
    // kept-vertex count doubles as a determinism check
    results.push(round_free_result("star_elim", planar.n(), kept, star_ns));

    // the framework's two big layers alone, on the E25 input family at
    // the framework's ε' = 0.3 / 3: the adaptive decomposition, then the
    // charged gather walks of every cluster (one token per member plus
    // about the framework's out-degree share, sequential)
    let side = if quick { 40 } else { 100 };
    let noisy = gen::grid_with_noise(side, side, 0.02, &mut gen::seeded_rng(0xDEC0));
    let layer_iters = 3;
    let (decomp_ns, d) = time_iters(layer_iters, || decomp::decompose_adaptive(&noisy, 0.1));
    results.push(round_free_result("decompose_grid", noisy.n(), d.k() as u64, decomp_ns));
    let gather = || {
        let mut rng = gen::seeded_rng(0x6A7);
        let mut rounds = 0u64;
        for c in &d.clusters {
            let leader = *c.members.iter().max_by_key(|&&v| (noisy.degree(v), v)).expect("non-empty cluster");
            let counts: Vec<usize> = c
                .members
                .iter()
                .map(|&v| 1 + noisy.neighbor_vertices(v).filter(|&u| d.cluster_of[u] == d.cluster_of[v]).count() / 2)
                .collect();
            let out = routing::random_walk_routing_with_counts_exec(
                &noisy,
                &c.members,
                leader,
                &counts,
                2_000_000,
                &mut rng,
                ExecConfig::sequential(),
            );
            assert!(out.complete(), "gather_walk_grid: a cluster walk ran out of steps");
            rounds += out.rounds;
        }
        rounds
    };
    let (gather_ns, gather_rounds) = time_iters(layer_iters, gather);
    results.push(BenchResult {
        rounds: gather_rounds,
        median_ns_per_round: gather_ns / gather_rounds.max(1) as f64,
        ..round_free_result("gather_walk_grid", noisy.n(), 0, gather_ns)
    });

    // full framework at 1/2/4 threads
    let mut rng = gen::seeded_rng(0x601D);
    let fw_graph = gen::random_planar(if quick { 200 } else { 600 }, 0.5, &mut rng);
    let fw_iters = if quick { 3 } else { 5 };
    let mut fw_t1 = None;
    for threads in [1usize, 2, 4] {
        let config = FrameworkConfig {
            exec: ExecConfig::with_threads(threads),
            ..FrameworkConfig::planar(0.3, 5)
        };
        let (ns, stats) = time_iters(fw_iters, || run_framework(&fw_graph, &config).stats);
        let r = stats.rounds.max(1);
        let per_round = ns / r as f64;
        if threads == 1 {
            fw_t1 = Some(per_round);
        }
        results.push(BenchResult {
            name: format!("framework_t{threads}"),
            n: fw_graph.n(),
            rounds: stats.rounds,
            messages: stats.messages,
            median_ns: ns,
            median_ns_per_round: per_round,
            messages_per_sec: Some(stats.messages as f64 / (ns / 1e9)),
            legacy_median_ns_per_round: None,
            speedup_vs_legacy: None,
            speedup_vs_t1: fw_t1.map(|b| b / per_round),
            modeled_allocs_per_round: None,
            modeled_allocs_per_round_legacy: None,
        });
    }

    // scaling: the persistent-pool batch engine (`run_state`) and the full
    // framework at 1/2/4 workers on inputs big enough to clear the adaptive
    // work threshold, so the pool genuinely engages. Each t-row carries
    // `speedup_vs_t1`, the ratio CI gates on: a decay means per-round pool
    // overhead crept back in (the regression the pool was built to kill).
    let s_side = if quick { 48 } else { 110 };
    let s_rounds = if quick { 30 } else { 60 };
    let s_torus = gen::torus_grid(s_side, s_side);
    let mut flood_t1: Option<(f64, RoundStats)> = None;
    for threads in [1usize, 2, 4] {
        let (ns, stats) =
            time_iters(iters, || flood_batch(&s_torus, s_rounds, ExecConfig::with_threads(threads)));
        let per_round = ns / stats.rounds.max(1) as f64;
        if let Some((_, s1)) = &flood_t1 {
            // the batch engine must be bit-deterministic across thread counts
            lcg_congest::stats::compare(s1, &stats).unwrap_or_else(|e| {
                panic!("flood_scaling_t{threads} diverged from the 1-thread run: {e}")
            });
        } else {
            flood_t1 = Some((per_round, stats));
        }
        results.push(BenchResult {
            name: format!("flood_scaling_t{threads}"),
            n: s_torus.n(),
            rounds: stats.rounds,
            messages: stats.messages,
            median_ns: ns,
            median_ns_per_round: per_round,
            messages_per_sec: Some(stats.messages as f64 / (ns / 1e9)),
            legacy_median_ns_per_round: None,
            speedup_vs_legacy: None,
            speedup_vs_t1: flood_t1.as_ref().map(|(b, _)| b / per_round),
            modeled_allocs_per_round: None,
            modeled_allocs_per_round_legacy: None,
        });
    }

    let mut rng = gen::seeded_rng(0x5CA1);
    let fws_graph = gen::random_planar(if quick { 400 } else { 1200 }, 0.5, &mut rng);
    let mut fws_t1 = None;
    for threads in [1usize, 2, 4] {
        let config = FrameworkConfig {
            exec: ExecConfig::with_threads(threads),
            ..FrameworkConfig::planar(0.3, 5)
        };
        let (ns, stats) = time_iters(fw_iters, || run_framework(&fws_graph, &config).stats);
        let per_round = ns / stats.rounds.max(1) as f64;
        if threads == 1 {
            fws_t1 = Some(per_round);
        }
        results.push(BenchResult {
            name: format!("framework_scaling_t{threads}"),
            n: fws_graph.n(),
            rounds: stats.rounds,
            messages: stats.messages,
            median_ns: ns,
            median_ns_per_round: per_round,
            messages_per_sec: Some(stats.messages as f64 / (ns / 1e9)),
            legacy_median_ns_per_round: None,
            speedup_vs_legacy: None,
            speedup_vs_t1: fws_t1.map(|b| b / per_round),
            modeled_allocs_per_round: None,
            modeled_allocs_per_round_legacy: None,
        });
    }

    Suite { mode: if quick { "quick" } else { "full" }.to_string(), iters, results }
}

// --------------------------------------------------------------------------
// Regression gate.
// --------------------------------------------------------------------------

/// Compares `current` against a committed baseline JSON (as produced by
/// `--json`): every workload present in both with a `speedup_vs_legacy`
/// or `speedup_vs_t1` ratio must not decay by more than `tolerance`
/// (e.g. `0.25` = 25%). Ratios are compared — not wall times — so the
/// gate is insensitive to runner speed; the `speedup_vs_t1` clause is the
/// scaling gate: it fires when multi-thread rounds get slower *relative
/// to the same run's 1-thread rounds*, i.e. when per-round pool overhead
/// regresses. Returns the list of failures (empty = pass).
pub fn check_regression(current: &Suite, baseline: &Value, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let baseline_results = match baseline.get("results") {
        Some(Value::Array(rs)) => rs,
        _ => return vec!["baseline has no `results` array".to_string()],
    };
    for r in &current.results {
        let ratios =
            [("speedup_vs_legacy", r.speedup_vs_legacy), ("speedup_vs_t1", r.speedup_vs_t1)];
        for (kind, cur) in ratios {
            let Some(cur) = cur else { continue };
            let base = baseline_results.iter().find_map(|b| {
                let name = b.get("name").and_then(|v| match v {
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })?;
                if name == r.name {
                    b.get(kind).and_then(Value::as_f64)
                } else {
                    None
                }
            });
            let Some(base) = base else { continue };
            let floor = base * (1.0 - tolerance);
            if cur < floor {
                failures.push(format!(
                    "{}: {kind} {cur:.3} fell below {floor:.3} \
                     (baseline {base:.3}, tolerance {tolerance})",
                    r.name
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Legacy and new engines execute the same workload: stats agree.
    #[test]
    fn engines_agree_on_flood_and_routing() {
        let g = gen::torus_grid(8, 8);
        lcg_congest::stats::compare(&flood_new(&g, 5), &flood_legacy(&g, 5)).expect("flood");
        lcg_congest::stats::compare(&routing_new(&g, 5), &routing_legacy(&g, 5)).expect("routing");
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn regression_gate_passes_self_and_fails_decay() {
        let suite = Suite {
            mode: "quick".to_string(),
            iters: 1,
            results: vec![BenchResult {
                name: "flood".to_string(),
                n: 1,
                rounds: 1,
                messages: 1,
                median_ns: 1.0,
                median_ns_per_round: 1.0,
                messages_per_sec: Some(1.0),
                legacy_median_ns_per_round: Some(2.0),
                speedup_vs_legacy: Some(2.0),
                speedup_vs_t1: Some(1.5),
                modeled_allocs_per_round: Some(0),
                modeled_allocs_per_round_legacy: Some(3),
            }],
        };
        let self_baseline = suite.to_value();
        assert!(check_regression(&suite, &self_baseline, 0.25).is_empty());

        let mut decayed = suite.clone();
        decayed.results[0].speedup_vs_legacy = Some(1.0); // -50% vs baseline 2.0
        let failures = check_regression(&decayed, &self_baseline, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("flood"));

        // the scaling ratio is gated independently of the legacy ratio
        let mut scaling_decay = suite.clone();
        scaling_decay.results[0].speedup_vs_t1 = Some(1.0); // -33% vs baseline 1.5
        let failures = check_regression(&scaling_decay, &self_baseline, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("speedup_vs_t1"));
        // and a missing baseline entry is not a failure
        let renamed = Suite {
            results: vec![BenchResult { name: "other".to_string(), ..suite.results[0].clone() }],
            ..suite.clone()
        };
        assert!(check_regression(&renamed, &self_baseline, 0.25).is_empty());
    }
}
