//! Live-token walk ↔ dense-scan walk equivalence suite.
//!
//! The charged Lemma 2.4 router steps only its live tokens and clears only
//! the edge loads a step touched. This suite keeps the *old* walk — every
//! step scans every token, dead or alive, and zeroes the whole load table
//! — alive as a test-only reference and checks, on random clusters with
//! duplicate members, fault plans and edge tracking, that the router's
//! outcome, traced per-edge words and caller-rng advance match it bit for
//! bit, sequentially and on the worker pool at 2 and 3 threads.

use lcg_congest::{ExecConfig, FaultPlan};
use lcg_expander::routing::{self, RoutingOutcome};
use lcg_graph::{gen, Graph};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct Token {
    pos: usize,
    alive: bool,
    rng: ChaCha8Rng,
}

/// The pre-live-list walk, verbatim in behaviour: a dense scan over all
/// tokens per step, a full load-table reset per step, and a quadratic
/// first-occurrence count lookup.
fn reference_walk(
    g: &Graph,
    members: &[usize],
    leader: usize,
    counts: &[usize],
    max_steps: usize,
    rng: &mut impl Rng,
    faults: Option<&FaultPlan>,
) -> (RoutingOutcome, Vec<(usize, u64)>) {
    let (sub, map) = g.induced_subgraph(members);
    let leader_local = map.iter().position(|&v| v == leader).unwrap();
    let count_of = |local: usize| -> usize {
        let orig = map[local];
        members.iter().position(|&v| v == orig).map(|i| counts[i]).unwrap_or(0)
    };
    let master: u64 = rng.gen();
    let mut tokens: Vec<Token> = Vec::new();
    for v in 0..sub.n() {
        for _ in 0..count_of(v) {
            let t = tokens.len() as u64;
            tokens.push(Token {
                pos: v,
                alive: v != leader_local,
                rng: ChaCha8Rng::seed_from_u64(master ^ t.wrapping_mul(0x9E3779B97F4A7C15)),
            });
        }
    }
    let total = tokens.len();
    let mut delivered = tokens.iter().filter(|t| !t.alive).count();
    let (mut lost, mut rounds, mut steps, mut max_edge_load) = (0usize, 0u64, 0usize, 0usize);
    let mut edge_load = vec![0usize; sub.m()];
    let mut edge_words = vec![0u64; sub.m()];
    let host_edge = |e: usize| {
        let (a, b) = sub.endpoints(e);
        g.edge_id(map[a], map[b]).unwrap()
    };
    while steps < max_steps && delivered + lost < total {
        steps += 1;
        edge_load.iter_mut().for_each(|l| *l = 0);
        let moves: Vec<Option<(usize, usize)>> = tokens
            .iter_mut()
            .map(|tok| {
                if !tok.alive || tok.rng.gen_bool(0.5) {
                    return None;
                }
                let d = sub.degree(tok.pos);
                let k = tok.rng.gen_range(0..d);
                sub.neighbors(tok.pos).nth(k).map(|(w, e)| (e, w))
            })
            .collect();
        let mut step_max = 0usize;
        for (tok, mv) in tokens.iter_mut().zip(&moves) {
            if let Some((e, w)) = *mv {
                edge_load[e] += 1;
                step_max = step_max.max(edge_load[e]);
                edge_words[e] += 2;
                if let Some(f) = faults {
                    if f.kills_message((steps - 1) as u64, host_edge(e), map[tok.pos], map[w]) {
                        tok.alive = false;
                        lost += 1;
                        continue;
                    }
                }
                tok.pos = w;
                if w == leader_local {
                    tok.alive = false;
                    delivered += 1;
                }
            }
        }
        rounds += step_max.max(1) as u64;
        max_edge_load = max_edge_load.max(step_max);
    }
    let mut loads: Vec<(usize, u64)> = (0..sub.m())
        .filter(|&e| edge_words[e] > 0)
        .map(|e| (host_edge(e), edge_words[e]))
        .collect();
    loads.sort_unstable();
    let outcome = RoutingOutcome {
        delivered,
        total,
        steps,
        rounds,
        max_edge_load,
    };
    (outcome, loads)
}

/// A connected cluster: the BFS ball of `size` vertices around `root`,
/// shuffled, with a few members repeated (the router keeps each vertex's
/// first count).
fn cluster(g: &Graph, root: usize, size: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let dist = g.bfs_distances(root);
    let mut ball: Vec<usize> = (0..g.n()).filter(|&v| dist[v] != usize::MAX).collect();
    ball.sort_by_key(|&v| (dist[v], v));
    ball.truncate(size.max(2));
    for i in (1..ball.len()).rev() {
        ball.swap(i, rng.gen_range(0..=i));
    }
    for _ in 0..ball.len() / 8 {
        let v = ball[rng.gen_range(0..ball.len())];
        ball.insert(rng.gen_range(0..=ball.len()), v);
    }
    ball
}

fn execs() -> [ExecConfig; 3] {
    [
        ExecConfig::sequential(),
        ExecConfig::with_threads(2).with_work_threshold(1),
        ExecConfig::with_threads(3).with_work_threshold(1),
    ]
}

fn check(g: &Graph, seed: u64, size: usize, max_steps: usize, drop_p: f64) {
    let mut pick = gen::seeded_rng(seed);
    let members = cluster(g, pick.gen_range(0..g.n()), size, &mut pick);
    let leader = members[pick.gen_range(0..members.len())];
    let counts: Vec<usize> = members.iter().map(|_| pick.gen_range(0..4)).collect();
    let mut plan = FaultPlan::drops(seed ^ 0xFA17, drop_p);
    for _ in 0..3 {
        let e = pick.gen_range(0..g.m());
        let from = pick.gen_range(0..20u64);
        plan = plan.with_link_failure(e, from, from + pick.gen_range(1..40u64));
    }
    let mut want_rng = gen::seeded_rng(seed.wrapping_add(1));
    let want = reference_walk(g, &members, leader, &counts, max_steps, &mut want_rng, Some(&plan));
    let mut plain_rng = gen::seeded_rng(seed.wrapping_add(1));
    let want_plain = reference_walk(g, &members, leader, &counts, max_steps, &mut plain_rng, None);
    for exec in execs() {
        let mut rng = gen::seeded_rng(seed.wrapping_add(1));
        let got = routing::random_walk_routing_with_counts_faulty(
            g, &members, leader, &counts, max_steps, &mut rng, exec, &plan, true,
        );
        assert_eq!(got, want, "faulty walk diverged at {} threads", exec.threads());
        assert_eq!(rng.gen::<u64>(), want_rng.clone().gen::<u64>());

        let mut rng = gen::seeded_rng(seed.wrapping_add(1));
        let got = routing::random_walk_routing_with_counts_traced(
            g, &members, leader, &counts, max_steps, &mut rng, exec,
        );
        assert_eq!(got, want_plain, "traced walk diverged at {} threads", exec.threads());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn live_walk_matches_dense_scan(
        n in 20usize..=150,
        seed in any::<u64>(),
        size in 4usize..=150,
        capped in any::<bool>(),
        drop_pct in 0u32..20,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::stacked_triangulation(n, &mut rng);
        let max_steps = if capped { 5 + (seed % 46) as usize } else { 20_000 };
        check(&g, seed, size, max_steps, f64::from(drop_pct) / 100.0);
    }
}

#[test]
fn live_walk_matches_dense_scan_on_noisy_grid() {
    let mut rng = gen::seeded_rng(7);
    let g = gen::grid_with_noise(12, 12, 0.02, &mut rng);
    for seed in 0..4 {
        check(&g, seed, 144, 50_000, 0.05);
    }
}
