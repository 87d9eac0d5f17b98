//! Linear-time output certificates. Every check is counted; a failed one
//! makes the run incorrect (`failed > 0`) but never aborts it.

use lcg_core::framework::FrameworkOutcome;
use lcg_graph::Graph;
use lcg_solvers::{mis, treedp};

use crate::{Metric, Outcome};

/// Branch-and-bound budget of each leader's exact MIS solve.
pub const MIS_BUDGET: u64 = 200_000;

/// Treewidth limit under which a leader solves by tree-decomposition DP.
pub const MIS_WIDTH: usize = 8;

/// CONGEST rounds the MIS finish adds: the conflict round and the greedy
/// completion round.
pub const FINISH_ROUNDS: u64 = 2;

/// Certificate tally.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub made: u64,
    /// Checks failed.
    pub failed: u64,
    /// Descriptions of the failed checks (first occurrence each).
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.made += 1;
        if !ok {
            self.failed += 1;
            if !self.failures.iter().any(|f| f == what) {
                self.failures.push(what.to_string());
            }
        }
    }

    /// Packs the tally with the run's metrics and notes, checking last that
    /// every metric is finite.
    pub fn into_outcome(mut self, metrics: Vec<Metric>, mut notes: Vec<String>) -> Outcome {
        self.check(
            "every metric is finite",
            metrics.iter().all(|m| m.value.is_finite()),
        );
        notes.extend(
            self.failures
                .iter()
                .map(|f| format!("CERTIFICATE FAILED: {f}")),
        );
        notes.push(format!(
            "certificates: {} made, {} failed (failed_frac = {})",
            self.made,
            self.failed,
            if self.made == 0 {
                1.0
            } else {
                self.failed as f64 / self.made as f64
            }
        ));
        Outcome {
            attempted: self.made,
            failed: self.failed,
            metrics,
            notes,
        }
    }
}

/// `n − |M|` for a greedy maximal matching `M` (edges in id order). Every
/// independent set misses at least one endpoint of each matched edge, so
/// this bounds α(G) from above.
pub fn alpha_upper_bound(g: &Graph) -> usize {
    let mut matched = vec![false; g.n()];
    let mut size = 0;
    for (_, u, v) in g.edges() {
        if u != v && !matched[u] && !matched[v] {
            matched[u] = true;
            matched[v] = true;
            size += 1;
        }
    }
    g.n() - size
}

/// The Theorem 1.2 finish of a framework run.
#[derive(Debug, Clone)]
pub struct LeaderMis {
    /// The final maximal independent set, sorted.
    pub set: Vec<usize>,
    /// Clusters whose leader's solution is proven optimal.
    pub optimal_clusters: usize,
    /// Clusters solved.
    pub clusters: usize,
}

/// Each leader solves its cluster with `treedp::mis_auto`, conflicts on cut
/// edges drop the larger endpoint, and a greedy pass in id order completes
/// the union to a maximal independent set — the Theorem 1.2 pipeline plus
/// the completion its fault-resilient variant adds. Certifies each leader's
/// solution, the resolved union and the completion.
pub fn leader_mis(g: &Graph, out: &FrameworkOutcome, checks: &mut Checks) -> LeaderMis {
    let mut in_set = vec![false; g.n()];
    let mut optimal_clusters = 0;
    let mut leaders_ok = true;
    for c in &out.clusters {
        let (set, optimal) = treedp::mis_auto(&c.subgraph, MIS_WIDTH, MIS_BUDGET);
        optimal_clusters += usize::from(optimal);
        leaders_ok &= mis::is_independent_set(&c.subgraph, &set);
        for &local in &set {
            in_set[c.mapping[local]] = true;
        }
    }
    checks.check(
        "every leader's solution is independent in its cluster",
        leaders_ok,
    );
    for &e in &out.decomposition.cut_edges {
        let (u, v) = g.endpoints(e);
        if in_set[u] && in_set[v] {
            in_set[u.max(v)] = false;
        }
    }
    let resolved: Vec<usize> = (0..g.n()).filter(|&v| in_set[v]).collect();
    checks.check(
        "union is independent after conflict resolution",
        mis::is_independent_set(g, &resolved),
    );
    for v in 0..g.n() {
        if !in_set[v] && g.neighbor_vertices(v).all(|u| !in_set[u]) {
            in_set[v] = true;
        }
    }
    let set: Vec<usize> = (0..g.n()).filter(|&v| in_set[v]).collect();
    checks.check(
        "completed union is a maximal independent set",
        mis::is_maximal_independent_set(g, &set),
    );
    LeaderMis {
        set,
        optimal_clusters,
        clusters: out.clusters.len(),
    }
}

/// Certifies that a framework outcome is a valid clustering of `g`: a
/// partition into connected clusters whose cut-edge list is exact, with
/// one member leader per cluster.
pub fn valid_partition(g: &Graph, out: &FrameworkOutcome, checks: &mut Checks) {
    let validated = out.decomposition.validate(g);
    checks.check(
        "decomposition is a partition into connected clusters with exact cut edges",
        validated.is_ok(),
    );
    let mut seen = vec![0u32; g.n()];
    let mut leaders_ok = true;
    for c in &out.clusters {
        for &v in &c.members {
            seen[v] += 1;
        }
        leaders_ok &=
            c.members.binary_search(&c.leader).is_ok() && c.subgraph.n() == c.members.len();
    }
    checks.check(
        "cluster runs cover every vertex exactly once",
        seen.iter().all(|&k| k == 1),
    );
    checks.check("every leader is a member of its cluster", leaders_ok);
}

/// The Theorem 2.6 contract of a fault-free run: a valid partition, at most
/// `ε·min(|V|, |E|)` cut edges, every gathering complete, the elected
/// leader agreed on and equal to the cluster's max (intra-cluster degree,
/// id), and the phase rounds partitioning the run.
pub fn theorem_2_6(g: &Graph, out: &FrameworkOutcome, epsilon: f64, checks: &mut Checks) {
    valid_partition(g, out, checks);
    let budget = epsilon * g.n().min(g.m()) as f64;
    checks.check(
        "cut edges <= eps * min(|V|, |E|)",
        out.cut_edges() as f64 <= budget,
    );
    let cluster_of = &out.decomposition.cluster_of;
    let deg_in: Vec<usize> = (0..g.n())
        .map(|v| {
            g.neighbor_vertices(v)
                .filter(|&u| cluster_of[u] == cluster_of[v])
                .count()
        })
        .collect();
    let mut delivered = true;
    let mut elected = true;
    for c in &out.clusters {
        delivered &= c.routing.delivered == c.routing.total;
        let best = c.members.iter().copied().max_by_key(|&v| (deg_in[v], v));
        elected &= c.election_agrees && best == Some(c.leader);
    }
    checks.check("every cluster's gathering delivered == total", delivered);
    checks.check(
        "every leader is its cluster's max (degree, id) and agreed on",
        elected,
    );
    let p = out.phases;
    checks.check(
        "phase rounds partition the run's rounds",
        p.election + p.orientation + p.gathering + p.broadcast == out.stats.rounds,
    );
}
