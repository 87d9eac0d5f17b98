//! (ε, φ) expander decompositions (paper §2, Theorems 2.1/2.2 interface).
//!
//! **Substitution note (see DESIGN.md):** the paper invokes the
//! Chang–Saranurak distributed construction; downstream algorithms consume
//! only the decomposition's *guarantees* — at most an ε fraction of edges
//! between clusters, every cluster an φ-expander. This module provides the
//! sequential reference construction: recursive spectral sweep-cut
//! splitting with per-cluster certification (exact conductance for small
//! clusters, the λ₂/2 Cheeger estimate for large ones). The distributed
//! clustering counterpart lives in [`crate::distributed`], and the
//! round-cost of leader election/gathering/broadcast is charged by the
//! framework in `lcg-core`.

use lcg_graph::{Graph, GraphBuilder};

use crate::conductance;
use crate::spectral;
use crate::sweep;

/// One cluster of a decomposition, with its conductance certificates.
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// Vertices of the cluster (host-graph ids, sorted).
    pub members: Vec<usize>,
    /// Exact conductance of the induced subgraph, when small enough to
    /// compute (`n ≤ 16`); `None` for single vertices / edgeless clusters.
    pub phi_exact: Option<f64>,
    /// Spectral (Cheeger) estimate `λ₂/2 ≤ Φ` for larger clusters.
    pub phi_spectral_lower: Option<f64>,
    /// Conductance of the best sweep cut found when the split loop stopped
    /// — an upper-bound witness for Φ of the cluster.
    pub sweep_upper: Option<f64>,
}

impl ClusterInfo {
    /// The best available lower-bound-style estimate of the cluster's
    /// conductance: exact if known, else the spectral estimate, else 1.0
    /// for trivial (≤ 2 vertex) clusters.
    pub fn phi(&self) -> f64 {
        if let Some(p) = self.phi_exact {
            return p;
        }
        if let Some(p) = self.phi_spectral_lower {
            return p;
        }
        1.0
    }
}

/// An (ε, φ) expander decomposition of a host graph.
#[derive(Debug, Clone)]
pub struct ExpanderDecomposition {
    /// Cluster id of each vertex.
    pub cluster_of: Vec<usize>,
    /// Per-cluster information, indexed by cluster id.
    pub clusters: Vec<ClusterInfo>,
    /// Ids of inter-cluster edges.
    pub cut_edges: Vec<usize>,
    /// The conductance threshold used for splitting.
    pub phi_cut: f64,
    /// The requested ε.
    pub epsilon: f64,
}

impl ExpanderDecomposition {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.clusters.len()
    }

    /// Fraction of edges that are inter-cluster (`|E^r| / |E|`); 0 for
    /// edgeless graphs.
    pub fn cut_fraction(&self, g: &Graph) -> f64 {
        if g.m() == 0 {
            0.0
        } else {
            self.cut_edges.len() as f64 / g.m() as f64
        }
    }

    /// The minimum certified/estimated conductance over all non-singleton
    /// clusters (1.0 if all clusters are trivial).
    pub fn min_cluster_phi(&self) -> f64 {
        self.clusters
            .iter()
            .filter(|c| c.members.len() > 2)
            .map(|c| c.phi())
            .fold(1.0, f64::min)
    }

    /// Checks structural invariants: `cluster_of` is a partition consistent
    /// with `clusters`, every cluster induces a connected subgraph, and
    /// `cut_edges` is exactly the set of edges between different clusters.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let n = g.n();
        if self.cluster_of.len() != n {
            return Err("cluster_of length mismatch".into());
        }
        let mut seen = vec![false; n];
        for (id, c) in self.clusters.iter().enumerate() {
            if c.members.is_empty() {
                return Err(format!("cluster {id} empty"));
            }
            for &v in &c.members {
                if seen[v] {
                    return Err(format!("vertex {v} in two clusters"));
                }
                seen[v] = true;
                if self.cluster_of[v] != id {
                    return Err(format!("cluster_of[{v}] inconsistent"));
                }
            }
            let (sub, _) = g.induced_subgraph(&c.members);
            if !sub.is_connected() {
                return Err(format!("cluster {id} not connected"));
            }
        }
        if seen.iter().any(|&b| !b) {
            return Err("some vertex unassigned".into());
        }
        let boundary: std::collections::BTreeSet<usize> = g
            .edges()
            .filter(|&(_, u, v)| self.cluster_of[u] != self.cluster_of[v])
            .map(|(e, _, _)| e)
            .collect();
        let ours: std::collections::BTreeSet<usize> = self.cut_edges.iter().copied().collect();
        if boundary != ours {
            return Err("cut_edges inconsistent with clustering".into());
        }
        Ok(())
    }
}

/// Threshold below which clusters are certified by exact (exponential)
/// conductance computation.
const EXACT_LIMIT: usize = 16;

/// The worst-case split threshold `φ = ε / (4·log₂(m) + 4)`.
fn paper_phi(g: &Graph, epsilon: f64) -> f64 {
    let m = g.m().max(2) as f64;
    epsilon / (4.0 * m.log2() + 4.0)
}

/// Computes an (ε, φ) expander decomposition with
/// `φ = ε / (4·log₂(m) + 4)` (the `φ = Ω(ε / log n)` scale that is
/// existentially optimal, per §2 of the paper).
///
/// The standard charging argument bounds the cut edges: every split
/// removes at most `φ_cut · min-side-volume` edges, and a vertex's volume
/// can be on the smaller side at most `log₂(vol)` times, so the total is
/// at most `φ_cut · vol(G) · log₂(vol(G)) / 2 ≤ ε·|E|` for this `φ_cut`.
///
/// # Examples
///
/// ```
/// use lcg_graph::gen;
/// use lcg_expander::decomp::decompose;
///
/// let mut rng = gen::seeded_rng(5);
/// let g = gen::stacked_triangulation(120, &mut rng);
/// let d = decompose(&g, 0.3);
/// d.validate(&g).unwrap();
/// assert!(d.cut_fraction(&g) <= 0.3);
/// ```
pub fn decompose(g: &Graph, epsilon: f64) -> ExpanderDecomposition {
    decompose_with_phi(g, epsilon, paper_phi(g, epsilon))
}

/// Adaptive expander decomposition: finds the **largest** split threshold
/// (by halving from `ε/2`) whose measured cut fraction still respects the
/// ε budget, then returns that decomposition.
///
/// Rationale: the `φ = Θ(ε/log n)` of [`decompose`] is the *worst-case*
/// threshold under the charging argument; on sparse real instances the
/// cuts found are far cheaper than the worst case, so much larger φ (and
/// hence much better-connected, smaller clusters) fit the same budget.
/// The returned decomposition always satisfies the Theorem 2.6 cut
/// contract *by construction* — the adaptivity only trades cluster
/// granularity. At laptop sizes the conservative φ keeps most sparse
/// graphs in one cluster; this is the variant the framework uses so the
/// multi-cluster machinery is actually exercised (see EXPERIMENTS.md E1).
///
/// One [`SplitTree`] serves the whole halving ladder: each φ is a pruning
/// of the tree the first (largest) φ expanded.
pub fn decompose_adaptive(g: &Graph, epsilon: f64) -> ExpanderDecomposition {
    let mut tree = SplitTree::new(g);
    let floor = paper_phi(g, epsilon);
    let mut phi = epsilon / 2.0;
    loop {
        if g.m() == 0 || (tree.replay(phi).1 as f64) <= epsilon * g.m() as f64 {
            return tree.prune(epsilon, phi);
        }
        phi /= 2.0;
        if phi < floor {
            return tree.prune(epsilon, floor);
        }
    }
}

/// Expander decomposition with an explicit split threshold `phi_cut`:
/// recursively split along any sweep cut of conductance `< phi_cut`.
pub fn decompose_with_phi(g: &Graph, epsilon: f64, phi_cut: f64) -> ExpanderDecomposition {
    SplitTree::new(g).prune(epsilon, phi_cut)
}

/// The root node: the whole vertex set, split into connected components.
const ROOT: usize = 0;

/// A cluster node of one replay, with its (spectral, sweep) certificates
/// when it is an unsplit cut node.
type Leaf = (usize, Option<(f64, f64)>);

/// The recursive sweep-cut split tree of one graph, expanded lazily.
///
/// A vertex set's spectral sweep cut does not depend on the split
/// threshold, so the recursion at any φ is this one tree pruned at every
/// cut node whose conductance is `≥ φ`. [`SplitTree::prune`] replays the
/// construction's LIFO work stack over the tree (components first, then
/// the cut's two sides, the second side popped first), so cluster ids,
/// members and certificates are exactly those of a from-scratch recursion
/// at that φ. A node is expanded — induced subgraph, λ₂, sweep cut — the
/// first time a replay visits it; later replays at smaller φ only revisit
/// expanded nodes.
///
/// Member sets are ranges of one vertex permutation: expanding a node
/// stably partitions its range into its children's ranges, so the tree
/// costs `O(n + nodes)` memory and every range is sorted until its node
/// is expanded.
///
/// # Examples
///
/// ```
/// use lcg_graph::gen;
/// use lcg_expander::decomp::{decompose_with_phi, SplitTree};
///
/// let g = gen::grid(8, 8);
/// let mut tree = SplitTree::new(&g);
/// let coarse = tree.prune(0.3, 0.05);
/// let fine = tree.prune(0.3, 0.2);
/// assert!(coarse.k() <= fine.k());
/// assert_eq!(fine.cluster_of, decompose_with_phi(&g, 0.3, 0.2).cluster_of);
/// ```
pub struct SplitTree<'g> {
    g: &'g Graph,
    /// Vertex permutation; node `i` owns `perm[nodes[i].range]`.
    perm: Vec<usize>,
    nodes: Vec<Node>,
    /// Scratch host → local id map, `u32::MAX` outside the set at hand.
    local: Vec<u32>,
}

struct Node {
    range: std::ops::Range<usize>,
    kind: Kind,
}

#[derive(Clone, Copy)]
enum Kind {
    /// Not yet visited by any replay.
    Unexpanded,
    /// At most two vertices or no edges: always a cluster.
    Trivial,
    /// Disconnected: always splits into its components, which are the
    /// nodes `first..end` in component order.
    Components { first: usize, end: usize },
    /// Connected with a sweep cut: splits into `children` (the cut side,
    /// then the rest) iff `conductance < φ`.
    Cut {
        lower: f64,
        conductance: f64,
        cut_edges: usize,
        children: [usize; 2],
    },
}

impl<'g> SplitTree<'g> {
    /// Starts the tree of `g`: the root and one unexpanded node per
    /// connected component. `O(n + m)`; no spectral work happens here.
    pub fn new(g: &'g Graph) -> SplitTree<'g> {
        let n = g.n();
        let mut tree = SplitTree {
            g,
            perm: (0..n).collect(),
            nodes: vec![Node::new(0..n)],
            local: vec![u32::MAX; n],
        };
        let (comp, k) = g.connected_components();
        let first = tree.partition(0..n, k, |i| comp[i]);
        tree.nodes[ROOT].kind = Kind::Components { first, end: first + k };
        tree
    }

    /// The decomposition at split threshold `phi_cut`, identical to the
    /// recursive construction at that threshold.
    pub fn prune(&mut self, epsilon: f64, phi_cut: f64) -> ExpanderDecomposition {
        let (leaves, _) = self.replay(phi_cut);
        let mut cluster_of = vec![usize::MAX; self.g.n()];
        let mut clusters = Vec::with_capacity(leaves.len());
        for (id, certs) in leaves {
            let info = self.cluster_info(id, certs);
            for &v in &info.members {
                cluster_of[v] = clusters.len();
            }
            clusters.push(info);
        }
        let cut_edges: Vec<usize> = self
            .g
            .edges()
            .filter(|&(_, u, v)| cluster_of[u] != cluster_of[v])
            .map(|(e, _, _)| e)
            .collect();
        ExpanderDecomposition {
            cluster_of,
            clusters,
            cut_edges,
            phi_cut,
            epsilon,
        }
    }

    /// Replays the LIFO work stack at `phi_cut`: the cluster nodes in
    /// cluster-id order with their (spectral, sweep) certificates, and the
    /// number of inter-cluster edges. Every such edge is separated by
    /// exactly one taken cut (components share no edge), so the count is
    /// the sum of the taken cuts' sizes.
    fn replay(&mut self, phi_cut: f64) -> (Vec<Leaf>, usize) {
        let mut leaves = Vec::new();
        let mut cut_count = 0usize;
        let mut stack = vec![ROOT];
        while let Some(id) = stack.pop() {
            self.expand(id);
            match self.nodes[id].kind {
                Kind::Unexpanded => unreachable!("expand() leaves no node unexpanded"),
                Kind::Trivial => leaves.push((id, None)),
                Kind::Components { first, end } => stack.extend(first..end),
                Kind::Cut {
                    conductance,
                    cut_edges,
                    children,
                    ..
                } if conductance < phi_cut => {
                    cut_count += cut_edges;
                    stack.extend(children);
                }
                Kind::Cut { lower, conductance, .. } => leaves.push((id, Some((lower, conductance)))),
            }
        }
        (leaves, cut_count)
    }

    /// Computes a node's kind on first visit.
    fn expand(&mut self, id: usize) {
        if !matches!(self.nodes[id].kind, Kind::Unexpanded) {
            return;
        }
        let range = self.nodes[id].range.clone();
        let sub = induced(self.g, &self.perm[range.clone()], &mut self.local);
        // a cut side may be disconnected: split it by components first
        let (scomp, sk) = sub.connected_components();
        let kind = if sk > 1 {
            let first = self.partition(range, sk, |i| scomp[i]);
            Kind::Components { first, end: first + sk }
        } else if sub.n() <= 2 || sub.m() == 0 {
            Kind::Trivial
        } else {
            let spec = spectral::lambda2(&sub, 1e-9, 4_000);
            let cut = sweep::sweep_cut(&sub, &spec.sweep_values(&sub))
                .expect("connected graph with >= 1 edge has a sweep cut");
            let first = self.partition(range, 2, |i| usize::from(!cut.in_s[i]));
            Kind::Cut {
                lower: spec.conductance_lower_bound(),
                conductance: cut.conductance,
                cut_edges: cut.cut_edges,
                children: [first, first + 1],
            }
        };
        self.nodes[id].kind = kind;
    }

    /// Stably partitions `perm[range]` into `parts` consecutive child
    /// ranges by `part_of(local index)`, appends one node per part, and
    /// returns the first child's id.
    fn partition(&mut self, range: std::ops::Range<usize>, parts: usize, part_of: impl Fn(usize) -> usize) -> usize {
        let mut bounds = vec![0usize; parts + 1];
        for i in 0..range.len() {
            bounds[part_of(i) + 1] += 1;
        }
        for p in 0..parts {
            bounds[p + 1] += bounds[p];
        }
        let old = self.perm[range.clone()].to_vec();
        let mut fill = bounds.clone();
        for (i, v) in old.into_iter().enumerate() {
            let p = part_of(i);
            self.perm[range.start + fill[p]] = v;
            fill[p] += 1;
        }
        let first = self.nodes.len();
        for w in bounds.windows(2) {
            self.nodes.push(Node::new(range.start + w[0]..range.start + w[1]));
        }
        first
    }

    /// The cluster a node stands for: sorted members, the exact
    /// conductance when small enough, and the given certificates.
    fn cluster_info(&mut self, id: usize, spectral_and_sweep: Option<(f64, f64)>) -> ClusterInfo {
        let mut members = self.perm[self.nodes[id].range.clone()].to_vec();
        members.sort_unstable();
        let phi_exact = if members.len() <= EXACT_LIMIT {
            let sub = induced(self.g, &members, &mut self.local);
            conductance::exact_conductance(&sub).map(|(phi, _)| phi)
        } else {
            None
        };
        ClusterInfo {
            members,
            phi_exact,
            phi_spectral_lower: spectral_and_sweep.map(|(l, _)| l),
            sweep_upper: spectral_and_sweep.map(|(_, u)| u),
        }
    }
}

impl Node {
    fn new(range: std::ops::Range<usize>) -> Node {
        Node {
            range,
            kind: Kind::Unexpanded,
        }
    }
}

/// `G[members]` with local ids in `members` order — the graph
/// `Graph::induced_subgraph` builds, in `O(vol(members))` instead of
/// `O(n + m)`. `local` must be all `u32::MAX` and is left that way.
fn induced(g: &Graph, members: &[usize], local: &mut [u32]) -> Graph {
    for (i, &v) in members.iter().enumerate() {
        local[v] = i as u32;
    }
    let mut b = GraphBuilder::new(members.len());
    for (i, &v) in members.iter().enumerate() {
        for u in g.neighbor_vertices(v) {
            let j = local[u];
            if j != u32::MAX && (i as u32) < j {
                b.add_edge(i, j as usize);
            }
        }
    }
    for &v in members {
        local[v] = u32::MAX;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn expander_stays_whole() {
        // K16 is a great expander: no cut below any reasonable phi
        let g = gen::complete(16);
        let d = decompose(&g, 0.2);
        d.validate(&g).unwrap();
        assert_eq!(d.k(), 1);
        assert!(d.cut_edges.is_empty());
        assert!(d.clusters[0].phi_exact.unwrap() > 0.5);
    }

    #[test]
    fn dumbbell_splits_at_bridge() {
        let k8 = gen::complete(8);
        let mut b = lcg_graph::GraphBuilder::new(16);
        for (_, u, v) in k8.edges() {
            b.add_edge(u, v);
            b.add_edge(u + 8, v + 8);
        }
        b.add_edge(0, 8);
        let g = b.build();
        // the bridge cut has conductance 1/57 ≈ 0.0175: any phi_cut above
        // that must split the dumbbell exactly there
        let d = decompose_with_phi(&g, 0.2, 0.05);
        d.validate(&g).unwrap();
        assert_eq!(d.k(), 2);
        assert_eq!(d.cut_edges.len(), 1);
        // while the default (conservative) phi keeps it whole
        let d2 = decompose(&g, 0.2);
        d2.validate(&g).unwrap();
        assert_eq!(d2.k(), 1);
    }

    #[test]
    fn cut_fraction_bounded_on_planar() {
        let mut rng = gen::seeded_rng(120);
        for eps in [0.1, 0.2, 0.4] {
            let g = gen::stacked_triangulation(200, &mut rng);
            let d = decompose(&g, eps);
            d.validate(&g).unwrap();
            assert!(
                d.cut_fraction(&g) <= eps,
                "eps = {eps}, got {}",
                d.cut_fraction(&g)
            );
        }
    }

    #[test]
    fn cut_fraction_bounded_on_grid_and_ktree() {
        let mut rng = gen::seeded_rng(121);
        let grids: Vec<Graph> = vec![gen::grid(15, 15), gen::ktree(150, 3, &mut rng)];
        for g in &grids {
            let d = decompose(g, 0.25);
            d.validate(g).unwrap();
            assert!(d.cut_fraction(g) <= 0.25, "got {}", d.cut_fraction(g));
        }
    }

    #[test]
    fn clusters_exceed_phi_cut() {
        let mut rng = gen::seeded_rng(122);
        let g = gen::random_planar(150, 0.6, &mut rng);
        let d = decompose(&g, 0.3);
        d.validate(&g).unwrap();
        // every non-trivial cluster's *measured* conductance estimate is at
        // least phi_cut (the loop only stops when no sweep cut beats it;
        // small clusters are verified exactly)
        for c in &d.clusters {
            if let Some(phi) = c.phi_exact {
                if c.members.len() > 2 {
                    assert!(
                        phi >= d.phi_cut - 1e-9,
                        "cluster of size {} has phi {} < {}",
                        c.members.len(),
                        phi,
                        d.phi_cut
                    );
                }
            }
            if let Some(up) = c.sweep_upper {
                assert!(up >= d.phi_cut - 1e-9);
            }
        }
    }

    #[test]
    fn disconnected_input_ok() {
        let g = gen::grid(4, 4).disjoint_union(&gen::cycle(6));
        let d = decompose(&g, 0.3);
        d.validate(&g).unwrap();
        assert!(d.k() >= 2);
    }

    #[test]
    fn singleton_and_tiny_graphs() {
        let g = lcg_graph::GraphBuilder::new(1).build();
        let d = decompose(&g, 0.5);
        d.validate(&g).unwrap();
        assert_eq!(d.k(), 1);

        let g = gen::path(2);
        let d = decompose(&g, 0.5);
        d.validate(&g).unwrap();
        assert_eq!(d.k(), 1);
    }

    #[test]
    fn hypercube_tightness_example() {
        // Paper §2: hypercubes show φ = O(1/log n) after any constant-
        // fraction removal. Decomposing Q6 with a moderate ε must either
        // keep it whole (Q_d has conductance Θ(1/d)) or produce clusters
        // with conductance O(1/log n): min cluster phi is small either way.
        let g = gen::hypercube(6);
        let d = decompose(&g, 0.3);
        d.validate(&g).unwrap();
        assert!(d.cut_fraction(&g) <= 0.3);
    }

    #[test]
    fn smaller_epsilon_cuts_fewer_edges() {
        let mut rng = gen::seeded_rng(123);
        let g = gen::stacked_triangulation(150, &mut rng);
        let loose = decompose(&g, 0.4);
        let tight = decompose(&g, 0.05);
        assert!(tight.cut_edges.len() <= loose.cut_edges.len());
    }
}
