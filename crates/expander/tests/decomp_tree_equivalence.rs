//! Split-tree ↔ recursive-decomposition equivalence suite.
//!
//! The decomposition builds one lazily expanded sweep-cut tree per graph
//! and evaluates each split threshold by pruning it. This suite keeps the
//! *old* from-scratch recursion (a LIFO work queue of vertex sets, one
//! λ₂ + sweep per set per threshold) alive as a test-only reference and
//! checks, on random sparse graphs, that both agree on every field of the
//! decomposition at every threshold of the adaptive halving ladder plus
//! its floor, with every `f64` compared bit for bit.

use lcg_expander::decomp::{self, ClusterInfo, ExpanderDecomposition, SplitTree};
use lcg_expander::{conductance, spectral, sweep};
use lcg_graph::{gen, Graph};
use proptest::prelude::*;

/// The pre-tree recursive construction, verbatim.
fn reference_with_phi(g: &Graph, epsilon: f64, phi_cut: f64) -> ExpanderDecomposition {
    let n = g.n();
    let mut cluster_of = vec![usize::MAX; n];
    let mut clusters = Vec::new();
    let (comp, k) = g.connected_components();
    let mut queue: Vec<Vec<usize>> = vec![Vec::new(); k];
    for v in 0..n {
        queue[comp[v]].push(v);
    }
    while let Some(members) = queue.pop() {
        let (sub, map) = g.induced_subgraph(&members);
        let (scomp, sk) = sub.connected_components();
        if sk > 1 {
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); sk];
            for v in 0..sub.n() {
                parts[scomp[v]].push(map[v]);
            }
            queue.extend(parts);
            continue;
        }
        if sub.n() <= 2 || sub.m() == 0 {
            reference_finalize(&mut clusters, &mut cluster_of, members, &sub, None);
            continue;
        }
        let spec = spectral::lambda2(&sub, 1e-9, 4_000);
        let cut = sweep::sweep_cut(&sub, &spec.sweep_values(&sub)).unwrap();
        if cut.conductance < phi_cut {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for (v, &host) in map.iter().enumerate().take(sub.n()) {
                if cut.in_s[v] {
                    a.push(host);
                } else {
                    b.push(host);
                }
            }
            queue.push(a);
            queue.push(b);
        } else {
            reference_finalize(
                &mut clusters,
                &mut cluster_of,
                members,
                &sub,
                Some((spec.conductance_lower_bound(), cut.conductance)),
            );
        }
    }
    let cut_edges: Vec<usize> = g
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

fn reference_finalize(
    clusters: &mut Vec<ClusterInfo>,
    cluster_of: &mut [usize],
    mut members: Vec<usize>,
    sub: &Graph,
    spectral_and_sweep: Option<(f64, f64)>,
) {
    members.sort_unstable();
    let id = clusters.len();
    for &v in &members {
        cluster_of[v] = id;
    }
    let phi_exact = if sub.n() <= 16 {
        conductance::exact_conductance(sub).map(|(phi, _)| phi)
    } else {
        None
    };
    clusters.push(ClusterInfo {
        members,
        phi_exact,
        phi_spectral_lower: spectral_and_sweep.map(|(l, _)| l),
        sweep_upper: spectral_and_sweep.map(|(_, u)| u),
    });
}

/// The pre-tree adaptive loop: one full recursion per threshold.
fn reference_adaptive(g: &Graph, epsilon: f64) -> ExpanderDecomposition {
    let floor = floor_phi(g, epsilon);
    let mut phi = epsilon / 2.0;
    loop {
        let d = reference_with_phi(g, epsilon, phi);
        if g.m() == 0 || (d.cut_edges.len() as f64) <= epsilon * g.m() as f64 {
            return d;
        }
        phi /= 2.0;
        if phi < floor {
            return reference_with_phi(g, epsilon, floor);
        }
    }
}

fn floor_phi(g: &Graph, epsilon: f64) -> f64 {
    let m = g.m().max(2) as f64;
    epsilon / (4.0 * m.log2() + 4.0)
}

/// The adaptive halving ladder `ε/2, ε/4, …` down to its floor, plus the
/// floor itself.
fn ladder(g: &Graph, epsilon: f64) -> Vec<f64> {
    let floor = floor_phi(g, epsilon);
    let mut phis = Vec::new();
    let mut phi = epsilon / 2.0;
    while phi >= floor {
        phis.push(phi);
        phi /= 2.0;
    }
    phis.push(floor);
    phis
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn assert_same(got: &ExpanderDecomposition, want: &ExpanderDecomposition, ctx: &str) {
    assert_eq!(got.cluster_of, want.cluster_of, "{ctx}: cluster_of");
    assert_eq!(got.cut_edges, want.cut_edges, "{ctx}: cut_edges");
    assert_eq!(got.phi_cut.to_bits(), want.phi_cut.to_bits(), "{ctx}: phi_cut");
    assert_eq!(got.epsilon.to_bits(), want.epsilon.to_bits(), "{ctx}: epsilon");
    assert_eq!(got.clusters.len(), want.clusters.len(), "{ctx}: cluster count");
    for (id, (a, b)) in got.clusters.iter().zip(&want.clusters).enumerate() {
        assert_eq!(a.members, b.members, "{ctx}: cluster {id} members");
        assert_eq!(bits(a.phi_exact), bits(b.phi_exact), "{ctx}: cluster {id} phi_exact");
        assert_eq!(
            bits(a.phi_spectral_lower),
            bits(b.phi_spectral_lower),
            "{ctx}: cluster {id} phi_spectral_lower"
        );
        assert_eq!(bits(a.sweep_upper), bits(b.sweep_upper), "{ctx}: cluster {id} sweep_upper");
    }
}

/// One tree pruned down the whole ladder, then back up (revisits only
/// expanded nodes), plus the public entry points, all against the
/// reference.
fn check(g: &Graph, epsilon: f64) {
    let phis = ladder(g, epsilon);
    let wants: Vec<ExpanderDecomposition> = phis.iter().map(|&phi| reference_with_phi(g, epsilon, phi)).collect();
    let mut tree = SplitTree::new(g);
    for (phi, want) in phis.iter().zip(&wants) {
        assert_same(&tree.prune(epsilon, *phi), want, &format!("descending, eps {epsilon}, phi {phi}"));
    }
    for (phi, want) in phis.iter().zip(&wants).rev() {
        assert_same(&tree.prune(epsilon, *phi), want, &format!("ascending, eps {epsilon}, phi {phi}"));
    }
    let floor = *phis.last().expect("the ladder ends at its floor");
    assert_same(&decomp::decompose(g, epsilon), wants.last().expect("floor"), "decompose");
    assert_same(
        &decomp::decompose_with_phi(g, epsilon, floor),
        wants.last().expect("floor"),
        "decompose_with_phi",
    );
    assert_same(&decomp::decompose_adaptive(g, epsilon), &reference_adaptive(g, epsilon), "decompose_adaptive");
}

/// The four input families: sparse random planar (often disconnected),
/// stacked triangulations, noisy grids, and disjoint unions of two.
fn input(family: u8, n: usize, seed: u64) -> Graph {
    let mut rng = gen::seeded_rng(seed);
    match family {
        0 => gen::random_planar(n, 0.5, &mut rng),
        1 => gen::stacked_triangulation(n, &mut rng),
        2 => {
            let side = ((n as f64).sqrt() as usize).max(2);
            gen::grid_with_noise(side, side, 0.02, &mut rng)
        }
        _ => {
            let a = gen::random_planar(n / 2, 0.6, &mut rng);
            let b = gen::stacked_triangulation(n / 2, &mut rng);
            a.disjoint_union(&b)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn split_tree_matches_recursion(
        family in 0u8..4,
        n in 12usize..=160,
        seed in any::<u64>(),
        eps_idx in 0usize..3,
    ) {
        let epsilon = [0.05, 0.1, 0.3][eps_idx];
        check(&input(family, n, seed), epsilon);
    }
}

#[test]
fn split_tree_matches_recursion_on_fixed_inputs() {
    for (family, n, seed) in [(0u8, 200usize, 1u64), (1, 160, 2), (2, 225, 3), (3, 200, 4)] {
        let g = input(family, n, seed);
        for epsilon in [0.05, 0.1, 0.3] {
            check(&g, epsilon);
        }
    }
}

#[test]
fn edge_cases_match() {
    let empty = lcg_graph::GraphBuilder::new(0).build();
    let isolated = lcg_graph::GraphBuilder::new(5).build();
    let dumbbell = {
        let k8 = gen::complete(8);
        let mut b = lcg_graph::GraphBuilder::new(16);
        for (_, u, v) in k8.edges() {
            b.add_edge(u, v);
            b.add_edge(u + 8, v + 8);
        }
        b.add_edge(0, 8);
        b.build()
    };
    for g in [empty, isolated, gen::path(2), dumbbell, gen::grid(4, 4).disjoint_union(&gen::cycle(6))] {
        for epsilon in [0.05, 0.2, 0.5] {
            check(&g, epsilon);
        }
    }
}
