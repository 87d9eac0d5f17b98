//! `engine_n1e6`: flood to quiescence on `power_law(k=2)`, fixed token
//! routing rounds on `bounded_arboricity(a=3)`, then a priority MIS on the
//! same graph, all at n = 10⁶ — pure CONGEST engine, no decomposition.
//! Also home of the round probe every traced run uses.

use std::time::Instant;

use lcg_congest::{ExecConfig, Inbox, Model, Network, Outbox};
use lcg_graph::{gen, Graph};
use lcg_solvers::mis;

use crate::calibrate::Clock;
use crate::certify::{self, Checks};
use crate::framework_grid::corpus_seed;
use crate::spans::Spans;
use crate::{
    end_to_end_metrics, median, mix, repeat_setup, repeat_solve, sample_note, secs, Counts, Metric,
    Outcome, Sizes,
};

/// The two million-node inputs.
struct Inputs {
    /// Flood graph.
    power_law: Graph,
    /// Routing and MIS graph.
    arboricity: Graph,
}

/// The two corpus graphs. They are fixed, like the framework workloads'
/// corpus: the flood's and the MIS's round counts move with the graph, and
/// a seed-drawn pair moved `solve_s` more than the host did. The workload
/// seed drives the MIS priorities.
fn generate(sizes: &Sizes) -> Inputs {
    Inputs {
        power_law: gen::power_law(sizes.engine_n, 2, &mut gen::seeded_rng(corpus_seed(0))),
        arboricity: gen::bounded_arboricity(
            sizes.engine_n,
            3,
            &mut gen::seeded_rng(corpus_seed(1)),
        ),
    }
}

/// One network per input graph.
struct Nets<'g> {
    flood: Network<'g>,
    route: Network<'g>,
}

fn build<'g>(inputs: &'g Inputs, sizes: &Sizes) -> Nets<'g> {
    Nets {
        flood: Network::with_exec(&inputs.power_law, Model::congest(), sizes.exec()),
        route: Network::with_exec(&inputs.arboricity, Model::congest(), sizes.exec()),
    }
}

#[derive(Clone, Copy)]
struct FloodState {
    informed: bool,
    fresh: bool,
}

/// Floods from vertex 0 until no vertex has news; returns who was informed.
fn flood(net: &mut Network) -> Vec<bool> {
    let n = net.graph().n();
    let mut states = vec![
        FloodState {
            informed: false,
            fresh: false
        };
        n
    ];
    states[0] = FloodState {
        informed: true,
        fresh: true,
    };
    net.exchange_rounds(
        4 * n,
        &mut states,
        |s, _round, _v, out| {
            if s.fresh {
                for p in 0..out.ports() {
                    out.send(p, [1]);
                }
                s.fresh = false;
            }
        },
        |s, _round, _v, inbox: &Inbox| {
            if !s.informed && inbox.iter().any(Option::is_some) {
                s.informed = true;
                s.fresh = true;
            }
        },
        |s| !s.fresh,
    );
    states.into_iter().map(|s| s.informed).collect()
}

/// One token-routing round: every vertex folds its inbox into its token
/// and forwards a 2-word message on one port.
fn routing_round(net: &mut Network, tokens: &mut [u64], round: u64) {
    net.step_state(tokens, |tok, v, inbox: &Inbox, out: &mut Outbox| {
        for m in inbox.iter().flatten() {
            *tok = (*tok)
                .wrapping_add(m[0])
                .rotate_left((m[1] % 63) as u32 + 1);
        }
        if out.ports() > 0 {
            out.send((v + round as usize) % out.ports(), [*tok, round]);
        }
    });
}

/// A round in which no vertex sends: consumes whatever is pending.
fn silent_round(net: &mut Network) {
    let mut unit = vec![(); net.graph().n()];
    net.step_state(&mut unit, |_, _, _, _| {});
}

const UNDECIDED: u8 = 0;
const IN: u8 = 1;
const OUT: u8 = 2;

#[derive(Clone, Copy)]
struct MisState {
    prio: u64,
    status: u8,
    announce: bool,
}

/// Greedy MIS by fixed random priorities: in even rounds undecided
/// vertices exchange `(priority, id)` and local maxima join; in odd rounds
/// joiners announce and their undecided neighbours drop out.
fn priority_mis(net: &mut Network, seed: u64) -> Vec<usize> {
    let n = net.graph().n();
    let mut states: Vec<MisState> = (0..n)
        .map(|v| MisState {
            prio: mix(seed ^ mix(v as u64)),
            status: UNDECIDED,
            announce: false,
        })
        .collect();
    net.exchange_rounds(
        2 * n + 2,
        &mut states,
        |s, round, v, out| {
            let send = if round % 2 == 0 {
                s.status == UNDECIDED
            } else {
                s.announce
            };
            if send {
                for p in 0..out.ports() {
                    out.send(p, [s.prio, v as u64]);
                }
            }
        },
        |s, round, v, inbox: &Inbox| {
            if round % 2 == 0 {
                let mine = (s.prio, v as u64);
                if s.status == UNDECIDED && inbox.iter().flatten().all(|m| (m[0], m[1]) < mine) {
                    s.status = IN;
                    s.announce = true;
                }
            } else if s.announce {
                s.announce = false;
            } else if s.status == UNDECIDED && inbox.iter().any(Option::is_some) {
                s.status = OUT;
            }
        },
        |s| s.status != UNDECIDED && !s.announce,
    );
    (0..n).filter(|&v| states[v].status == IN).collect()
}

/// One solve: flood, `sizes.routing_rounds` routing rounds plus the silent
/// round that drains them, then the priority MIS. Certifies every stage
/// against its closed form. Each stage, with its certificates, runs under
/// `clock`.
fn solve(
    inputs: &Inputs,
    nets: &mut Nets,
    sizes: &Sizes,
    seed: u64,
    spans: &mut Spans,
    checks: &mut Checks,
    clock: &mut Clock,
) -> Counts {
    let pl = &inputs.power_law;
    let (flood_rounds, flood_msgs) = clock.run(|| {
        let before = nets.flood.stats();
        let informed = spans.time("congest.flood", || flood(&mut nets.flood));
        let fs = nets.flood.stats();
        let (rounds, msgs) = (fs.rounds - before.rounds, fs.messages - before.messages);
        checks.check("flood informs every vertex", informed.iter().all(|&b| b));
        checks.check("flood sends exactly 2m messages", msgs == 2 * pl.m() as u64);
        checks.check(
            "flood takes eccentricity(0) + 1 rounds",
            rounds == pl.eccentricity(0) as u64 + 1,
        );
        (rounds, msgs)
    });

    let ba = &inputs.arboricity;
    let (route_rounds, route_msgs) = clock.run(|| {
        let before = nets.route.stats();
        let mut tokens: Vec<u64> = (0..ba.n() as u64).collect();
        let sp = spans.open("congest.routing");
        for round in 0..sizes.routing_rounds as u64 {
            routing_round(&mut nets.route, &mut tokens, round);
        }
        silent_round(&mut nets.route);
        spans.close(sp);
        let rs = nets.route.stats();
        let (rounds, msgs) = (rs.rounds - before.rounds, rs.messages - before.messages);
        let senders = (0..ba.n()).filter(|&v| ba.degree(v) > 0).count() as u64;
        checks.check(
            "routing sends one message per non-isolated vertex per round",
            msgs == sizes.routing_rounds as u64 * senders,
        );
        checks.check(
            "routing words are 2 per message",
            rs.words - before.words == 2 * msgs,
        );
        checks.check(
            "routing takes its rounds plus the drain",
            rounds == sizes.routing_rounds as u64 + 1,
        );
        (rounds, msgs)
    });

    let (mis_rounds, mis_msgs, mis_size, alpha_bound) = clock.run(|| {
        let before = nets.route.stats();
        let set = spans.time("congest.mis", || priority_mis(&mut nets.route, seed));
        let ms = nets.route.stats();
        checks.check(
            "priority MIS is a maximal independent set",
            mis::is_maximal_independent_set(ba, &set),
        );
        (
            ms.rounds - before.rounds,
            ms.messages - before.messages,
            set.len(),
            certify::alpha_upper_bound(ba),
        )
    });
    Counts {
        rounds: flood_rounds + route_rounds + mis_rounds,
        messages: flood_msgs + route_msgs + mis_msgs,
        mis: mis_size,
        alpha_bound,
    }
}

/// The untraced run.
pub fn end_to_end(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    // each set-up generates both graphs and builds both networks; the
    // networks borrow the graphs, so the kept set-up is rebuilt untimed
    let mut clock = Clock::new();
    let (setup, inputs) = repeat_setup(sizes, &mut clock, || {
        let inputs = generate(sizes);
        drop(build(&inputs, sizes));
        inputs
    });
    let mut nets = build(&inputs, sizes);
    let mut checks = Checks::default();
    let mut spans = Spans::off();
    let (solve_times, counts) = repeat_solve(seconds, &mut checks, &mut clock, |checks, clock| {
        vec![solve(
            &inputs, &mut nets, sizes, seed, &mut spans, checks, clock,
        )]
    });
    let notes = vec![
        format!(
            "engine_n1e6: power_law n = {} m = {}, bounded_arboricity n = {} m = {}, {} routing rounds",
            inputs.power_law.n(),
            inputs.power_law.m(),
            inputs.arboricity.n(),
            inputs.arboricity.m(),
            sizes.routing_rounds
        ),
        sample_note(&setup, &solve_times, sizes),
    ];
    checks.into_outcome(end_to_end_metrics(&setup, &solve_times, &counts), notes)
}

/// The traced run: generation and network builds timed apart, one
/// untraced solve, one traced solve whose counts must match it, then the
/// round probe on the routing network.
pub fn traced(seed: u64, sizes: &Sizes) -> Outcome {
    let mut spans = Spans::new();
    let inputs = spans.time("graph.gen", || generate(sizes));
    let mut nets = spans.time("congest.build", || build(&inputs, sizes));
    let mut checks = Checks::default();
    let mut clock = Clock::new();
    let plain = solve(
        &inputs,
        &mut nets,
        sizes,
        seed,
        &mut Spans::off(),
        &mut checks,
        &mut clock,
    );
    let traced = solve(
        &inputs,
        &mut nets,
        sizes,
        seed,
        &mut spans,
        &mut checks,
        &mut clock,
    );
    checks.check(
        "replay: traced solve counts equal the untraced solve's",
        plain == traced,
    );
    let probe = round_probe(&mut nets.route, sizes.probe_rounds);

    let mut notes = vec![format!("engine_n1e6 traced: n = {}", sizes.engine_n)];
    notes.extend(spans.report());
    notes.push(probe.note());
    let m = |name, unit, value| Metric { name, unit, value };
    let mut metrics = vec![
        m("graph.gen_s", "s", spans.total("graph.gen")),
        m("congest.build_s", "s", spans.total("congest.build")),
        m("congest.flood_s", "s", spans.total("congest.flood")),
        m("congest.routing_s", "s", spans.total("congest.routing")),
        m("congest.mis_s", "s", spans.total("congest.mis")),
    ];
    metrics.extend(probe.metrics());
    checks.into_outcome(metrics, notes)
}

/// Per-round timings of the round probe.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Routing-round host times at [`crate::THREADS`] threads, ms.
    pub t2_ms: Vec<f64>,
    /// The same rounds at 1 thread, ms.
    pub t1_ms: Vec<f64>,
    /// Rounds in which nothing is sent or pending, ms.
    pub empty_ms: Vec<f64>,
    /// Messages each routing round sends.
    pub msgs_per_round: u64,
}

impl Probe {
    /// The probe's per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let (t2, t1, empty) = (
            median(&self.t2_ms),
            median(&self.t1_ms),
            median(&self.empty_ms),
        );
        let max = self.t2_ms.iter().copied().fold(0.0, f64::max);
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("congest.round_ms_p50", "ms", t2),
            m("congest.round_ms_max", "ms", max),
            m("congest.round_ms_t1", "ms", t1),
            m("congest.t2_speedup", "ratio", t1 / t2),
            m("congest.empty_round_ms", "ms", empty),
            m(
                "congest.ns_per_msg",
                "ns",
                (t2 - empty) * 1e6 / self.msgs_per_round.max(1) as f64,
            ),
        ]
    }

    /// A report line stating the speed-up with its base.
    pub fn note(&self) -> String {
        format!(
            "round probe: {} routing rounds of {} msgs; median {:.3} ms at {} threads vs {:.3} ms at 1 thread \
             (t2_speedup = t1 / t2 = {:.3}); empty round {:.3} ms",
            self.t2_ms.len(),
            self.msgs_per_round,
            median(&self.t2_ms),
            crate::THREADS,
            median(&self.t1_ms),
            median(&self.t1_ms) / median(&self.t2_ms),
            median(&self.empty_ms)
        )
    }
}

/// Times `rounds` token-routing rounds alternately at [`crate::THREADS`]
/// threads and at 1 thread, then `rounds` empty rounds, on `net`. Leaves
/// nothing pending and restores the network's execution configuration.
pub fn round_probe(net: &mut Network, rounds: usize) -> Probe {
    let saved = net.exec();
    let n = net.graph().n();
    let msgs_per_round = (0..n).filter(|&v| net.graph().degree(v) > 0).count() as u64;
    let mut tokens: Vec<u64> = (0..n as u64).collect();
    let (mut t2_ms, mut t1_ms, mut empty_ms) = (Vec::new(), Vec::new(), Vec::new());
    let timed = |net: &mut Network, threads: usize, round: u64, tokens: &mut [u64]| {
        net.set_exec(ExecConfig::with_threads(threads));
        let t = Instant::now();
        routing_round(net, tokens, round);
        secs(t) * 1e3
    };
    for r in 0..rounds as u64 {
        t2_ms.push(timed(net, crate::THREADS, 2 * r, &mut tokens));
        t1_ms.push(timed(net, 1, 2 * r + 1, &mut tokens));
    }
    net.set_exec(ExecConfig::with_threads(crate::THREADS));
    silent_round(net);
    for _ in 0..rounds {
        let t = Instant::now();
        silent_round(net);
        empty_ms.push(secs(t) * 1e3);
    }
    net.set_exec(saved);
    Probe {
        t2_ms,
        t1_ms,
        empty_ms,
        msgs_per_round,
    }
}
