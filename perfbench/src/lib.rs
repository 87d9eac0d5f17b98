//! The locongest benchmark: three closed-loop workloads, run from a seed,
//! each reporting end-to-end metrics (host time, memory, simulated CONGEST
//! cost, solution quality) and, in a separate traced run, per-layer spans
//! recorded around calls into the library's public functions.
//!
//! Nothing here changes the library: every span lives in this package.
//! See `README.md` for the metric table and `../BENCHMARK.json` for the
//! definition a benchmark harness reads.

pub mod calibrate;
pub mod certify;
pub mod engine;
pub mod faithful;
pub mod framework_grid;
pub mod replay;
pub mod spans;

use std::fmt::Write as _;
use std::time::Instant;

use lcg_congest::ExecConfig;

use calibrate::Clock;

/// Worker threads of the benchmark's workloads (the benchmark host has two
/// cores) and of the round probe's parallel side. Set explicitly, never
/// read from `LCG_THREADS`.
pub const THREADS: usize = 2;

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 2.6 framework plus the Theorem 1.2 leader solve on a noisy grid.
    FrameworkGrid,
    /// Flood, token routing and a priority MIS on million-node graphs.
    EngineN1e6,
    /// Message-faithful resilient framework under 5% message drops.
    FaithfulFaulty,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FrameworkGrid,
        Workload::EngineN1e6,
        Workload::FaithfulFaulty,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FrameworkGrid => "framework_grid",
            Workload::EngineN1e6 => "engine_n1e6",
            Workload::FaithfulFaulty => "faithful_faulty",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and repetition counts. [`Sizes::full`] is the benchmark;
/// [`Sizes::tiny`] is the smoke test's.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Side of each `grid_with_noise` instance of `framework_grid`.
    pub grid_side: usize,
    /// Instances per `framework_grid` solve.
    pub grid_batch: usize,
    /// Vertex count of both `engine_n1e6` graphs.
    pub engine_n: usize,
    /// Token-routing rounds per `engine_n1e6` solve.
    pub routing_rounds: usize,
    /// Vertex count of each `random_planar` instance of `faithful_faulty`.
    pub faithful_n: usize,
    /// Instances per `faithful_faulty` solve.
    pub faithful_batch: usize,
    /// Least set-ups per end-to-end run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Set-ups repeat until at least this many seconds have passed.
    pub setup_seconds: f64,
    /// Routing-round pairs (2 threads, 1 thread) and empty rounds timed by
    /// the traced run's round probe.
    pub probe_rounds: usize,
    /// Worker threads of every workload.
    pub threads: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` records.
    pub fn full() -> Sizes {
        Sizes {
            grid_side: 50,
            grid_batch: 6,
            engine_n: 1_000_000,
            routing_rounds: 16,
            faithful_n: 1_000,
            faithful_batch: 6,
            setup_reps: 3,
            setup_seconds: 0.5,
            probe_rounds: 16,
            threads: THREADS,
        }
    }

    /// Small enough for a debug-build smoke test.
    pub fn tiny() -> Sizes {
        Sizes {
            grid_side: 12,
            grid_batch: 2,
            engine_n: 3_000,
            routing_rounds: 4,
            faithful_n: 150,
            faithful_batch: 2,
            setup_reps: 2,
            setup_seconds: 0.0,
            probe_rounds: 3,
            threads: THREADS,
        }
    }

    /// The execution configuration of every workload.
    pub fn exec(&self) -> ExecConfig {
        ExecConfig::with_threads(self.threads)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Certificate checks made.
    pub attempted: u64,
    /// Certificate checks failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `true` when at least one check ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result, printed last.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; `Checks::into_outcome` counts a
            // non-finite value as a failed check, and it is printed as -1.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// Runs one workload: the end-to-end measurement when `trace` is false,
/// the per-layer replay when it is true.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Outcome {
    let mut out = match (workload, trace) {
        (Workload::FrameworkGrid, false) => framework_grid::end_to_end(seed, seconds, sizes),
        (Workload::FrameworkGrid, true) => framework_grid::traced(seed, sizes),
        (Workload::EngineN1e6, false) => engine::end_to_end(seed, seconds, sizes),
        (Workload::EngineN1e6, true) => engine::traced(seed, sizes),
        (Workload::FaithfulFaulty, false) => faithful::end_to_end(seed, seconds, sizes),
        (Workload::FaithfulFaulty, true) => faithful::traced(seed, sizes),
    };
    if trace {
        // every traced run reports every layer; one its workload does not
        // run reads 0
        let mut all: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: out.metric(name).unwrap_or(0.0),
            })
            .collect();
        std::mem::swap(&mut out.metrics, &mut all);
        let unknown: Vec<&str> = all
            .iter()
            .map(|m| m.name)
            .filter(|n| !PER_LAYER.iter().any(|p| p.0 == *n))
            .collect();
        assert!(
            unknown.is_empty(),
            "undeclared per-layer metrics {unknown:?}"
        );
    }
    out
}

/// Every per-layer metric a traced run reports, as `(name, unit)`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("graph.gen_s", "s"),
    ("graph.extract_s", "s"),
    ("graph.diameter_s", "s"),
    ("expander.decomp_s", "s"),
    ("expander.lambda2_s", "s"),
    ("expander.lambda2_iters", "count"),
    ("expander.clusters", "count"),
    ("expander.cut_edges", "count"),
    ("expander.gather_s", "s"),
    ("expander.walk_steps", "count"),
    ("expander.gather_rounds", "rounds"),
    ("expander.max_edge_load", "count"),
    ("congest.build_s", "s"),
    ("congest.flood_s", "s"),
    ("congest.routing_s", "s"),
    ("congest.mis_s", "s"),
    ("congest.round_ms_p50", "ms"),
    ("congest.round_ms_max", "ms"),
    ("congest.empty_round_ms", "ms"),
    ("congest.ns_per_msg", "ns"),
    ("congest.round_ms_t1", "ms"),
    ("congest.t2_speedup", "ratio"),
    ("congest.election_s", "s"),
    ("congest.election_rounds", "rounds"),
    ("congest.orientation_s", "s"),
    ("congest.orientation_rounds", "rounds"),
    ("congest.dropped_msgs", "msgs"),
    ("solvers.leader_s", "s"),
    ("solvers.optimal_frac", "ratio"),
    ("core.framework_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.attempts", "count"),
    ("core.attempt_s", "s"),
    ("core.detector_s", "s"),
    ("obs.metrics_overhead_s", "s"),
    ("obs.trace_overhead_s", "s"),
];

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of a non-empty sample (mean of the middle two when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 2;
    if v.len() % 2 == 1 {
        v[k]
    } else {
        (v[k - 1] + v[k]) / 2.0
    }
}

/// Peak resident memory of this process so far, in MB (2²⁰ bytes).
pub fn peak_rss_mb() -> f64 {
    lcg_metrics::profile::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// The deterministic output of one solve: what must repeat exactly from
/// run to run and at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// CONGEST rounds charged.
    pub rounds: u64,
    /// Simulated messages charged.
    pub messages: u64,
    /// Size of the independent set the workload produced.
    pub mis: usize,
    /// `n − |M|` for a greedy maximal matching `M`: an upper bound on α(G).
    pub alpha_bound: usize,
}

impl Counts {
    /// Counts of a framework run finished by [`certify::leader_mis`]: the
    /// run's rounds plus the finish's [`certify::FINISH_ROUNDS`], its
    /// messages, and the set's size against `g`'s bound.
    pub fn of_framework(
        g: &lcg_graph::Graph,
        out: &lcg_core::framework::FrameworkOutcome,
        mis: &certify::LeaderMis,
    ) -> Counts {
        Counts {
            rounds: out.stats.rounds + certify::FINISH_ROUNDS,
            messages: out.stats.messages,
            mis: mis.set.len(),
            alpha_bound: certify::alpha_upper_bound(g),
        }
    }
}

/// Host and scaled seconds of repeated set-ups or solves, one entry each
/// (see [`calibrate::Clock`]).
#[derive(Debug, Clone, Default)]
pub struct Times {
    /// Host seconds.
    pub host: Vec<f64>,
    /// Scaled seconds: host seconds at the reference host speed.
    pub scaled: Vec<f64>,
}

impl Times {
    fn push(&mut self, (host, scaled): (f64, f64)) {
        self.host.push(host);
        self.scaled.push(scaled);
    }
}

/// Runs `setup` at least `sizes.setup_reps` times and for at least
/// `sizes.setup_seconds`, keeping the last result (each earlier one is
/// dropped before the next starts). Returns the per-set-up times and that
/// result.
pub fn repeat_setup<T>(
    sizes: &Sizes,
    clock: &mut Clock,
    mut setup: impl FnMut() -> T,
) -> (Times, T) {
    let start = Instant::now();
    let mut times = Times::default();
    let mut kept = None;
    while times.host.len() < sizes.setup_reps.max(1) || secs(start) < sizes.setup_seconds {
        drop(kept.take());
        kept = Some(clock.run(&mut setup));
        times.push(clock.take());
    }
    (times, kept.expect("set-up runs at least once"))
}

/// Runs `solve` back to back (at least once) while another solve of median
/// host length still fits in `seconds`, certifying that every solve
/// returns the first solve's per-instance counts. `solve` runs its work
/// under the clock it is given. Returns the per-solve times and those
/// counts.
pub fn repeat_solve(
    seconds: f64,
    checks: &mut certify::Checks,
    clock: &mut Clock,
    mut solve: impl FnMut(&mut certify::Checks, &mut Clock) -> Vec<Counts>,
) -> (Times, Vec<Counts>) {
    let start = Instant::now();
    let mut times = Times::default();
    let mut first: Option<Vec<Counts>> = None;
    clock.take();
    loop {
        let counts = solve(checks, clock);
        times.push(clock.take());
        match &first {
            None => first = Some(counts),
            Some(f) => checks.check("counts repeat exactly across solves", *f == counts),
        }
        if secs(start) + median(&times.host) > seconds {
            break;
        }
    }
    (times, first.expect("the loop body runs at least once"))
}

/// The end-to-end metrics shared by every workload, from the scaled set-up
/// and solve times and the per-instance counts of one solve. Simulated
/// rounds and messages are means over the instances; throughput and the
/// quality ratio pool them.
pub fn end_to_end_metrics(setup: &Times, solve: &Times, counts: &[Counts]) -> Vec<Metric> {
    let solve_s = median(&solve.scaled);
    let k = counts.len() as f64;
    let rounds: u64 = counts.iter().map(|c| c.rounds).sum();
    let messages: u64 = counts.iter().map(|c| c.messages).sum();
    let mis: usize = counts.iter().map(|c| c.mis).sum();
    let alpha_bound: usize = counts.iter().map(|c| c.alpha_bound).sum();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(&setup.scaled)),
        m("solve_s", "s", solve_s),
        m("peak_rss_mb", "MB", peak_rss_mb()),
        m("msgs_per_s", "1/s", messages as f64 / solve_s),
        m("sim_rounds", "rounds", rounds as f64 / k),
        m("sim_msgs", "msgs", messages as f64 / k),
        m("mis_ratio_lb", "ratio", mis as f64 / alpha_bound as f64),
    ]
}

/// Sample-size note for an end-to-end run, with the host-second medians
/// beside the scaled ones the metrics report.
pub fn sample_note(setup: &Times, solve: &Times, sizes: &Sizes) -> String {
    let max = solve.scaled.iter().copied().fold(0.0, f64::max);
    format!(
        "samples: {} set-ups, {} solves (medians reported; slowest solve {max:.4} s); threads = {}; \
         host seconds: setup {:.4}, solve {:.4} (host / scaled = {:.3})",
        setup.host.len(),
        solve.host.len(),
        sizes.threads,
        median(&setup.host),
        median(&solve.host),
        median(&solve.host) / median(&solve.scaled)
    )
}

/// A SplitMix64 step: the benchmark's own seed derivation.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
