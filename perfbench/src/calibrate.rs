//! Host-speed reference: a fixed computation of the benchmark's own,
//! independent of the library, timed between solves so that host time can
//! be stated relative to what the host delivered at that moment.

use std::time::Instant;

use crate::{mix, secs};

/// A fixed random graph in CSR form and the buffers a breadth-first search
/// over it needs. Nothing in it depends on the workload seed or on the
/// library, so no change to the program moves its time.
pub struct Reference {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Reference {
    /// A random `degree`-out graph on `n` vertices, symmetrised.
    pub fn new(n: usize, degree: usize) -> Reference {
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * n * degree);
        for v in 0..n {
            for k in 0..degree {
                let u = (mix((v * degree + k) as u64) % n as u64) as usize;
                if u != v {
                    edges.push((v as u32, u as u32));
                    edges.push((u as u32, v as u32));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(v, _) in &edges {
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let neighbors = edges.into_iter().map(|(_, u)| u).collect();
        Reference {
            offsets,
            neighbors,
            dist: vec![u32::MAX; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// One breadth-first search from `source`; returns the sum of
    /// distances, so the work cannot be optimised away.
    pub fn bfs(&mut self, source: u32) -> u64 {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[source as usize] = 0;
        self.queue.push(source);
        let mut head = 0;
        let mut total = 0u64;
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            let d = self.dist[v];
            total += d as u64;
            let (a, b) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            for &u in &self.neighbors[a..b] {
                if self.dist[u as usize] == u32::MAX {
                    self.dist[u as usize] = d + 1;
                    self.queue.push(u);
                }
            }
        }
        total
    }

    /// Host seconds of `reps` searches from fixed sources.
    pub fn time(&mut self, reps: usize) -> f64 {
        let n = self.dist.len() as u64;
        let t = Instant::now();
        let mut sum = 0u64;
        for r in 0..reps as u64 {
            sum = sum.wrapping_add(self.bfs((mix(r) % n) as u32));
        }
        std::hint::black_box(sum);
        secs(t)
    }
}

/// Vertices of the reference graph: small enough that the search runs
/// from cache, where it tracked the workloads' host-speed drift best.
pub const REFERENCE_N: usize = 1 << 14;

/// Out-degree of the reference graph before symmetrising.
pub const REFERENCE_DEGREE: usize = 3;

/// Searches per timed sample.
const SEARCHES: usize = 10;

/// Samples per reading; the reading is their median, which drops a sample
/// an interrupt hit.
const SAMPLES: usize = 5;

/// Host seconds of one reference reading on an undisturbed benchmark host
/// (a 2-core VM). Scaled times are host times multiplied by this over the
/// readings taken around them.
pub const NOMINAL_READING_S: f64 = 0.0055;

/// Times work in host seconds and in scaled seconds: host seconds times
/// [`NOMINAL_READING_S`] over the mean of the reference readings taken just
/// before and just after the work. When the host runs slower or faster for
/// a while, the work and the readings around it change together, so scaled
/// seconds stay put while host seconds drift.
pub struct Clock {
    reference: Reference,
    before: f64,
    host_s: f64,
    scaled_s: f64,
}

impl Clock {
    /// Builds the reference graph and takes the first reading.
    pub fn new() -> Clock {
        let mut reference = Reference::new(REFERENCE_N, REFERENCE_DEGREE);
        reference.time(SEARCHES); // warms the caches
        let before = reading(&mut reference);
        Clock {
            reference,
            before,
            host_s: 0.0,
            scaled_s: 0.0,
        }
    }

    /// Runs `f`, adding its host seconds and scaled seconds to the totals.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let dt = secs(t);
        let after = reading(&mut self.reference);
        self.host_s += dt;
        self.scaled_s += dt * NOMINAL_READING_S / ((self.before + after) / 2.0);
        self.before = after;
        out
    }

    /// The totals since the last call, as `(host_s, scaled_s)`; resets them.
    pub fn take(&mut self) -> (f64, f64) {
        let totals = (self.host_s, self.scaled_s);
        self.host_s = 0.0;
        self.scaled_s = 0.0;
        totals
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

/// One reference reading: the median of [`SAMPLES`] timed samples.
fn reading(reference: &mut Reference) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES).map(|_| reference.time(SEARCHES)).collect();
    crate::median(&samples)
}
