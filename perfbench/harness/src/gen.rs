//! Deterministic request generation for the serve workloads.
//!
//! Everything here is a pure function of its seed: the pool of distinct
//! solve requests, the Zipf key sequence and the send schedule.
//! The daemon only ever sees the generated lines.
//!
//! Request *shapes* (task count, ε, heuristic, period factor, topology)
//! are stratified over the pool index with a golden-ratio sequence and
//! fixed cycles, so every pool offers the same mix. Both serve workloads
//! draw their requests from a fixed catalog, as a cache study does; the
//! workload seed draws the key sequence (Zipf ranks, or the order of the
//! distinct requests) and the arrival times.

use ltf_core::AlgoConfig;
use ltf_experiments::campaign::{TopologyShape, TopologySpec};
use ltf_experiments::{gen_instance_on, PaperWorkload};
use ltf_graph::TaskGraph;
use ltf_platform::{CommMode, Platform};
use ltf_serve::proto::{to_line, RequestConfig};
use ltf_serve::SolveRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One distinct solve request of a workload's pool.
#[derive(Debug, Clone)]
pub struct Distinct {
    /// Canonical heuristic name (`ltf` or `rltf`).
    pub heuristic: &'static str,
    /// The solve configuration the request carries.
    pub cfg: AlgoConfig,
    /// The application graph.
    pub graph: TaskGraph,
    /// The platform (matrix, or routed in Contended mode).
    pub platform: Platform,
    /// Routed topology, for Contended requests.
    pub topology: Option<TopologySpec>,
    /// The instance seed (regenerates the instance under another mode).
    pub instance_seed: u64,
    /// The workload the instance was drawn from.
    pub workload: PaperWorkload,
    /// The request line after its leading `{"id":N,`.
    body: String,
}

impl Distinct {
    /// The wire line of this request with correlation id `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}", self.body)
    }

    fn new(
        heuristic: &'static str,
        period_factor: f64,
        workload: PaperWorkload,
        instance_seed: u64,
        topology: Option<TopologySpec>,
    ) -> Self {
        let inst = gen_instance_on(&workload, instance_seed, topology.as_ref());
        // The configuration the daemon resolves from the wire form.
        let mut cfg = AlgoConfig::new(workload.epsilon, inst.period * period_factor);
        cfg.chunk_size = None;
        let req = SolveRequest {
            id: Some(0),
            heuristic: heuristic.to_string(),
            graph: inst.graph.clone(),
            platform: inst.platform.clone(),
            config: RequestConfig {
                epsilon: cfg.epsilon,
                period: cfg.period,
                chunk_size: None,
                seed: None,
                use_one_to_one: None,
                rule1: None,
                rule2: None,
                cluster_ties: None,
            },
        };
        let full = to_line(&req);
        let body = full
            .strip_prefix("{\"id\":0,")
            .expect("solve requests serialize the id first")
            .to_string();
        Self {
            heuristic,
            cfg,
            graph: inst.graph,
            platform: inst.platform,
            topology,
            instance_seed,
            workload,
            body,
        }
    }
}

/// SplitMix64 of `seed` and `i`: independent per-index seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Golden-ratio low-discrepancy point in `[0, 1)` for index `i`.
fn stratum(i: usize) -> f64 {
    ((i as f64 + 1.0) * 0.618_033_988_749_894_9).fract()
}

/// A task count in `[lo, hi]` stratified over the pool index.
fn stratified_tasks(i: usize, lo: usize, hi: usize) -> usize {
    lo + ((stratum(i) * (hi - lo + 1) as f64) as usize).min(hi - lo)
}

/// Distinct keys of the `serve-zipf` pool (4× the default LRU capacity).
pub const ZIPF_POOL: usize = 1024;
/// Seed of the fixed `serve-zipf` catalog.
pub const ZIPF_CATALOG: u64 = 0x5EED_CA7A;
/// Seed of the fixed `serve-cold-routed` catalog.
pub const COLD_CATALOG: u64 = 0xC01D;
/// Period factors a client probing for the feasible period would send.
pub const PERIOD_FACTORS: [f64; 3] = [1.0, 0.75, 0.5];

/// The `serve-zipf` pool: §5 `PaperWorkload` instances, v ∈ [50, 150],
/// m = 20, ε ∈ {1, 3}, LTF or R-LTF, uniform matrix platforms, periods
/// at {1, 0.75, 0.5}·Δ. Index 0 is the most popular key.
pub fn zipf_pool(seed: u64, threads: usize) -> Vec<Distinct> {
    let idx: Vec<usize> = (0..ZIPF_POOL).collect();
    ltf_core::par::parallel_map(&idx, threads, |&i| {
        let epsilon = [1u8, 3][i % 2];
        let heuristic = ["ltf", "rltf"][(i / 2) % 2];
        let factor = PERIOD_FACTORS[(i / 4) % 3];
        let v = stratified_tasks(i, 50, 150);
        let workload = PaperWorkload {
            tasks: (v, v),
            procs: 20,
            epsilon,
            ..PaperWorkload::default()
        };
        Distinct::new(heuristic, factor, workload, mix(seed, i as u64), None)
    })
}

/// The `serve-cold-routed` pool: every request distinct, v ∈ [300, 600],
/// m = 20, ε = 1, LTF or R-LTF, Star or Chain topologies in Contended
/// mode, period Δ.
pub fn cold_pool(seed: u64, n: usize, threads: usize) -> Vec<Distinct> {
    let idx: Vec<usize> = (0..n).collect();
    ltf_core::par::parallel_map(&idx, threads, |&i| {
        let heuristic = ["ltf", "rltf"][i % 2];
        let shape = if (i / 2) % 2 == 0 {
            TopologyShape::Star(0.75)
        } else {
            TopologyShape::Chain(0.5)
        };
        let v = stratified_tasks(i, 300, 600);
        let workload = PaperWorkload {
            tasks: (v, v),
            procs: 20,
            epsilon: 1,
            ..PaperWorkload::default()
        };
        Distinct::new(
            heuristic,
            1.0,
            workload,
            mix(seed, i as u64),
            Some(TopologySpec {
                shape,
                mode: Some(CommMode::Contended),
            }),
        )
    })
}

/// The same instance as `d` with its topology flattened to the Uniform
/// model: what the Contended run would cost without link reservations.
pub fn uniform_twin(d: &Distinct) -> Option<Platform> {
    let topo = d.topology.as_ref()?;
    let uniform = TopologySpec {
        shape: topo.shape.clone(),
        mode: Some(CommMode::Uniform),
    };
    Some(gen_instance_on(&d.workload, d.instance_seed, Some(&uniform)).platform)
}

/// A Zipf(α) sampler over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler for `n` ranks with exponent `alpha`.
    pub fn new(n: usize, alpha: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-alpha);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The first `n` keys of the Zipf(α) sequence over `pool` ranks.
pub fn zipf_keys(seed: u64, n: usize, pool: usize, alpha: f64) -> Vec<usize> {
    let zipf = Zipf::new(pool, alpha);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x21FF));
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// The indices of `range` in a seeded random order.
pub fn shuffled(seed: u64, range: std::ops::Range<usize>) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(mix(seed, range.start as u64 ^ 0x5A5A));
    let mut v: Vec<usize> = range.collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Send offsets (seconds from the phase start) of `n` requests at a
/// fixed `rate` per second: one send per `1/rate` slot, placed uniformly
/// at random within its slot. The gap to a connection's next send stays
/// bounded (a reply the daemon holds back waits for that send), without
/// the lock-step of evenly spaced sends.
pub fn arrivals(seed: u64, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xA77));
    (0..n)
        .map(|i| {
            let u: f64 = rng.gen();
            (i as f64 + u) / rate
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sequence_is_deterministic_in_the_seed() {
        let a = zipf_keys(7, 2000, ZIPF_POOL, 1.0);
        assert_eq!(a, zipf_keys(7, 2000, ZIPF_POOL, 1.0));
        assert_ne!(a, zipf_keys(8, 2000, ZIPF_POOL, 1.0));
        assert!(a.iter().all(|&k| k < ZIPF_POOL));
        // Rank 0 carries 1/H(1024) ≈ 13% of Zipf(1.0) traffic.
        let top = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        assert!((0.09..0.18).contains(&top), "rank-0 share {top}");
    }

    #[test]
    fn shuffles_are_deterministic_permutations() {
        let a = shuffled(9, 10..60);
        assert_eq!(a, shuffled(9, 10..60));
        assert_ne!(a, shuffled(10, 10..60));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (10..60).collect::<Vec<_>>());
    }

    #[test]
    fn arrivals_are_deterministic_and_at_rate() {
        let a = arrivals(3, 4000, 200.0);
        assert_eq!(a, arrivals(3, 4000, 200.0));
        assert_ne!(a, arrivals(4, 4000, 200.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a
            .iter()
            .enumerate()
            .all(|(i, &t)| (t * 200.0) as usize == i));
    }

    #[test]
    fn request_generation_is_deterministic_in_the_seed() {
        let a = zipf_pool(11, 2);
        let b = zipf_pool(11, 1);
        assert_eq!(a.len(), ZIPF_POOL);
        for (x, y) in a.iter().zip(&b).take(40) {
            assert_eq!(x.line(5), y.line(5));
        }
        let c = zipf_pool(12, 2);
        assert_ne!(a[0].line(0), c[0].line(0));
        let cold = cold_pool(11, 4, 2);
        assert_eq!(cold[3].line(1), cold_pool(11, 4, 1)[3].line(1));
        assert!(cold.iter().all(|d| d.platform.is_contended()));
    }

    #[test]
    fn generated_lines_parse_back_to_the_same_request() {
        let pool = cold_pool(5, 2, 1);
        for d in pool.iter().chain(zipf_pool(5, 2).iter().take(6)) {
            let line = d.line(42);
            match ltf_serve::proto::parse_request(&line) {
                Ok(ltf_serve::Request::Solve(req)) => {
                    assert_eq!(req.id, Some(42));
                    assert_eq!(req.heuristic, d.heuristic);
                    assert_eq!(req.config.to_algo().unwrap(), d.cfg);
                    assert_eq!(req.graph.num_tasks(), d.graph.num_tasks());
                    assert_eq!(req.platform.is_contended(), d.platform.is_contended());
                }
                other => panic!("generated line does not parse: {other:?}"),
            }
        }
    }

    #[test]
    fn shapes_are_stratified_across_seeds() {
        let tasks = |seed| -> Vec<usize> {
            zipf_pool(seed, 2)
                .iter()
                .map(|d| d.graph.num_tasks())
                .collect()
        };
        assert_eq!(tasks(1), tasks(2));
        let t = tasks(1);
        assert!(t.iter().all(|&v| (50..=150).contains(&v)));
        assert!(t.contains(&50) && t.contains(&150));
    }
}
