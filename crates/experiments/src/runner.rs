//! Per-instance measurement records: one heuristic on one generated
//! instance, timed, checked against random crash draws.

use crate::workload::{gen_instance, Instance, PaperWorkload};
use ltf_core::{AlgoConfig, FaultFree, Heuristic, Ltf, PreparedInstance, Rltf};
use ltf_schedule::{failures, CrashSet, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Everything measured on one (instance, algorithm) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Instance seed.
    pub seed: u64,
    /// Target granularity of the instance.
    pub granularity: f64,
    /// Fault-tolerance degree.
    pub epsilon: u8,
    /// Algorithm name (`LTF`, `R-LTF`, `FF`).
    pub algo: String,
    /// Whether a schedule satisfying the throughput constraint was found.
    pub feasible: bool,
    /// Pipeline stage count `S` (0 when infeasible).
    pub stages: u32,
    /// Guaranteed latency `(2S − 1)·Δ`.
    pub latency_ub: f64,
    /// Effective latency with no failures.
    pub latency_0: f64,
    /// Mean effective latency over the crash draws (`None` when no draws
    /// were requested or nothing survived).
    pub latency_crash: Option<f64>,
    /// Crash draws whose pattern was not survived (should stay 0 while
    /// `c ≤ ε`).
    pub crash_losses: usize,
    /// Inter-processor messages per data set.
    pub comms: usize,
    /// Number of processors used.
    pub procs_used: usize,
    /// Scheduling wall time in microseconds.
    pub sched_micros: u64,
}

/// Measure one heuristic on one instance, with `crash_draws` random crash
/// sets of size `crashes` (drawn deterministically from `seed`). `label`
/// names the algorithm in the record (the figure builders key on the
/// paper's display names `R-LTF`/`LTF`/`FF`). The timing covers the
/// schedule computation including the instance's lazy derivations (levels,
/// reversed graph), matching what the legacy free functions measured.
pub fn measure(
    inst: &Instance,
    h: &dyn Heuristic,
    label: &str,
    seed: u64,
    granularity: f64,
    crashes: usize,
    crash_draws: usize,
) -> RunRecord {
    let cfg = AlgoConfig::new(inst.epsilon, inst.period).seeded(seed);
    let prep = PreparedInstance::new(&inst.graph, &inst.platform);
    let t0 = Instant::now();
    let sched = h.schedule(&prep, &cfg);
    let sched_micros = t0.elapsed().as_micros() as u64;
    record_from(
        sched.ok(),
        inst,
        label,
        seed,
        granularity,
        crashes,
        crash_draws,
        sched_micros,
    )
}

/// Measure the fault-free reference (R-LTF, ε = 0) on one instance.
pub fn measure_fault_free(inst: &Instance, seed: u64, granularity: f64) -> RunRecord {
    let cfg = AlgoConfig::new(inst.epsilon, inst.period).seeded(seed);
    let prep = PreparedInstance::new(&inst.graph, &inst.platform);
    let t0 = Instant::now();
    let sched = FaultFree.schedule(&prep, &cfg);
    let sched_micros = t0.elapsed().as_micros() as u64;
    record_from(
        sched.ok(),
        inst,
        "FF",
        seed,
        granularity,
        0,
        0,
        sched_micros,
    )
}

#[allow(clippy::too_many_arguments)]
fn record_from(
    sched: Option<Schedule>,
    inst: &Instance,
    algo: &str,
    seed: u64,
    granularity: f64,
    crashes: usize,
    crash_draws: usize,
    sched_micros: u64,
) -> RunRecord {
    let mut rec = RunRecord {
        seed,
        granularity,
        epsilon: inst.epsilon,
        algo: algo.to_string(),
        feasible: false,
        stages: 0,
        latency_ub: 0.0,
        latency_0: 0.0,
        latency_crash: None,
        crash_losses: 0,
        comms: 0,
        procs_used: 0,
        sched_micros,
    };
    let Some(s) = sched else {
        return rec;
    };
    let g = &inst.graph;
    let m = inst.platform.num_procs();
    rec.feasible = true;
    rec.stages = s.num_stages();
    rec.latency_ub = s.latency_upper_bound();
    rec.latency_0 = failures::effective_latency(g, &s, &CrashSet::empty(m))
        .expect("no-crash execution always produces");
    rec.comms = s.comm_count();
    rec.procs_used = s.procs_used();
    if crashes > 0 && crash_draws > 0 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CA5E);
        let mut sum = 0.0;
        let mut n = 0usize;
        for _ in 0..crash_draws {
            let cs = failures::sample_crash_set(m, crashes, &mut |b| rng.gen_range(0..b));
            match failures::effective_latency(g, &s, &cs) {
                Some(l) => {
                    sum += l;
                    n += 1;
                }
                None => rec.crash_losses += 1,
            }
        }
        rec.latency_crash = (n > 0).then(|| sum / n as f64);
    }
    rec
}

/// All records for one instance seed: LTF, R-LTF and the fault-free
/// reference.
pub fn measure_instance(
    cfg: &PaperWorkload,
    seed: u64,
    crashes: usize,
    crash_draws: usize,
) -> Vec<RunRecord> {
    let inst = gen_instance(cfg, seed);
    vec![
        measure(
            &inst,
            &Rltf,
            "R-LTF",
            seed,
            cfg.granularity,
            crashes,
            crash_draws,
        ),
        measure(
            &inst,
            &Ltf,
            "LTF",
            seed,
            cfg.granularity,
            crashes,
            crash_draws,
        ),
        measure_fault_free(&inst, seed, cfg.granularity),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_record_value_roundtrip() {
        let cfg = PaperWorkload {
            tasks: (20, 20),
            epsilon: 1,
            granularity: 1.0,
            ..Default::default()
        };
        for rec in measure_instance(&cfg, 3, 1, 2) {
            let text = serde_json::to_string(&rec).unwrap();
            let back =
                RunRecord::from_value(&serde_json::from_str(&text).unwrap()).expect("decodes");
            assert_eq!(serde_json::to_string(&back).unwrap(), text);
        }
    }

    #[test]
    fn measure_small_instance() {
        let cfg = PaperWorkload {
            tasks: (30, 30),
            epsilon: 1,
            granularity: 1.0,
            ..Default::default()
        };
        let recs = measure_instance(&cfg, 5, 1, 4);
        assert_eq!(recs.len(), 3);
        let rltf = &recs[0];
        assert_eq!(rltf.algo, "R-LTF");
        if rltf.feasible {
            assert!(rltf.stages >= 1);
            assert!(rltf.latency_0 <= rltf.latency_ub + 1e-9);
            assert_eq!(rltf.crash_losses, 0, "ε=1 must survive single crashes");
            let lc = rltf.latency_crash.expect("crash draws requested");
            assert!(lc + 1e-9 >= rltf.latency_0);
            assert!(lc <= rltf.latency_ub + 1e-9);
        }
        let ff = &recs[2];
        assert_eq!(ff.algo, "FF");
        if ff.feasible && rltf.feasible {
            assert!(ff.latency_ub <= rltf.latency_ub + 1e-9);
        }
    }
}
