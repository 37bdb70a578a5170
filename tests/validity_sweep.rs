//! Structural validity and fault-tolerance guarantees across graph shapes,
//! replication degrees, and both heuristics.

use ltf_sched::core::{AlgoConfig, Heuristic, Ltf, PreparedInstance, Rltf};
use ltf_sched::graph::generate::{
    fork_join, in_tree, layered, out_tree, pipeline, series_parallel, LayeredConfig,
    SeriesParallelConfig,
};
use ltf_sched::graph::TaskGraph;
use ltf_sched::platform::Platform;
use ltf_sched::schedule::{failures, validate, CrashSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn shapes(rng: &mut StdRng) -> Vec<(String, TaskGraph)> {
    vec![
        ("pipeline".into(), pipeline(12, 1.5, 2.0)),
        ("fork_join".into(), fork_join(6, 1.0, 1.5)),
        ("out_tree".into(), out_tree(3, 2, 1.0, 1.0)),
        ("in_tree".into(), in_tree(3, 2, 1.0, 1.0)),
        (
            "layered".into(),
            layered(
                &LayeredConfig {
                    tasks: 28,
                    exec_range: (0.5, 2.0),
                    volume_range: (1.0, 4.0),
                    ..Default::default()
                },
                rng,
            ),
        ),
        (
            "series_parallel".into(),
            series_parallel(
                &SeriesParallelConfig {
                    tasks: 24,
                    exec_range: (0.5, 2.0),
                    volume_range: (1.0, 4.0),
                    ..Default::default()
                },
                rng,
            ),
        ),
    ]
}

#[test]
fn schedules_validate_across_shapes_and_epsilons() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    let mut rng = StdRng::seed_from_u64(11);
    let period = 14.0;
    let mut checked = 0;
    for (name, g) in shapes(&mut rng) {
        for eps in [0u8, 1, 2] {
            for h in [&Ltf as &dyn Heuristic, &Rltf] {
                let cfg = AlgoConfig::new(eps, period).seeded(3);
                let Ok(s) = h.schedule(&PreparedInstance::new(&g, &p), &cfg) else {
                    continue; // infeasibility is legitimate; validity is not optional
                };
                validate(&g, &p, &s)
                    .unwrap_or_else(|v| panic!("{} on {name} (ε={eps}) invalid: {v:?}", h.name()));
                assert!(s.achieved_throughput() + 1e-12 >= 1.0 / period);
                assert_eq!(s.replicas_per_task(), eps as usize + 1);
                checked += 1;
            }
        }
    }
    assert!(checked >= 24, "only {checked} feasible combinations");
}

#[test]
fn exhaustive_crash_tolerance_eps1_and_eps2() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.1);
    let mut rng = StdRng::seed_from_u64(23);
    for (name, g) in shapes(&mut rng) {
        for eps in [1u8, 2] {
            for h in [&Ltf as &dyn Heuristic, &Rltf] {
                let cfg = AlgoConfig::new(eps, 16.0).seeded(9);
                let Ok(s) = h.schedule(&PreparedInstance::new(&g, &p), &cfg) else {
                    continue;
                };
                assert!(
                    failures::tolerates_all_crashes(&g, &s, m, eps as usize),
                    "{} on {name} (ε={eps}) loses an output under some \
                     {eps}-crash pattern",
                    h.name()
                );
            }
        }
    }
}

#[test]
fn effective_latency_monotone_in_crashes() {
    // Killing more processors can only push the delivered latency up
    // (while the pattern is survived at all).
    let p = Platform::homogeneous(8, 1.0, 0.1);
    let mut rng = StdRng::seed_from_u64(5);
    let g = layered(
        &LayeredConfig {
            tasks: 24,
            exec_range: (0.5, 1.5),
            volume_range: (1.0, 3.0),
            ..Default::default()
        },
        &mut rng,
    );
    let cfg = AlgoConfig::new(2, 14.0).seeded(1);
    let s = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("feasible");
    let l0 = failures::effective_latency(&g, &s, &CrashSet::empty(8)).unwrap();
    for single in failures::all_crash_sets(8, 1) {
        let l1 = failures::effective_latency(&g, &s, &single).unwrap();
        assert!(l1 + 1e-9 >= l0);
        let first = single.procs()[0];
        for second in 0..8u16 {
            if single.contains(ltf_sched::platform::ProcId(second)) {
                continue;
            }
            let pair = CrashSet::from_procs(&[first, ltf_sched::platform::ProcId(second)], 8);
            let l2 = failures::effective_latency(&g, &s, &pair).unwrap();
            assert!(l2 + 1e-9 >= l1, "latency shrank when adding a crash");
        }
    }
    // Everything stays below the guaranteed bound.
    let ub = s.latency_upper_bound();
    for pair in failures::all_crash_sets(8, 2) {
        let l = failures::effective_latency(&g, &s, &pair).unwrap();
        assert!(l <= ub + 1e-9);
    }
}

#[test]
fn one_to_one_keeps_comm_budget_on_series_parallel() {
    // The paper's §4.2 remark: on series-parallel graphs without
    // throughput pressure, R-LTF needs at most e(ε+1) messages.
    let p = Platform::homogeneous(12, 1.0, 0.05);
    let mut rng = StdRng::seed_from_u64(31);
    for eps in [1u8, 2, 3] {
        let g = series_parallel(
            &SeriesParallelConfig {
                tasks: 20,
                exec_range: (0.5, 1.0),
                volume_range: (0.5, 1.0),
                ..Default::default()
            },
            &mut rng,
        );
        let cfg = AlgoConfig::new(eps, 1000.0).seeded(2); // no pressure
        let s = Rltf
            .schedule(&PreparedInstance::new(&g, &p), &cfg)
            .expect("feasible");
        let budget = g.num_edges() * (eps as usize + 1);
        assert!(
            s.comm_count() <= budget,
            "ε={eps}: {} messages exceed e(ε+1) = {budget}",
            s.comm_count()
        );
    }
}

#[test]
fn failure_modes_reported_cleanly() {
    let g = pipeline(4, 10.0, 1.0);
    // ε+1 > m.
    let p = Platform::homogeneous(2, 1.0, 1.0);
    let cfg = AlgoConfig::new(3, 100.0);
    assert!(matches!(
        Rltf.schedule(&PreparedInstance::new(&g, &p), &cfg),
        Err(ltf_sched::core::ScheduleError::TooFewProcessors { .. })
    ));
    // Period too small for the biggest task.
    let p = Platform::homogeneous(4, 1.0, 1.0);
    let cfg = AlgoConfig::new(0, 5.0);
    assert!(matches!(
        Ltf.schedule(&PreparedInstance::new(&g, &p), &cfg),
        Err(ltf_sched::core::ScheduleError::Infeasible { .. })
    ));
    // Bad period.
    let cfg = AlgoConfig::new(0, f64::NAN);
    assert!(matches!(
        Ltf.schedule(&PreparedInstance::new(&g, &p), &cfg),
        Err(ltf_sched::core::ScheduleError::BadConfig(_))
    ));
}
