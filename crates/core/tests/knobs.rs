//! Behavioural tests for the algorithm configuration knobs.

use ltf_core::{AlgoConfig, Heuristic, Ltf, PreparedInstance, Rltf};
use ltf_graph::generate::{layered, pipeline, LayeredConfig};
use ltf_platform::Platform;
use ltf_schedule::{failures, validate};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> (ltf_graph::TaskGraph, Platform) {
    let mut rng = StdRng::seed_from_u64(77);
    let g = layered(
        &LayeredConfig {
            tasks: 24,
            exec_range: (0.5, 1.5),
            volume_range: (0.5, 1.5),
            ..Default::default()
        },
        &mut rng,
    );
    (g, Platform::homogeneous(10, 1.0, 0.1))
}

#[test]
fn disabling_one_to_one_multiplies_messages() {
    let (g, p) = workload();
    let base = AlgoConfig::new(1, 25.0).seeded(1);
    let mut rfa = base.clone();
    rfa.use_one_to_one = false;
    let with = Ltf
        .schedule(&PreparedInstance::new(&g, &p), &base)
        .expect("one-to-one feasible");
    let without = Ltf
        .schedule(&PreparedInstance::new(&g, &p), &rfa)
        .expect("rfa feasible at this load");
    validate(&g, &p, &without).expect("valid");
    assert!(
        without.comm_count() > with.comm_count(),
        "receive-from-all must cost more messages ({} vs {})",
        without.comm_count(),
        with.comm_count()
    );
    // And it still honours the crash guarantee.
    assert!(failures::tolerates_all_crashes(&g, &without, 10, 1));
}

#[test]
fn disabling_cluster_ties_costs_stages() {
    let (g, p) = workload();
    let base = AlgoConfig::new(1, 25.0).seeded(1);
    let mut scatter = base.clone();
    scatter.cluster_ties = false;
    let clustered = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &base)
        .expect("feasible");
    let scattered = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &scatter)
        .expect("feasible");
    validate(&g, &p, &scattered).expect("valid");
    assert!(
        clustered.num_stages() <= scattered.num_stages(),
        "clustering should never yield more stages ({} vs {})",
        clustered.num_stages(),
        scattered.num_stages()
    );
    assert!(failures::tolerates_all_crashes(&g, &scattered, 10, 1));
}

#[test]
fn disabling_rule1_never_improves_stage_count() {
    let (g, p) = workload();
    let base = AlgoConfig::new(1, 25.0).seeded(1);
    let mut no_r1 = base.clone();
    no_r1.rule1 = false;
    let with = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &base)
        .expect("feasible");
    let without = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &no_r1)
        .expect("feasible");
    validate(&g, &p, &without).expect("valid");
    // Rule 1 is a stage-count heuristic: removing it can only tie or hurt
    // on average; on this fixed workload it must not win.
    assert!(with.num_stages() <= without.num_stages() + 1);
}

#[test]
fn chunk_size_one_still_valid() {
    let (g, p) = workload();
    let mut cfg = AlgoConfig::new(1, 25.0).seeded(1);
    cfg.chunk_size = Some(1);
    for h in [&Ltf as &dyn Heuristic, &Rltf] {
        let s = h
            .schedule(&PreparedInstance::new(&g, &p), &cfg)
            .expect("feasible");
        validate(&g, &p, &s).expect("valid");
        assert!(failures::tolerates_all_crashes(&g, &s, 10, 1));
    }
}

#[test]
fn seeds_change_tie_breaking_not_validity() {
    let (g, p) = workload();
    for seed in 0..6u64 {
        let cfg = AlgoConfig::new(1, 25.0).seeded(seed);
        let s = Rltf
            .schedule(&PreparedInstance::new(&g, &p), &cfg)
            .expect("feasible");
        validate(&g, &p, &s).expect("valid");
    }
}

#[test]
fn epsilon_zero_equals_single_copy() {
    let g = pipeline(6, 1.0, 0.5);
    let p = Platform::homogeneous(4, 1.0, 0.2);
    let cfg = AlgoConfig::new(0, 10.0);
    let s = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("feasible");
    assert_eq!(s.replicas_per_task(), 1);
    // A chain with everything co-locatable: single stage, no messages.
    assert_eq!(s.num_stages(), 1);
    assert_eq!(s.comm_count(), 0);
}

#[test]
fn higher_epsilon_never_cheaper() {
    let (g, p) = workload();
    let mut prev_comms = 0usize;
    for eps in [0u8, 1, 2] {
        let cfg = AlgoConfig::new(eps, 30.0).seeded(5);
        let s = Rltf
            .schedule(&PreparedInstance::new(&g, &p), &cfg)
            .expect("feasible");
        let total_work: f64 = p.procs().map(|u| s.sigma(u)).sum();
        let expect = (eps as f64 + 1.0) * g.total_exec(); // unit speeds
        assert!((total_work - expect).abs() < 1e-6);
        assert!(
            s.comm_count() >= prev_comms,
            "replication cannot reduce messages"
        );
        prev_comms = s.comm_count();
    }
}
