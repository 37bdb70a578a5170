//! Exploratory smoke tests: run both heuristics on the paper's example
//! graphs and on random workloads, validate the schedules structurally,
//! and check the headline claims.

use ltf_core::{AlgoConfig, FaultFree, Heuristic, Ltf, PreparedInstance, Rltf};
use ltf_graph::generate::{fig2_workflow, fig2_workflow_variant, layered, LayeredConfig};
use ltf_platform::Platform;
use ltf_schedule::{failures, validate, CrashSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn fig2_variant_rltf_three_stages_on_8_procs() {
    let g = fig2_workflow_variant();
    let p = Platform::homogeneous(8, 1.0, 1.0);
    let cfg = AlgoConfig::with_throughput(1, 0.05);
    let s = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("R-LTF schedules the variant on 8 procs");
    validate(&g, &p, &s)
        .unwrap_or_else(|v| panic!("invalid R-LTF schedule: {:?}\n{}", v, s.describe(&g, &p)));
    eprintln!("R-LTF fig2-variant m=8:\n{}", s.describe(&g, &p));
    assert!(
        s.num_stages() <= 3,
        "expected ≤3 stages, got {}\n{}",
        s.num_stages(),
        s.describe(&g, &p)
    );
    assert!(s.latency_upper_bound() <= 100.0 + 1e-9);
}

#[test]
fn fig2_original_behaviour() {
    let g = fig2_workflow();
    let p8 = Platform::homogeneous(8, 1.0, 1.0);
    let p10 = Platform::homogeneous(10, 1.0, 1.0);
    let cfg = AlgoConfig::with_throughput(1, 0.05);

    match Ltf.schedule(&PreparedInstance::new(&g, &p8), &cfg) {
        Ok(s) => eprintln!(
            "LTF fig2 m=8 SUCCEEDED: S={} L={}\n{}",
            s.num_stages(),
            s.latency_upper_bound(),
            s.describe(&g, &p8)
        ),
        Err(e) => eprintln!("LTF fig2 m=8 failed as in the paper: {e}"),
    }
    match Ltf.schedule(&PreparedInstance::new(&g, &p10), &cfg) {
        Ok(s) => {
            validate(&g, &p10, &s).expect("valid LTF schedule");
            eprintln!(
                "LTF fig2 m=10: S={} L={}\n{}",
                s.num_stages(),
                s.latency_upper_bound(),
                s.describe(&g, &p10)
            );
        }
        Err(e) => panic!("LTF should schedule fig2 with 10 procs: {e}"),
    }
    match Rltf.schedule(&PreparedInstance::new(&g, &p8), &cfg) {
        Ok(s) => {
            validate(&g, &p8, &s).expect("valid R-LTF schedule");
            eprintln!(
                "R-LTF fig2 m=8: S={} L={}\n{}",
                s.num_stages(),
                s.latency_upper_bound(),
                s.describe(&g, &p8)
            );
        }
        Err(e) => eprintln!("R-LTF fig2 m=8 failed: {e}"),
    }
}

#[test]
fn random_workloads_validate_and_tolerate_crashes() {
    let mut rng = StdRng::seed_from_u64(42);
    let p = Platform::homogeneous(12, 1.0, 0.02);
    for seed in 0..5u64 {
        let gcfg = LayeredConfig {
            tasks: 30,
            exec_range: (1.0, 3.0),
            volume_range: (10.0, 30.0),
            ..Default::default()
        };
        let g = layered(&gcfg, &mut rng);
        let period = 12.0;
        let cfg = AlgoConfig::new(1, period).seeded(seed);

        for (name, res) in [
            ("LTF", Ltf.schedule(&PreparedInstance::new(&g, &p), &cfg)),
            ("R-LTF", Rltf.schedule(&PreparedInstance::new(&g, &p), &cfg)),
        ] {
            let s = match res {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{name} seed {seed}: infeasible ({e})");
                    continue;
                }
            };
            validate(&g, &p, &s).unwrap_or_else(|v| {
                panic!("{name} seed {seed} invalid: {v:?}");
            });
            // Every single crash must be survivable (ε = 1).
            assert!(
                failures::tolerates_all_crashes(&g, &s, p.num_procs(), 1),
                "{name} seed {seed} not 1-crash tolerant"
            );
            let l0 = failures::effective_latency(&g, &s, &CrashSet::empty(12)).unwrap();
            assert!(l0 <= s.latency_upper_bound() + 1e-9);
            eprintln!(
                "{name} seed {seed}: S={} L_ub={} L_0={} comms={}",
                s.num_stages(),
                s.latency_upper_bound(),
                l0,
                s.comm_count()
            );
        }
    }
}

#[test]
fn fault_free_heuristic_has_no_replication() {
    let mut rng = StdRng::seed_from_u64(7);
    let gcfg = LayeredConfig {
        tasks: 20,
        exec_range: (1.0, 2.0),
        volume_range: (5.0, 10.0),
        ..Default::default()
    };
    let g = layered(&gcfg, &mut rng);
    let p = Platform::homogeneous(8, 1.0, 0.05);
    let cfg = AlgoConfig::new(0, 8.0).seeded(1);
    let s = FaultFree
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("FF schedules");
    validate(&g, &p, &s).expect("valid FF schedule");
    assert_eq!(s.replicas_per_task(), 1);
    assert_eq!(s.epsilon(), 0);
}
