//! Cross-validation of the three latency views: the closed-form bound
//! `L = (2S − 1)/T`, the effective-stage failure analysis, and the two
//! simulator disciplines.

use ltf_sched::core::{AlgoConfig, Heuristic, Ltf, PreparedInstance, Rltf};
use ltf_sched::graph::generate::{layered, LayeredConfig};
use ltf_sched::platform::Platform;
use ltf_sched::schedule::{failures, CrashSet};
use ltf_sched::sim::{asap, synchronous, AsapConfig, SynchronousConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(seed: u64) -> ltf_sched::graph::TaskGraph {
    layered(
        &LayeredConfig {
            tasks: 26,
            exec_range: (0.5, 2.0),
            volume_range: (1.0, 4.0),
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

#[test]
fn synchronous_simulation_equals_effective_latency() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    for seed in 0..4u64 {
        let g = workload(seed);
        for h in [&Ltf as &dyn Heuristic, &Rltf] {
            let cfg = AlgoConfig::new(1, 15.0).seeded(seed);
            let Ok(s) = h.schedule(&PreparedInstance::new(&g, &p), &cfg) else {
                continue;
            };
            // No crash: simulator latency = analytic effective latency.
            let run = synchronous(&g, &s, &SynchronousConfig::new(7));
            let l0 = failures::effective_latency(&g, &s, &CrashSet::empty(m)).unwrap();
            for l in &run.item_latency {
                assert_eq!(*l, Some(l0));
            }
            assert!(l0 <= s.latency_upper_bound() + 1e-9);

            // Every single crash: agreement again.
            for crash in failures::all_crash_sets(m, 1) {
                let want = failures::effective_latency(&g, &s, &crash);
                let run = synchronous(&g, &s, &SynchronousConfig::with_crash(3, crash));
                match want {
                    Some(l) => {
                        assert_eq!(run.produced(), 3);
                        assert_eq!(run.item_latency[0], Some(l));
                        assert!(l <= s.latency_upper_bound() + 1e-9);
                    }
                    None => assert_eq!(run.produced(), 0),
                }
            }
        }
    }
}

#[test]
fn asap_never_slower_than_synchronous() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    for seed in 0..4u64 {
        let g = workload(seed + 10);
        let cfg = AlgoConfig::new(1, 15.0).seeded(seed);
        let Ok(s) = Rltf.schedule(&PreparedInstance::new(&g, &p), &cfg) else {
            continue;
        };
        let items = 12;
        let sync = synchronous(&g, &s, &SynchronousConfig::new(items));
        let fast = asap(&g, &s, &AsapConfig::new(items));
        assert_eq!(fast.produced(), items);
        for (a, b) in fast.item_latency.iter().zip(&sync.item_latency) {
            assert!(
                a.unwrap() <= b.unwrap() + 1e-9,
                "ASAP {a:?} slower than synchronous {b:?}"
            );
        }
    }
}

#[test]
fn asap_sustains_the_period() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    let g = workload(42);
    let cfg = AlgoConfig::new(1, 15.0).seeded(0);
    let s = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("feasible");
    let run = asap(&g, &s, &AsapConfig::new(60));
    assert_eq!(run.produced(), 60);
    // Throughput keeps up with the admission rate in steady state.
    let period = run.achieved_period().unwrap();
    assert!(
        period <= 15.0 + 1e-6,
        "achieved period {period} exceeds Δ = 15"
    );
}

#[test]
fn asap_single_crash_from_start_loses_nothing() {
    let m = 10;
    let p = Platform::homogeneous(m, 1.0, 0.2);
    let g = workload(43);
    let cfg = AlgoConfig::new(1, 15.0).seeded(0);
    let s = Rltf
        .schedule(&PreparedInstance::new(&g, &p), &cfg)
        .expect("feasible");
    for crash in failures::all_crash_sets(m, 1) {
        let run = asap(&g, &s, &AsapConfig::with_crash(8, crash, 0.0));
        assert_eq!(run.produced(), 8, "a single crash must be masked");
    }
}
