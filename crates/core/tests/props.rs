//! Property-based tests on the scheduling algorithms: every schedule the
//! heuristics emit must be structurally valid, respect the throughput
//! constraint, stay within communication budgets, and honour the
//! ε-crash guarantee.

use ltf_core::{AlgoConfig, Heuristic, Ltf, PreparedInstance, Rltf};
use ltf_graph::generate::{layered, series_parallel, LayeredConfig, SeriesParallelConfig};
use ltf_graph::TaskGraph;
use ltf_platform::{HeterogeneousConfig, Platform};
use ltf_schedule::{failures, validate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Case {
    graph: TaskGraph,
    platform: Platform,
    epsilon: u8,
    period: f64,
    seed: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        6usize..28,    // tasks
        4usize..12,    // processors
        0u8..3,        // epsilon
        any::<u64>(),  // seed
        any::<bool>(), // graph family
        1.0f64..3.0,   // period slack multiplier
    )
        .prop_map(|(v, m, epsilon, seed, sp, slack)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = if sp {
                series_parallel(
                    &SeriesParallelConfig {
                        tasks: v.max(2),
                        exec_range: (0.5, 2.0),
                        volume_range: (0.5, 2.0),
                        ..Default::default()
                    },
                    &mut rng,
                )
            } else {
                layered(
                    &LayeredConfig {
                        tasks: v,
                        exec_range: (0.5, 2.0),
                        volume_range: (0.5, 2.0),
                        ..Default::default()
                    },
                    &mut rng,
                )
            };
            let platform = HeterogeneousConfig {
                procs: m,
                speed_range: (0.5, 1.0),
                delay_range: (0.05, 0.2),
                symmetric: true,
            }
            .build(&mut rng);
            // Period sized from the replicated work so most cases are
            // feasible without being trivial.
            let nrep = epsilon as f64 + 1.0;
            let base =
                nrep * graph.total_exec() * platform.mean_inv_speed() / platform.num_procs() as f64;
            let per_task = graph
                .tasks()
                .map(|t| graph.exec(t) / platform.max_speed())
                .fold(0.0f64, f64::max);
            let period = (base * 2.0 * slack).max(per_task * 1.5);
            Case {
                graph,
                platform,
                epsilon: epsilon.min((m - 1) as u8),
                period,
                seed,
            }
        })
}

/// The paper's two heuristics.
const PAPER: [&dyn Heuristic; 2] = [&Ltf, &Rltf];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_emitted_schedule_is_valid(case in arb_case()) {
        for h in PAPER {
            let cfg = AlgoConfig::new(case.epsilon, case.period).seeded(case.seed);
            let Ok(s) = h.schedule(&PreparedInstance::new(&case.graph, &case.platform), &cfg) else {
                continue;
            };
            if let Err(v) = validate(&case.graph, &case.platform, &s) {
                prop_assert!(false, "{} produced invalid schedule: {v:?}", h.name());
            }
            prop_assert!(s.achieved_throughput() + 1e-9 >= 1.0 / case.period);
            // Hard communication bound: (ε+1)² per edge.
            let nrep = case.epsilon as usize + 1;
            prop_assert!(
                s.comm_count() <= case.graph.num_edges() * nrep * nrep
            );
            prop_assert!(s.num_stages() >= 1);
        }
    }

    #[test]
    fn epsilon_guarantee_holds_exhaustively(case in arb_case()) {
        // Bounded cost: only check ε ≤ 2 exhaustively.
        let eps = case.epsilon.min(2);
        for h in PAPER {
            let cfg = AlgoConfig::new(eps, case.period).seeded(case.seed);
            let Ok(s) = h.schedule(&PreparedInstance::new(&case.graph, &case.platform), &cfg) else {
                continue;
            };
            prop_assert!(
                failures::tolerates_all_crashes(
                    &case.graph,
                    &s,
                    case.platform.num_procs(),
                    eps as usize
                ),
                "{} schedule loses an output under some {eps}-crash set", h.name()
            );
        }
    }

    #[test]
    fn determinism(case in arb_case()) {
        for h in PAPER {
            let cfg = AlgoConfig::new(case.epsilon, case.period).seeded(case.seed);
            let a = h.schedule(&PreparedInstance::new(&case.graph, &case.platform), &cfg);
            let b = h.schedule(&PreparedInstance::new(&case.graph, &case.platform), &cfg);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.num_stages(), y.num_stages());
                    prop_assert_eq!(x.comm_count(), y.comm_count());
                    for r in x.replicas() {
                        prop_assert_eq!(x.proc(r), y.proc(r));
                    }
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "feasibility differed across runs"),
            }
        }
    }

    #[test]
    fn more_replication_never_free(case in arb_case()) {
        // ε+1 copies at least match the ε = 0 schedule's stage count is NOT
        // guaranteed in general, but the latency bound must stay finite and
        // the copies distinct; check resource accounting consistency.
        let cfg = AlgoConfig::new(case.epsilon, case.period).seeded(case.seed);
        let Ok(s) = Rltf.schedule(&PreparedInstance::new(&case.graph, &case.platform), &cfg) else {
            return Ok(());
        };
        let mut total_exec = 0.0f64;
        for u in case.platform.procs() {
            total_exec += s.sigma(u) ;
        }
        // Σ over processors of compute time = Σ over replicas exec/s.
        let mut expect = 0.0;
        for r in s.replicas() {
            expect += case.platform.exec_time(case.graph.exec(r.task), s.proc(r));
        }
        prop_assert!((total_exec - expect).abs() < 1e-6 * (1.0 + expect));
    }
}
