//! SLO-campaign determinism and replay-property tests: the rendered
//! report must be byte-identical across thread counts and shard
//! partitions (the contract the distributed coordinator builds on), and
//! the replay layer must respect the paper's structural orderings —
//! eager execution never increases a produced item's latency, and more
//! replication never loses more items on the same crash traces.

use ltf_baselines::full_solver;
use ltf_core::shard::Shard;
use ltf_core::AlgoConfig;
use ltf_experiments::campaign::{
    build_slo_report, run_serial, run_shard, run_slo_serial, CampaignSpec, ItemResult, Merger,
    SloItemResult,
};
use ltf_experiments::pareto::ParetoInstance;
use ltf_faultlab::{replay, FailureModel, ReplayConfig, SimEngine};
use ltf_sim::{RecoveryPolicy, SimReport};

const SPEC: &str = r#"{
  "name": "slo-props",
  "graphs": ["fig1"],
  "heuristics": ["rltf", "ltf"],
  "epsilons": [{"max": 1}],
  "failure": {"rate": 0.003, "traces": 6, "items": 8, "block": 2,
              "period": 30.0, "policy": "reroute"},
  "slo": {"max_latency": 200.0, "max_violation_rate": 0.25}
}"#;

#[test]
fn report_is_byte_identical_across_threads_and_shards() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let baseline = run_slo_serial(&spec, 1, None).unwrap();
    assert!(
        baseline.rows.iter().any(|r| r.feasible && r.items > 0),
        "the fixture must actually replay something"
    );

    for threads in [2, 4] {
        let got = run_slo_serial(&spec, threads, None).unwrap();
        assert_eq!(
            got.json_lines(),
            baseline.json_lines(),
            "thread count {threads} leaked into the report"
        );
    }

    // Re-partition into N shards, merge the union, rebuild the report:
    // the trace streams are keyed by (signature, global index), so the
    // partition must be invisible.
    let exps = spec.expand().unwrap();
    let f = spec.failure.as_ref().unwrap();
    let expected =
        ltf_experiments::campaign::slo_work_items(f, &ltf_experiments::campaign::slo_cells(&exps))
            .len();
    for n in [2, 3] {
        let mut merger: Merger<SloItemResult> = Merger::new(expected);
        for k in 0..n {
            let shard = Shard::new(k, n).unwrap();
            run_shard::<SloItemResult>(&spec, shard, 1, None, |r| {
                merger.insert(r.clone()).unwrap();
            })
            .unwrap();
        }
        let got = build_slo_report(&spec, &merger.finish().unwrap()).unwrap();
        assert_eq!(
            got.json_lines(),
            baseline.json_lines(),
            "{n}-way sharding leaked into the report"
        );
    }
}

#[test]
fn running_a_spec_as_the_wrong_kind_is_an_error() {
    let slo = CampaignSpec::parse(SPEC).unwrap();
    let pareto = CampaignSpec::parse(
        r#"{"name":"p","graphs":["fig1"],"heuristics":["rltf"],"epsilons":[{"max":1}]}"#,
    )
    .unwrap();
    let err = run_shard::<ItemResult>(&slo, Shard::solo(), 1, None, |_| {}).unwrap_err();
    assert!(err.contains("failure"), "{err}");
    assert!(run_serial(&slo, 1, None).is_err());
    let err = run_shard::<SloItemResult>(&pareto, Shard::solo(), 1, None, |_| {}).unwrap_err();
    assert!(err.contains("no \"failure\" block"), "{err}");
    assert!(run_slo_serial(&pareto, 1, None).is_err());
}

/// One solved fig1 witness plus a bundle of sampled traces replayed
/// through it with `engine`/`policy`.
fn replay_fig1(epsilon: u8, engine: SimEngine, policy: RecoveryPolicy) -> Vec<SimReport> {
    let (g, p, _) = ParetoInstance::Fig1.build(7, 0.25);
    let solver = full_solver(&g, &p);
    let sol = solver
        .solve("rltf", &AlgoConfig::new(epsilon, 30.0))
        .expect("fig1 witness is feasible");
    ltf_schedule::validate(&g, &p, &sol.schedule).expect("witness validates");
    let model = FailureModel::uniform(p.num_procs(), 0.004);
    let cfg = ReplayConfig {
        items: 10,
        policy,
        engine,
    };
    (0..24)
        .map(|t| replay(&g, &p, &sol.schedule, model.sample_trace(0xF00D, t), &cfg))
        .collect()
}

#[test]
fn asap_never_produces_an_item_later_than_synchronous() {
    for policy in [RecoveryPolicy::FailStop, RecoveryPolicy::Reroute] {
        let sync = replay_fig1(1, SimEngine::Synchronous, policy);
        let asap = replay_fig1(1, SimEngine::Asap, policy);
        let mut compared = 0usize;
        for (s, a) in sync.iter().zip(&asap) {
            for (ls, la) in s.item_latency.iter().zip(&a.item_latency) {
                if let (Some(ls), Some(la)) = (ls, la) {
                    assert!(
                        *la <= *ls + 1e-9,
                        "asap item latency {la} exceeds synchronous {ls} ({policy:?})"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 0, "no items produced under both engines");
    }
}

#[test]
fn replication_never_loses_more_items_on_the_same_traces() {
    for engine in [SimEngine::Synchronous, SimEngine::Asap] {
        let eps0 = replay_fig1(0, engine, RecoveryPolicy::Reroute);
        let eps1 = replay_fig1(1, engine, RecoveryPolicy::Reroute);
        let lost = |reports: &[SimReport]| -> usize {
            reports
                .iter()
                .flat_map(|r| &r.item_latency)
                .filter(|l| l.is_none())
                .count()
        };
        let (l0, l1) = (lost(&eps0), lost(&eps1));
        assert!(
            l0 >= l1,
            "ε=0 lost {l0} items but ε=1 lost {l1} on the same traces ({engine:?})"
        );
        assert!(l0 > 0, "failure rate too low to exercise loss at ε=0");
    }
}
