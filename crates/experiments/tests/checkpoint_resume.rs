//! Kill-and-resume differential tests: a checkpointed sweep interrupted
//! mid-way (journal chopped inside a record, the on-disk signature of a
//! `SIGKILL` during a write) and resumed must produce exactly the same
//! records as an uninterrupted run — and must not re-journal (i.e. not
//! recompute) the work items that were already complete. A journal record
//! that no longer decodes is recomputed by every journalled command.

use ltf_core::search::pareto::ParetoOptions;
use ltf_core::shard::Shard;
use ltf_experiments::campaign::{run_shard, CampaignSpec, ItemResult, SloItemResult};
use ltf_experiments::checkpoint::{run_journalled, window_for};
use ltf_experiments::figures::{sweep_checkpointed, SweepConfig};
use ltf_experiments::pareto::{workload_sweep, FrontRow, WorkloadSweepConfig};
use ltf_experiments::runner::RunRecord;
use ltf_experiments::scaling::{scaling_sweep_checkpointed, ScalingConfig, ScalingPoint};
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ltf-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Chop the journal after `keep` complete lines and leave a torn prefix
/// of the next one, as a kill mid-write would.
fn interrupt(path: &PathBuf, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > keep + 1,
        "journal too short to interrupt: {} lines",
        lines.len()
    );
    let mut chopped: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    chopped.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(path, chopped).unwrap();
}

fn sweep_cfg() -> WorkloadSweepConfig {
    WorkloadSweepConfig {
        instances: 6,
        seed: 0xFEED,
        utilization: 0.25,
        algo: "rltf".to_string(),
        opts: ParetoOptions {
            max_epsilon: Some(1),
            max_procs: Some(3),
            relax_steps: 1,
            iterations: 10,
            ..Default::default()
        },
        threads: 2,
    }
}

#[test]
fn workload_sweep_resumes_identically() {
    let cfg = sweep_cfg();

    // Uninterrupted run, no journal: the reference row stream.
    let mut reference: Vec<FrontRow> = Vec::new();
    workload_sweep(&cfg, None, |row| reference.push(row.clone())).unwrap();
    assert!(
        reference.len() >= cfg.instances,
        "at least one row per instance"
    );

    // Checkpointed run, then kill it mid-journal.
    let journal = tmp("workload");
    let mut first: Vec<FrontRow> = Vec::new();
    workload_sweep(&cfg, Some(&journal), |row| first.push(row.clone())).unwrap();
    assert_eq!(first, reference, "journalling must not change the rows");
    let full_text = std::fs::read_to_string(&journal).unwrap();
    interrupt(&journal, 3);

    // Resume: replayed + freshly computed rows, in the original order.
    let mut resumed: Vec<FrontRow> = Vec::new();
    workload_sweep(&cfg, Some(&journal), |row| resumed.push(row.clone())).unwrap();
    assert_eq!(resumed, reference, "resumed row stream differs");

    // The journal healed to exactly the uninterrupted state: same
    // complete set of keys, the untouched prefix byte-identical, and the
    // already-complete items not re-journalled (no duplicate keys).
    let healed_text = std::fs::read_to_string(&journal).unwrap();
    let full: Vec<&str> = full_text.lines().collect();
    let healed: Vec<&str> = healed_text.lines().collect();
    assert_eq!(healed.len(), full.len(), "journal line count");
    assert_eq!(&healed[..3], &full[..3], "completed prefix was rewritten");
    let mut keys: Vec<String> = healed
        .iter()
        .map(|l| l.split("\"record\"").next().unwrap().to_string())
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), cfg.instances, "duplicate journal keys");

    // Resuming a *complete* journal recomputes nothing: every row is
    // replayed and the file is untouched.
    let mut replay_only: Vec<FrontRow> = Vec::new();
    workload_sweep(&cfg, Some(&journal), |row| replay_only.push(row.clone())).unwrap();
    assert_eq!(replay_only, reference);
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), healed_text);

    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_shared_across_configs_never_mixes_records() {
    // Regression: the replay filter used to accept any `pareto:` key, so
    // a journal shared across --algo runs emitted the old config's rows
    // on top of recomputing the new one; fig keys used the granularity
    // *index*, silently replaying records measured at other
    // granularities. Keys now pin the full configuration.
    let journal = tmp("cross-config");
    let cfg_rltf = sweep_cfg();
    let mut rltf_rows: Vec<FrontRow> = Vec::new();
    workload_sweep(&cfg_rltf, Some(&journal), |row| rltf_rows.push(row.clone())).unwrap();

    // Same journal, different heuristic: none of the rltf rows may leak
    // into the output, and the ltf work is computed (journal grows).
    let lines_before = std::fs::read_to_string(&journal).unwrap().lines().count();
    let cfg_ltf = WorkloadSweepConfig {
        algo: "ltf".to_string(),
        ..sweep_cfg()
    };
    let mut reference_ltf: Vec<FrontRow> = Vec::new();
    workload_sweep(&cfg_ltf, None, |row| reference_ltf.push(row.clone())).unwrap();
    let mut shared_ltf: Vec<FrontRow> = Vec::new();
    workload_sweep(&cfg_ltf, Some(&journal), |row| shared_ltf.push(row.clone())).unwrap();
    assert_eq!(
        shared_ltf, reference_ltf,
        "foreign rows leaked into the output"
    );
    let lines_after = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(
        lines_after,
        lines_before + cfg_ltf.instances,
        "ltf run must journal its own items without disturbing rltf's"
    );

    // And the original configuration still resumes cleanly from the now
    // mixed journal.
    let mut rltf_again: Vec<FrontRow> = Vec::new();
    workload_sweep(&cfg_rltf, Some(&journal), |row| {
        rltf_again.push(row.clone())
    })
    .unwrap();
    assert_eq!(rltf_again, rltf_rows);

    // Figure sweeps: same journal, different granularity grid — the old
    // index-based keys would have replayed g=0.6 records as g=0.8 data.
    let fig_cfg = SweepConfig {
        graphs_per_point: 2,
        granularities: vec![0.6],
        crash_draws: 2,
        threads: 2,
        ..Default::default()
    };
    sweep_checkpointed(1, 1, &fig_cfg, Some(&journal)).unwrap();
    let other_grid = SweepConfig {
        granularities: vec![0.8],
        ..fig_cfg.clone()
    };
    let fresh = sweep_checkpointed(1, 1, &other_grid, None).unwrap();
    let shared = sweep_checkpointed(1, 1, &other_grid, Some(&journal)).unwrap();
    assert_eq!(shared.by_granularity[0].0, 0.8);
    let (a, b) = (&shared.by_granularity[0].1, &fresh.by_granularity[0].1);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.granularity, y.granularity,
            "foreign-granularity record replayed"
        );
        assert_eq!(x.latency_ub, y.latency_ub);
    }
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn figure_sweep_resumes_identically() {
    let cfg = SweepConfig {
        graphs_per_point: 4,
        granularities: vec![0.6, 1.2],
        crash_draws: 2,
        threads: 2,
        ..Default::default()
    };
    let reference = sweep_checkpointed(1, 1, &cfg, None).unwrap();

    let journal = tmp("figs");
    sweep_checkpointed(1, 1, &cfg, Some(&journal)).unwrap();
    interrupt(&journal, 2);
    let resumed = sweep_checkpointed(1, 1, &cfg, Some(&journal)).unwrap();

    // Same shape, same records, same order (timings of replayed records
    // come from the journal, so the comparison must skip sched_micros —
    // compare everything else field by field).
    assert_eq!(resumed.by_granularity.len(), reference.by_granularity.len());
    for ((g_a, recs_a), (g_b, recs_b)) in
        resumed.by_granularity.iter().zip(&reference.by_granularity)
    {
        assert_eq!(g_a, g_b);
        assert_eq!(recs_a.len(), recs_b.len());
        for (a, b) in recs_a.iter().zip(recs_b) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.algo, b.algo);
            assert_eq!(a.feasible, b.feasible);
            assert_eq!(a.stages, b.stages);
            assert_eq!(a.latency_ub, b.latency_ub);
            assert_eq!(a.latency_0, b.latency_0);
            assert_eq!(a.latency_crash, b.latency_crash);
            assert_eq!(a.crash_losses, b.crash_losses);
            assert_eq!(a.comms, b.comms);
            assert_eq!(a.procs_used, b.procs_used);
        }
    }
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn scaling_sweep_resumes_identically() {
    let cfg = ScalingConfig {
        task_counts: vec![20],
        proc_counts: vec![8],
        epsilons: vec![1],
        reps: 2,
        threads: 2,
        ..Default::default()
    };
    let reference = scaling_sweep_checkpointed(&cfg, None).unwrap();

    let journal = tmp("scaling");
    scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();
    interrupt(&journal, 2);
    let resumed = scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();

    assert_eq!(resumed.len(), reference.len());
    for (a, b) in resumed.iter().zip(&reference) {
        assert_eq!(
            (a.v, a.m, a.epsilon, &a.algo),
            (b.v, b.m, b.epsilon, &b.algo)
        );
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(a.reps, b.reps);
        // micros is a wall-clock measurement; replayed points keep the
        // measuring run's value, fresh points re-measure — both are fine.
    }
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn scaling_centre_point_is_measured_once_and_resumes() {
    // Regression: with one value per axis, (v = 100, m = 20, ε = 1) sits
    // in all three sweeps. It used to be measured and journalled at every
    // position (6 records), and a rerun on the complete journal
    // re-measured two positions per algorithm and grew the journal.
    let cfg = ScalingConfig {
        task_counts: vec![100],
        proc_counts: vec![20],
        epsilons: vec![1],
        reps: 1,
        threads: 1,
        ..Default::default()
    };
    let journal = tmp("scaling-centre");
    let lines = || std::fs::read_to_string(&journal).unwrap().lines().count();
    let micros =
        |pts: &[ScalingPoint]| -> Vec<u64> { pts.iter().map(|p| p.micros.to_bits()).collect() };

    let first = scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();
    assert_eq!(first.len(), 6, "the table keeps one row per sweep position");
    assert_eq!(lines(), 2, "one record per algorithm");
    for algo in first.chunks(3) {
        assert!(
            algo.iter()
                .all(|p| p.micros.to_bits() == algo[0].micros.to_bits()),
            "one measurement reused at every position"
        );
    }

    let again = scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();
    assert_eq!(
        micros(&again),
        micros(&first),
        "a rerun replays, not re-measures"
    );
    assert_eq!(lines(), 2, "a rerun journals nothing");
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn serial_runs_journal_every_item() {
    // A serial run gains nothing from batching: each item is journalled
    // before the next one runs, so a kill loses at most the one in flight.
    assert_eq!(window_for(0), 1);
    assert_eq!(window_for(1), 1);
    assert_eq!(window_for(2), 16);
    let path = tmp("serial");
    let items: Vec<u64> = (0..3).collect();
    let lines = || std::fs::read_to_string(&path).map_or(0, |t| t.lines().count());
    let seen = std::sync::Mutex::new(Vec::new());
    run_journalled(
        &items,
        |i| format!("item-{i}"),
        1,
        Some(&path),
        |i| {
            seen.lock().unwrap().push(lines());
            *i
        },
        |_, _: u64| {},
    )
    .unwrap();
    assert_eq!(seen.into_inner().unwrap(), [0, 1, 2]);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn scaling_resume_measures_only_the_missing_points() {
    // Scaling runs its points one at a time, so each is journalled as
    // soon as it is measured: a kill after the first point keeps it.
    let cfg = ScalingConfig {
        task_counts: vec![20, 30],
        proc_counts: vec![4],
        epsilons: vec![0],
        reps: 1,
        threads: 1,
        ..Default::default()
    };
    let journal = tmp("scaling-serial");
    scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();
    let full = std::fs::read_to_string(&journal).unwrap();
    let first: Value = serde_json::from_str(full.lines().next().unwrap()).unwrap();
    let Value::Map(fields) = first else {
        panic!("journal lines are objects")
    };
    let kept = ScalingPoint::from_value(&fields[1].1).unwrap();

    interrupt(&journal, 1);
    let resumed = scaling_sweep_checkpointed(&cfg, Some(&journal)).unwrap();
    let after = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        after.lines().count(),
        full.lines().count(),
        "each missing point is measured and journalled once"
    );
    assert_eq!(after.lines().next(), full.lines().next());
    let replayed = resumed
        .iter()
        .find(|p| (p.v, p.m, p.epsilon, &p.algo) == (kept.v, kept.m, kept.epsilon, &kept.algo))
        .unwrap();
    assert_eq!(
        replayed.micros.to_bits(),
        kept.micros.to_bits(),
        "the kept point replays, not re-measures"
    );
    std::fs::remove_file(&journal).unwrap();
}

/// One journalled command under test: how to run it, how to tell whether
/// a journal record decodes as its record type, and — for commands that
/// stream their output — which output lines a journal record stands for.
struct Journalled {
    name: &'static str,
    /// Run the command and render its output, wall-clock timings left out.
    run: fn(Option<&Path>) -> Vec<String>,
    decodes: fn(&Value) -> bool,
    /// `Some` for commands that emit replayed records first and recomputed
    /// ones after (`run_journalled`'s order); `None` for commands that
    /// assemble their output by key.
    lines_of: Option<fn(&Value) -> Vec<String>>,
}

fn journalled_commands() -> Vec<Journalled> {
    fn seq_lines(v: &Value) -> Vec<String> {
        match v {
            Value::Seq(rows) => rows
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect(),
            _ => panic!("record is not a row list"),
        }
    }
    fn one_line(v: &Value) -> Vec<String> {
        vec![serde_json::to_string(v).unwrap()]
    }
    const PARETO_SPEC: &str = r#"{"name":"bogus","graphs":["fig1","fig2-variant"],
        "heuristics":["rltf","ltf"],"epsilons":[{"max":1}]}"#;
    const SLO_SPEC: &str = r#"{"name":"bogus-slo","graphs":["fig1"],"heuristics":["rltf"],
        "epsilons":[{"max":1}],
        "failure":{"rate":0.003,"traces":6,"items":8,"block":2,"period":30.0,"policy":"reroute"},
        "slo":{"max_latency":200.0,"max_violation_rate":0.25}}"#;
    vec![
        Journalled {
            name: "figure sweep",
            run: |journal| {
                let cfg = SweepConfig {
                    graphs_per_point: 2,
                    granularities: vec![0.6, 1.2],
                    crash_draws: 2,
                    threads: 2,
                    ..Default::default()
                };
                let data = sweep_checkpointed(1, 1, &cfg, journal).unwrap();
                data.by_granularity
                    .iter()
                    .flat_map(|(g, recs)| {
                        recs.iter().map(move |r| {
                            format!(
                                "{g} {} {} {} {} {} {} {:?} {} {} {}",
                                r.seed,
                                r.algo,
                                r.feasible,
                                r.stages,
                                r.latency_ub,
                                r.latency_0,
                                r.latency_crash,
                                r.crash_losses,
                                r.comms,
                                r.procs_used
                            )
                        })
                    })
                    .collect()
            },
            decodes: |v| Vec::<RunRecord>::from_value(v).is_ok(),
            lines_of: None,
        },
        Journalled {
            name: "scaling",
            run: |journal| {
                let cfg = ScalingConfig {
                    task_counts: vec![20],
                    proc_counts: vec![8],
                    epsilons: vec![1],
                    reps: 1,
                    threads: 2,
                    ..Default::default()
                };
                scaling_sweep_checkpointed(&cfg, journal)
                    .unwrap()
                    .iter()
                    .map(|p| {
                        let (v, m, e, a, f, r) = (p.v, p.m, p.epsilon, &p.algo, p.feasible, p.reps);
                        format!("{a} {v} {m} {e} {f}/{r}")
                    })
                    .collect()
            },
            decodes: |v| ScalingPoint::from_value(v).is_ok(),
            lines_of: None,
        },
        Journalled {
            name: "pareto workload sweep",
            run: |journal| {
                let mut out = Vec::new();
                workload_sweep(&sweep_cfg(), journal, |row| {
                    out.push(serde_json::to_string(row).unwrap())
                })
                .unwrap();
                out
            },
            decodes: |v| Vec::<FrontRow>::from_value(v).is_ok(),
            lines_of: Some(seq_lines),
        },
        Journalled {
            name: "pareto campaign shard",
            run: |journal| {
                let spec = CampaignSpec::parse(PARETO_SPEC).unwrap();
                let mut out = Vec::new();
                run_shard::<ItemResult>(&spec, Shard::solo(), 2, journal, |r| {
                    out.push(serde_json::to_string(r).unwrap())
                })
                .unwrap();
                out
            },
            decodes: |v| ItemResult::from_value(v).is_ok(),
            lines_of: Some(one_line),
        },
        Journalled {
            name: "slo campaign shard",
            run: |journal| {
                let spec = CampaignSpec::parse(SLO_SPEC).unwrap();
                let mut out = Vec::new();
                run_shard::<SloItemResult>(&spec, Shard::solo(), 2, journal, |r| {
                    out.push(serde_json::to_string(r).unwrap())
                })
                .unwrap();
                out
            },
            decodes: |v| SloItemResult::from_value(v).is_ok(),
            lines_of: Some(one_line),
        },
    ]
}

#[test]
fn undecodable_records_recompute_in_every_journalled_command() {
    for d in journalled_commands() {
        let reference = (d.run)(None);
        let journal = tmp(&format!("bogus-{}", d.name.replace(' ', "-")));
        assert_eq!(
            (d.run)(Some(&journal)),
            reference,
            "{}: journalled run",
            d.name
        );

        // Keep the second record's key, make its payload undecodable.
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert!(lines.len() >= 3, "{}: journal too short", d.name);
        let Value::Map(entries) = &mut lines[1] else {
            panic!("{}: journal line is not an object", d.name);
        };
        let key = entries[0].1.clone();
        let original = std::mem::replace(
            &mut entries[1].1,
            Value::Map(vec![("bogus".to_string(), Value::UInt(1))]),
        );
        let bogus: String = lines
            .iter()
            .map(|v| serde_json::to_string(v).unwrap() + "\n")
            .collect();
        std::fs::write(&journal, bogus).unwrap();

        // The rerun recomputes that item and otherwise replays. Commands
        // that assemble by key reproduce the reference exactly; streaming
        // commands emit the recomputed item after the replayed ones.
        let expected = match d.lines_of {
            None => reference,
            Some(lines_of) => {
                let moved = lines_of(&original);
                let mut rest = reference.clone();
                for line in &moved {
                    let at = rest
                        .iter()
                        .position(|l| l == line)
                        .expect("line in reference");
                    rest.remove(at);
                }
                rest.extend(moved);
                rest
            }
        };
        assert_eq!((d.run)(Some(&journal)), expected, "{}: rerun", d.name);

        // The journal now holds a decodable record under that key,
        // appended by the recompute.
        let healed = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(healed.lines().count(), lines.len() + 1, "{}", d.name);
        let decodable = healed.lines().any(|l| {
            let v: Value = serde_json::from_str(l).unwrap();
            let Value::Map(e) = &v else { return false };
            e[0].1 == key && (d.decodes)(&e[1].1)
        });
        assert!(decodable, "{}: no decodable record for {key:?}", d.name);
        std::fs::remove_file(&journal).unwrap();
    }
}
