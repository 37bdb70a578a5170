//! The campaign workloads: `ltf-campaign run` with spawned workers.
//!
//! Each run repeats the seed's campaign as whole jobs until `--seconds`
//! have passed and at least [`MIN_JOBS`] jobs ran. The coordinator
//! spawns this binary as its worker (`--worker-bin`); [`tap_worker`]
//! stamps the moment each worker starts and ends, then runs the real
//! `campaign-worker` with the same arguments and streams. A job's set-up
//! time runs from the coordinator's launch to its first worker starting.

use crate::check::fnv;
use crate::report::{geomean, median, percentile, Report};
use crate::trace::{overhead, Tracer};
use crate::Ctx;
use ltf_baselines::full_solver;
use ltf_core::{AlgoConfig, Heuristic, PreparedInstance, ScheduleError};
use ltf_experiments::campaign::{
    build_slo_report, render_lines, run_serial, run_slo_serial, slo_cells, slo_work_items,
    work_items, CampaignSpec, ItemResult, Merger, SloItemResult,
};
use ltf_experiments::gen_instance_on;
use ltf_experiments::pareto::FrontRow;
use ltf_faultlab::{replay, CellStats, FailureModel, ReplayConfig, SimEngine};
use ltf_schedule::Schedule;
use ltf_sim::RecoveryPolicy;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Environment variable naming the directory worker stamps go to.
pub const TAP_DIR_ENV: &str = "LTF_PERFBENCH_TAP_DIR";
/// Environment variable naming the real worker executable.
pub const REAL_WORKER_ENV: &str = "LTF_PERFBENCH_REAL_WORKER";
/// Spawned workers per job (the core count of the reference box).
pub const WORKERS: usize = 2;
/// Fewest jobs a run makes, however long they take: enough for a p75
/// job wall time with ten jobs beyond it.
const MIN_JOBS: usize = 40;
/// Percentile of the job wall times reported as `tail_ms`.
const TAIL_PCT: f64 = 75.0;

/// Which campaign kind a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Pareto fronts of workload-family instances.
    Pareto,
    /// SLO crash-trace replay with the reroute policy.
    Slo,
}

/// A campaign workload's fixed settings.
#[derive(Debug, Clone)]
pub struct CampaignWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Campaign kind.
    pub kind: Kind,
}

/// `campaign-pareto`.
pub const PARETO: CampaignWorkload = CampaignWorkload {
    name: "campaign-pareto",
    kind: Kind::Pareto,
};

/// `campaign-slo`.
pub const SLO: CampaignWorkload = CampaignWorkload {
    name: "campaign-slo",
    kind: Kind::Slo,
};

/// Work items of the Pareto spec (one front each).
pub const PARETO_INSTANCES: usize = 8;
/// Instance seed of both specs: every job and every run solves the same
/// instances, so the work per job is fixed.
pub const SPEC_SEED: u64 = 7;
/// Instances per heuristic of the SLO spec (one cell each).
pub const SLO_INSTANCES: usize = 4;
/// Crash traces per SLO cell.
pub const SLO_TRACES: usize = 500;
/// Traces per SLO work item.
pub const SLO_BLOCK: usize = 50;

/// The run's campaign spec, as JSON. The Pareto campaign has no input
/// but its instances, so it is the same for every seed; the SLO campaign
/// names itself after the seed, and the name keys (through the spec
/// signature) every sampled crash trace.
pub fn spec_json(kind: Kind, seed: u64) -> String {
    match kind {
        Kind::Pareto => format!(
            r#"{{"name": "perfbench-pareto", "graphs": ["workload"], "heuristics": ["rltf"], "epsilons": [{{"max": 1}}], "platform_procs": [8], "instances": {PARETO_INSTANCES}, "max_procs": 3, "seed": {SPEC_SEED}}}"#
        ),
        Kind::Slo => format!(
            r#"{{"name": "perfbench-slo-{seed}", "graphs": ["workload"], "heuristics": ["rltf", "ltf"], "epsilons": [{{"min": 1, "max": 1}}], "platform_procs": [10], "instances": {SLO_INSTANCES}, "seed": {SPEC_SEED}, "failure": {{"rate": 0.002, "traces": {SLO_TRACES}, "items": 16, "block": {SLO_BLOCK}, "policy": "reroute"}}, "slo": {{"max_latency": 2000.0, "max_violation_rate": 0.1}}}}"#
        ),
    }
}

fn epoch_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs_f64()
}

/// Worker entry when the coordinator spawns this binary: stamp, run the
/// real worker with the same arguments, stamp again, pass its status on.
pub fn tap_worker(args: &[String]) -> i32 {
    let start = epoch_s();
    let (Some(real), Some(dir)) = (
        std::env::var_os(REAL_WORKER_ENV),
        std::env::var_os(TAP_DIR_ENV),
    ) else {
        eprintln!("ltf-perfbench: campaign-worker needs {REAL_WORKER_ENV} and {TAP_DIR_ENV}");
        return 2;
    };
    let status = Command::new(real).args(args).status();
    let end = epoch_s();
    let stamp = PathBuf::from(dir).join(format!("worker-{}.txt", std::process::id()));
    if let Err(e) = std::fs::write(&stamp, format!("{start} {end}\n")) {
        eprintln!("ltf-perfbench: write {}: {e}", stamp.display());
        return 1;
    }
    match status {
        Ok(s) => s.code().unwrap_or(1),
        Err(e) => {
            eprintln!("ltf-perfbench: spawn worker: {e}");
            1
        }
    }
}

/// What one campaign job observed.
#[derive(Debug)]
struct Job {
    wall_s: f64,
    setup_s: f64,
    /// Σ worker lifetimes.
    busy_s: f64,
    requeues: u64,
    output: Result<String, String>,
}

fn run_job(ctx: &Ctx, spec_path: &Path, j: usize) -> Result<Job, String> {
    let dir = ctx.work.join(format!("job-{j}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = dir.join("merged.jsonl");
    let log = dir.join("coordinator.log");
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let log_file = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    let launch = epoch_s();
    let t0 = Instant::now();
    let status = Command::new(ctx.bin("ltf-campaign"))
        .arg("run")
        .arg("--spec")
        .arg(spec_path)
        .args(["--workers", "2", "--shards", "2", "--worker-bin"])
        .arg(&me)
        .arg("--out")
        .arg(&out)
        .env(TAP_DIR_ENV, &dir)
        .env(REAL_WORKER_ENV, ctx.bin("ltf-campaign"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(log_file))
        .status()
        .map_err(|e| format!("spawn ltf-campaign: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let log_text = std::fs::read_to_string(&log).unwrap_or_default();
    let mut stamps = Vec::new();
    for entry in std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("worker-") {
            let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
            let v: Vec<f64> = text
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            if let [s, e] = v[..] {
                stamps.push((s, e));
            }
        }
    }
    let first = stamps.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let requeues = log_text.matches("reassigning").count() as u64;
    let output = if status.success() {
        std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))
    } else {
        Err(format!(
            "coordinator exited with {status}: {}",
            log_text.trim()
        ))
    };
    Ok(Job {
        wall_s,
        setup_s: if first.is_finite() {
            first - launch
        } else {
            f64::NAN
        },
        busy_s: stamps.iter().map(|(s, e)| e - s).sum(),
        requeues,
        output,
    })
}

/// The stored digest of `spec`'s serial output, if recorded. The table
/// (`digests.txt`) holds `workload signature digest` lines.
fn stored_digest(ctx: &Ctx, workload: &str, spec: &CampaignSpec) -> Option<u64> {
    let text = std::fs::read_to_string(ctx.digests.as_ref()?).ok()?;
    let sig = format!("{:016x}", spec.signature());
    text.lines()
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, s, d] if w == workload && s == sig => u64::from_str_radix(d, 16).ok(),
            _ => None,
        })
}

/// The serial output of `spec`, as the coordinator writes it.
pub fn serial_output(spec: &CampaignSpec, threads: usize) -> Result<String, String> {
    let lines = if spec.failure.is_some() {
        run_slo_serial(spec, threads, None)?.json_lines()
    } else {
        run_serial(spec, threads, None)?
    };
    Ok(lines.iter().map(|l| format!("{l}\n")).collect())
}

/// Quality figures of a merged output: `(units, feasible share,
/// latencies, traces)` — units are work items (fronts) or cells.
fn quality(
    kind: Kind,
    spec: &CampaignSpec,
    text: &str,
) -> Result<(usize, f64, Vec<f64>, u64), String> {
    let exps = spec.expand().map_err(|e| e.to_string())?;
    let rows: Vec<serde::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).map_err(|e| format!("output line: {e}")))
        .collect::<Result<_, _>>()?;
    let num = |v: &serde::Value, k: &str| -> Option<f64> {
        let serde::Value::Map(m) = v else { return None };
        match m.iter().find(|(n, _)| n == k)?.1 {
            serde::Value::Float(f) => Some(f),
            serde::Value::UInt(u) => Some(u as f64),
            serde::Value::Int(i) => Some(i as f64),
            serde::Value::Bool(b) => Some(b as u8 as f64),
            _ => None,
        }
    };
    match kind {
        Kind::Pareto => {
            let items = work_items(&exps).len();
            let mut best = vec![f64::INFINITY; items];
            for r in &rows {
                let (Some(i), Some(l)) = (num(r, "item"), num(r, "latency")) else {
                    return Err("front row lacks item or latency".into());
                };
                let slot = best
                    .get_mut(i as usize)
                    .ok_or("front row item out of range")?;
                *slot = slot.min(l);
            }
            let lat: Vec<f64> = best.into_iter().filter(|l| l.is_finite()).collect();
            Ok((items, lat.len() as f64 / items.max(1) as f64, lat, 0))
        }
        Kind::Slo => {
            let cells = rows.len();
            let mut lat = Vec::new();
            let mut traces = 0;
            for r in &rows {
                traces += num(r, "traces").unwrap_or(0.0) as u64;
                if num(r, "feasible") == Some(1.0) {
                    lat.push(num(r, "p50").ok_or("feasible cell without p50")?);
                }
            }
            Ok((cells, lat.len() as f64 / cells.max(1) as f64, lat, traces))
        }
    }
}

/// Run a campaign workload end to end (and, with `--trace 1`, traced).
pub fn run(wl: &CampaignWorkload, ctx: &Ctx) -> Result<Report, String> {
    let text = spec_json(wl.kind, ctx.seed);
    let spec = CampaignSpec::parse(&text).map_err(|e| e.to_string())?;
    let spec_path = ctx.work.join(format!("{}-{}.json", wl.name, ctx.seed));
    std::fs::write(&spec_path, &text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    ctx.config(
        wl.name,
        &[
            ("campaign", format!("ltf-campaign run, spawned workers: {WORKERS}, shards: {WORKERS}, jobs: back to back for {} s (at least {MIN_JOBS})", ctx.seconds)),
            ("spec", text.clone()),
        ],
    );

    let t0 = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || t0.elapsed().as_secs_f64() < ctx.seconds {
        jobs.push(run_job(ctx, &spec_path, jobs.len())?);
    }

    let expected = match stored_digest(ctx, wl.name, &spec) {
        Some(d) => d,
        None => fnv(serial_output(&spec, WORKERS)?.as_bytes()),
    };
    let (units, feasible, lat, traces) = match &jobs[0].output {
        Ok(text) => quality(wl.kind, &spec, text)?,
        Err(e) => return Err(e.clone()),
    };
    let mut rep = Report::default();
    for (j, job) in jobs.iter().enumerate() {
        rep.attempted += units as u64;
        let ok = matches!(&job.output, Ok(t) if fnv(t.as_bytes()) == expected);
        if !ok {
            rep.failed += units as u64;
            match &job.output {
                Ok(t) => eprintln!(
                    "{}: job {j}: output digest {:016x} != serial {expected:016x}",
                    wl.name,
                    fnv(t.as_bytes())
                ),
                Err(e) => eprintln!("{}: job {j}: {e}", wl.name),
            }
        }
    }
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let setups: Vec<f64> = jobs.iter().map(|j| j.setup_s).collect();
    if setups.iter().any(|s| s.is_nan()) {
        return Err("a job started no worker".into());
    }
    let per_job = match wl.kind {
        Kind::Pareto => units as f64,
        Kind::Slo => traces as f64,
    };
    // Median of the per-job rates: a host stall slows one job, not the run.
    let rates: Vec<f64> = walls.iter().map(|w| per_job / w).collect();
    let rate = median(&rates);
    rep.set("setup_s", median(&setups));
    rep.set("p50_ms", median(&walls) * 1e3);
    rep.set("tail_ms", percentile(&walls, TAIL_PCT) * 1e3);
    rep.set("max_rate", rate);
    rep.set("feasible_share", feasible);
    rep.set("sched_latency_gm", geomean(&lat));

    let unit = if wl.kind == Kind::Pareto {
        "fronts"
    } else {
        "traces"
    };
    println!("  RESULTS:");
    println!("   * jobs: {} (wall s: {})", jobs.len(), fmt_list(&walls));
    println!(
        "   * job_p50_ms: {:.1} ms, job_p{TAIL_PCT}_ms: {:.1} ms, job_max_ms: {:.1} ms",
        median(&walls) * 1e3,
        rep.get("tail_ms").unwrap_or(0.0),
        walls.iter().copied().fold(0.0, f64::max) * 1e3
    );
    println!("   * {unit}_per_s: {rate:.2} 1/s ({per_job} {unit} per job)");
    println!(
        "   * fail_share: {:.6} ({} of {})",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    );
    println!(
        "   * feasible_share: {feasible:.4} over {units} {}",
        if wl.kind == Kind::Pareto {
            "fronts"
        } else {
            "cells"
        }
    );
    println!("   * sched_latency_gm: {:.3} time units", geomean(&lat));
    println!(
        "   * setup_s: {:.4} s (median of {} jobs: {})",
        median(&setups),
        jobs.len(),
        fmt_list(&setups)
    );
    println!("   * serial digest: {expected:016x}");

    if ctx.trace {
        let busy: f64 = jobs.iter().map(|j| j.busy_s).sum();
        rep.set(
            "coord.worker_busy_share",
            busy / (WORKERS as f64 * walls.iter().sum::<f64>()),
        );
        rep.set(
            "coord.requeues",
            jobs.iter().map(|j| j.requeues).sum::<u64>() as f64,
        );
        traced(wl, ctx, &spec, expected, &mut rep)?;
    }
    Ok(rep)
}

fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// A heuristic that counts (and times) the oracle calls made through it.
struct Counting<'a> {
    inner: &'a dyn Heuristic,
    calls: AtomicU64,
    feasible: AtomicU64,
    call_ms: Mutex<Vec<f64>>,
}

impl Heuristic for Counting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.inner.aliases()
    }

    fn schedule(
        &self,
        inst: &PreparedInstance<'_>,
        cfg: &AlgoConfig,
    ) -> Result<Schedule, ScheduleError> {
        let t = Instant::now();
        let out = self.inner.schedule(inst, cfg);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.call_ms
            .lock()
            .expect("no panics while holding the lock")
            .push(ms);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if out.is_ok() {
            self.feasible.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// Oracle counters of a traced Pareto pass.
#[derive(Debug, Default)]
struct Oracle {
    per_front: Vec<f64>,
    calls: u64,
    feasible: u64,
    call_ms: Vec<f64>,
}

/// The Pareto items `items` computed as `compute_item` does, one span
/// per layer call, merged and rendered at the end.
fn pareto_pass(
    tr: &mut Tracer,
    spec: &CampaignSpec,
    take: usize,
    oracle: &mut Oracle,
) -> Result<String, String> {
    let exps = tr
        .time("campaign.expand", None, 0, || spec.expand())
        .map_err(|e| e.to_string())?;
    let items = work_items(&exps);
    let mut results = Vec::new();
    for wi in items.iter().take(take) {
        let exp = &exps[wi.experiment];
        let id = wi.item as u64;
        let root = tr.open("campaign.item", None, id);
        let inst = tr.time("instance.gen", root, id, || {
            gen_instance_on(&exp.workload, wi.seed, exp.topology.as_ref())
        });
        let (g, p) = (&inst.graph, &inst.platform);
        let solver = tr.time("solver.prepare", root, id, || full_solver(g, p));
        let inner = solver.heuristic(&exp.algo).ok_or("unknown heuristic")?;
        let counting = Counting {
            inner,
            calls: AtomicU64::new(0),
            feasible: AtomicU64::new(0),
            call_ms: Mutex::new(Vec::new()),
        };
        let front = tr.time("search.front", root, id, || {
            ltf_core::search::pareto::pareto_front(g, p, &counting, &exp.opts)
        });
        for pt in &front {
            let prefix = p.prefix(pt.platform_procs);
            tr.time("validate", root, id, || {
                ltf_schedule::validate(g, &prefix, &pt.solution.schedule)
            })
            .map_err(|v| format!("item {id}: witness fails validation: {v:?}"))?;
        }
        tr.close(root);
        let calls = counting.calls.load(Ordering::Relaxed);
        oracle.per_front.push(calls as f64);
        oracle.calls += calls;
        oracle.feasible += counting.feasible.load(Ordering::Relaxed);
        oracle
            .call_ms
            .extend(counting.call_ms.into_inner().expect("lock is not poisoned"));
        results.push(ItemResult {
            item: id,
            experiment: wi.experiment as u64,
            label: exp.label.clone(),
            seed: wi.seed,
            rows: front.iter().map(|pt| FrontRow::new(wi.seed, pt)).collect(),
        });
    }
    let lines = tr.time(
        "campaign.merge",
        None,
        0,
        || -> Result<Vec<String>, String> {
            let mut merger = Merger::new(results.len());
            for r in results {
                merger.insert(r)?;
            }
            Ok(render_lines(&merger.finish()?))
        },
    )?;
    Ok(lines.iter().map(|l| format!("{l}\n")).collect())
}

/// The SLO items computed as `compute_slo_item` does, one span per
/// layer call, merged into the report at the end.
fn slo_pass(tr: &mut Tracer, spec: &CampaignSpec, take: usize) -> Result<String, String> {
    let f = spec.failure.as_ref().ok_or("not an SLO spec")?;
    let (exps, cells, items) = tr.time("campaign.expand", None, 0, || {
        let exps = spec.expand().map_err(|e| e.to_string())?;
        let cells = slo_cells(&exps);
        let items = slo_work_items(f, &cells);
        Ok::<_, String>((exps, cells, items))
    })?;
    let sig = spec.signature();
    let slo = ltf_experiments::campaign::slo::slo_threshold(spec);
    let policy = match f.policy.as_deref() {
        Some("reroute") => RecoveryPolicy::Reroute,
        _ => RecoveryPolicy::FailStop,
    };
    let cfg = ReplayConfig {
        items: f.items(),
        policy,
        engine: f
            .engine
            .as_deref()
            .and_then(SimEngine::parse)
            .unwrap_or(SimEngine::Synchronous),
    };
    let mut results = Vec::new();
    for wi in items.iter().take(take) {
        let cell = &cells[wi.cell];
        let exp = &exps[cell.experiment];
        let id = wi.item as u64;
        let root = tr.open("campaign.item", None, id);
        let mut wl = exp.workload.clone();
        wl.epsilon = cell.epsilon;
        let inst = tr.time("instance.gen", root, id, || {
            gen_instance_on(&wl, cell.seed, exp.topology.as_ref())
        });
        let (g, p) = (&inst.graph, &inst.platform);
        let period = f.period.unwrap_or(inst.period);
        let solver = tr.time("solver.prepare", root, id, || full_solver(g, p));
        let name = if exp.algo == "ltf" {
            "solver.ltf"
        } else {
            "solver.rltf"
        };
        let solved = tr.time(name, root, id, || {
            solver.solve(&exp.algo, &AlgoConfig::new(cell.epsilon, period))
        });
        let mut stats = CellStats::new();
        let feasible = solved.is_ok();
        if let Ok(sol) = solved {
            tr.time("validate", root, id, || {
                ltf_schedule::validate(g, p, &sol.schedule)
            })
            .map_err(|v| format!("item {id}: witness fails validation: {v:?}"))?;
            let model = match (&f.rate, &f.rates) {
                (Some(r), None) => FailureModel::uniform(p.num_procs(), *r),
                (None, Some(rs)) => FailureModel::from_rates(rs.clone()),
                _ => return Err("failure block needs exactly one of rate/rates".into()),
            };
            for t in wi.t0..wi.t1 {
                let stream = (cell.index * f.traces() + t) as u64;
                let trace = tr.time("faultlab.sample", root, id, || {
                    model.sample_trace(sig, stream)
                });
                let rep = tr.time("sim.replay", root, id, || {
                    replay(g, p, &sol.schedule, trace, &cfg)
                });
                tr.time("faultlab.record", root, id, || stats.record(&rep, &slo));
            }
        }
        tr.close(root);
        results.push(SloItemResult {
            item: id,
            cell: cell.index as u64,
            label: cell.label.clone(),
            feasible,
            stats,
        });
    }
    let lines = tr.time(
        "campaign.merge",
        None,
        0,
        || -> Result<Vec<String>, String> {
            let mut merger: Merger<SloItemResult> = Merger::new(results.len());
            for r in results {
                merger.insert(r)?;
            }
            Ok(build_slo_report(spec, &merger.finish()?)?.json_lines())
        },
    )?;
    Ok(lines.iter().map(|l| format!("{l}\n")).collect())
}

/// The traced in-process run of the whole campaign.
fn traced(
    wl: &CampaignWorkload,
    ctx: &Ctx,
    spec: &CampaignSpec,
    expected: u64,
    rep: &mut Report,
) -> Result<(), String> {
    let mut tr = Tracer::on();
    let mut oracle = Oracle::default();
    let output = match wl.kind {
        Kind::Pareto => pareto_pass(&mut tr, spec, usize::MAX, &mut oracle)?,
        Kind::Slo => slo_pass(&mut tr, spec, usize::MAX)?,
    };
    if fnv(output.as_bytes()) != expected {
        rep.failed += 1;
        eprintln!("{}: traced output differs from the serial output", wl.name);
    }
    let over = overhead(|t| {
        let _ = match wl.kind {
            Kind::Pareto => pareto_pass(t, spec, 2, &mut Oracle::default()),
            Kind::Slo => slo_pass(t, spec, 2),
        };
    });
    let expand_ms: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let exps = spec.expand().expect("expanded above");
            match &spec.failure {
                Some(f) => drop(std::hint::black_box(slo_work_items(f, &slo_cells(&exps)))),
                None => drop(std::hint::black_box(work_items(&exps))),
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let p50 = |name: &str| median(&tr.durations_us(name));
    rep.set("solver.prepare_us", p50("solver.prepare"));
    rep.set("validate.us", p50("validate"));
    rep.set("campaign.expand_ms", median(&expand_ms));
    rep.set("campaign.merge_ms", p50("campaign.merge") / 1e3);
    rep.set("trace.overhead_share", over);
    rep.set("trace.spans", tr.spans().len() as f64);
    match wl.kind {
        Kind::Pareto => {
            rep.set("solver.rltf_ms", median(&oracle.call_ms));
            rep.set("solver.calls", oracle.calls as f64);
            rep.set(
                "solver.infeasible_share",
                1.0 - oracle.feasible as f64 / oracle.calls.max(1) as f64,
            );
            rep.set("search.front_ms", p50("search.front") / 1e3);
            rep.set("search.oracle_calls", median(&oracle.per_front));
            rep.set(
                "search.useful_ratio",
                oracle.feasible as f64 / oracle.calls.max(1) as f64,
            );
        }
        Kind::Slo => {
            let ltf = tr.durations_us("solver.ltf");
            let rltf = tr.durations_us("solver.rltf");
            rep.set("solver.ltf_ms", median(&ltf) / 1e3);
            rep.set("solver.rltf_ms", median(&rltf) / 1e3);
            rep.set("solver.calls", (ltf.len() + rltf.len()) as f64);
            rep.set("sim.replay_us", p50("sim.replay"));
            rep.set("faultlab.sample_us", p50("faultlab.sample"));
            rep.set("faultlab.record_us", p50("faultlab.record"));
        }
    }
    let path = ctx
        .work
        .join(format!("spans-{}-{}.jsonl", wl.name, ctx.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "   * spans -> {} ({} spans)",
        path.display(),
        tr.spans().len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_are_deterministic_in_the_seed() {
        let sig = |kind, seed| {
            CampaignSpec::parse(&spec_json(kind, seed))
                .unwrap()
                .signature()
        };
        for kind in [Kind::Pareto, Kind::Slo] {
            assert_eq!(sig(kind, 5), sig(kind, 5));
            assert!(CampaignSpec::parse(&spec_json(kind, 5))
                .unwrap()
                .expand()
                .is_ok());
        }
        // The seed draws the SLO crash traces; the Pareto work is fixed.
        assert_ne!(sig(Kind::Slo, 5), sig(Kind::Slo, 6));
        assert_eq!(sig(Kind::Pareto, 5), sig(Kind::Pareto, 6));
    }

    #[test]
    fn traced_passes_reproduce_the_serial_output() {
        let mut small = CampaignSpec::parse(&spec_json(Kind::Pareto, 3)).unwrap();
        small.instances = Some(2);
        let traced = pareto_pass(
            &mut Tracer::on(),
            &small,
            usize::MAX,
            &mut Oracle::default(),
        )
        .unwrap();
        assert_eq!(traced, serial_output(&small, 1).unwrap());

        let mut slo = CampaignSpec::parse(&spec_json(Kind::Slo, 3)).unwrap();
        slo.instances = Some(1);
        if let Some(f) = slo.failure.as_mut() {
            f.traces = Some(20);
            f.block = Some(10);
        }
        let traced = slo_pass(&mut Tracer::on(), &slo, usize::MAX).unwrap();
        assert_eq!(traced, serial_output(&slo, 1).unwrap());
    }

    #[test]
    fn a_tampered_campaign_output_changes_its_digest() {
        let mut small = CampaignSpec::parse(&spec_json(Kind::Pareto, 3)).unwrap();
        small.instances = Some(1);
        let out = serial_output(&small, 1).unwrap();
        let tampered = out.replacen("\"latency\":", "\"latency\":1", 1);
        assert_ne!(fnv(out.as_bytes()), fnv(tampered.as_bytes()));
    }
}
