//! The serve workloads: open-loop TCP traffic against `ltf-serve --listen`.

use crate::check::{Checker, Verdict};
use crate::gen::{self, Distinct};
use crate::load::{self, backlog_at, ConnPlan, Phase, Planned, Record};
use crate::report::{geomean, median, percentile, tail_percentile, Report};
use crate::trace::{overhead, Tracer};
use crate::Ctx;
use ltf_baselines::full_solver;
use ltf_platform::{ProcId, Topology};
use ltf_serve::proto::{parse_request, to_line, Request};
use ltf_serve::{
    CacheKey, ErrResponse, LruCache, OkResponse, Service, ServiceConfig, SolutionWire,
};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A serve workload's fixed settings.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Reference rate of the open-loop phases, requests per second.
    pub rate: f64,
    /// Requests kept outstanding per connection during saturation.
    pub window: usize,
    /// Every request distinct, on routed Contended platforms.
    pub cold: bool,
    /// Shares of `--seconds` spent in warm-up, measured and saturation.
    pub split: (f64, f64, f64),
    /// Requests the saturation phase may draw at most.
    pub saturation_cap: usize,
    /// Requests the traced run's side measurements take (the tracing
    /// overhead passes; the route-table and Uniform-twin solves).
    pub side_requests: usize,
}

/// Connections (and load threads): the core count of the reference box.
pub const CONNECTIONS: usize = 2;
/// The daemon's default LRU capacity.
pub const CACHE_CAPACITY: usize = 256;
/// Zipf exponent of `serve-zipf`.
pub const ALPHA: f64 = 1.0;
/// Daemon launches per run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 5;
/// A run whose generator sent later than this (p50, p99) is invalid:
/// it no longer offered the reference rate.
const LAG_LIMIT_MS: (f64, f64) = (1.0, 20.0);
/// Saturation completions are counted after this ramp.
const RAMP_S: f64 = 0.25;
/// The measured window and the saturation window are each cut into this
/// many consecutive parts, and `tail_ms` and `max_rate` are the medians
/// of the parts' values: one stall of the host moves one part only.
const PARTS: usize = 3;

/// `serve-zipf`: skewed keys, hot cache.
pub const ZIPF: ServeSpec = ServeSpec {
    name: "serve-zipf",
    rate: 100.0,
    window: 32,
    cold: false,
    split: (0.15, 0.55, 0.3),
    saturation_cap: 40_000,
    side_requests: 300,
};

/// `serve-cold-routed`: distinct keys on Contended star/chain platforms.
pub const COLD: ServeSpec = ServeSpec {
    name: "serve-cold-routed",
    rate: 4.5,
    window: 6,
    cold: true,
    split: (0.05, 0.65, 0.3),
    saturation_cap: 200,
    side_requests: 12,
};

/// A daemon process and the address it listens on.
pub struct Daemon {
    child: Child,
    /// `host:port`.
    pub addr: String,
}

impl Daemon {
    /// Launch `ltf-serve --listen 127.0.0.1:0` and time it from launch to
    /// the first reply to a control ping.
    pub fn launch(bin: &std::path::Path) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut first = String::new();
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        if reader.read_line(&mut first).is_err() || !first.contains("listening on ") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not start: {first:?}"));
        }
        let addr = first
            .trim()
            .rsplit(' ')
            .next()
            .unwrap_or_default()
            .to_string();
        // Keep the pipe open (the daemon logs disconnects to it).
        child.stderr = Some(reader.into_inner());
        let daemon = Self { child, addr };
        let ping = load::control(&daemon.addr, r#"{"cmd":"stats"}"#, Duration::from_secs(30))?;
        let setup = t0.elapsed().as_secs_f64();
        if !ping.contains("\"status\":\"ok\"") {
            return Err(format!("bad ping reply {ping:?}"));
        }
        Ok((daemon, setup))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The generated inputs of one run.
struct Inputs {
    pool: Vec<Distinct>,
    /// Key per request position (open-loop requests first).
    keys: Vec<usize>,
    /// Due offsets of the open-loop requests from their phase start.
    due: Vec<f64>,
    n_warmup: usize,
    n_measured: usize,
}

/// Head start of each open-loop phase before its first slot.
const LEAD_S: f64 = 0.05;

fn inputs(spec: &ServeSpec, ctx: &Ctx) -> Inputs {
    let n_warmup = (spec.rate * spec.split.0 * ctx.seconds).round() as usize;
    let n_measured = (spec.rate * spec.split.1 * ctx.seconds).round() as usize;
    let n_open = n_warmup + n_measured;
    let (pool, keys) = if spec.cold {
        let n = n_open + spec.saturation_cap;
        // The seed orders the open-loop requests; saturation always offers
        // the same requests, so its rate measures the daemon, not the draw.
        let mut keys = gen::shuffled(ctx.seed, 0..n_open);
        keys.extend(n_open..n);
        (gen::cold_pool(gen::COLD_CATALOG, n, CONNECTIONS), keys)
    } else {
        let keys = gen::zipf_keys(
            ctx.seed,
            n_open + spec.saturation_cap,
            gen::ZIPF_POOL,
            ALPHA,
        );
        (gen::zipf_pool(gen::ZIPF_CATALOG, CONNECTIONS), keys)
    };
    let due = [(1, n_warmup), (2, n_measured)]
        .into_iter()
        .flat_map(|(stream, n)| gen::arrivals(gen::mix(ctx.seed, stream), n, spec.rate))
        .map(|t| t + LEAD_S)
        .collect();
    Inputs {
        pool,
        keys,
        due,
        n_warmup,
        n_measured,
    }
}

/// Round-robin the request sequence over the connections.
fn plans(spec: &ServeSpec, inp: &Inputs, ctx: &Ctx) -> Vec<ConnPlan> {
    let n_open = inp.n_warmup + inp.n_measured;
    (0..CONNECTIONS)
        .map(|c| {
            let pick = |range: std::ops::Range<usize>| -> Vec<Planned> {
                range
                    .filter(|i| i % CONNECTIONS == c)
                    .map(|i| Planned {
                        key: inp.keys[i],
                        id: i as u64,
                        due: inp.due.get(i).copied().unwrap_or(f64::NAN),
                        phase: if i < inp.n_warmup {
                            Phase::Warmup
                        } else if i < n_open {
                            Phase::Measured
                        } else {
                            Phase::Saturation
                        },
                    })
                    .collect()
            };
            ConnPlan {
                open: vec![pick(0..inp.n_warmup), pick(inp.n_warmup..n_open)],
                saturation: pick(n_open..inp.keys.len()),
                window: spec.window,
                saturation_s: spec.split.2 * ctx.seconds,
                drain_s: 30.0,
            }
        })
        .collect()
}

/// Run a serve workload end to end (and, with `--trace 1`, traced).
pub fn run(spec: &ServeSpec, ctx: &Ctx) -> Result<Report, String> {
    let inp = inputs(spec, ctx);
    let n_open = inp.n_warmup + inp.n_measured;
    // As many parts as still leave ten samples beyond each part's tail.
    let tail_parts = if tail_percentile(inp.n_measured / PARTS).is_some() {
        PARTS
    } else {
        1
    };
    let tail_pct = tail_percentile(inp.n_measured / tail_parts)
        .ok_or_else(|| format!("{} measured requests leave no tail", inp.n_measured))?;
    ctx.config(
        spec.name,
        &[
            ("load", format!("open loop at a fixed rate (one send per slot, jittered), connections: {CONNECTIONS}, threads: {CONNECTIONS}")),
            (
                "workload",
                format!(
                    "n_warmup: {}, n_measured: {}, rate: {}/s, saturation: window {}/connection for {:.2} s",
                    inp.n_warmup,
                    inp.n_measured,
                    spec.rate,
                    spec.window,
                    spec.split.2 * ctx.seconds
                ),
            ),
            (
                "keys",
                if spec.cold {
                    format!(
                        "all distinct, catalog seed {:#x}, v in [300, 600], m: 20, eps: 1, ltf/rltf, star/chain contended",
                        gen::COLD_CATALOG
                    )
                } else {
                    format!(
                        "zipf alpha: {ALPHA}, catalog: {} (seed {:#x}), v in [50, 150], m: 20, eps: 1/3, ltf/rltf, periods: 1/0.75/0.5 x delta",
                        gen::ZIPF_POOL,
                        gen::ZIPF_CATALOG
                    )
                },
            ),
            ("daemon", format!("ltf-serve --listen, cache_capacity: {CACHE_CAPACITY}, setup launches: {SETUP_LAUNCHES}")),
            (
                "tail",
                format!(
                    "median over {tail_parts} consecutive part(s) of the {} measured requests of each part's p{tail_pct}",
                    inp.n_measured
                ),
            ),
        ],
    );

    // Set-up: launch the daemon several times, keep the last one.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_LAUNCHES {
        let (d, s) = Daemon::launch(&ctx.bin("ltf-serve"))?;
        setups.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one launch");

    let plans = plans(spec, &inp, ctx);
    let barrier = Barrier::new(CONNECTIONS);
    let pool = &inp.pool;
    let lines = |key: usize, id: u64| pool[key].line(id);
    let start = Instant::now();
    let results: Vec<load::ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let (barrier, lines, addr) = (&barrier, &lines, &daemon.addr);
                s.spawn(move || load::run_conn(addr, plan, start, barrier, lines))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let stats = load::control(&daemon.addr, r#"{"cmd":"stats"}"#, Duration::from_secs(30));
    drop(daemon);

    // Reference check of every reply.
    let mut records: Vec<Record> = Vec::new();
    let mut tails = HashMap::new();
    let mut transport = Vec::new();
    for r in results {
        records.extend(r.records);
        tails.extend(r.tails);
        transport.extend(r.errors);
    }
    records.sort_by_key(|r| r.plan.id);
    // Quality is judged over the workload's fixed set of distinct
    // requests: the whole Zipf catalog, or the open-loop requests of the
    // cold workload (the same set for every seed).
    let quality: Vec<usize> = if spec.cold {
        inp.keys[..n_open].to_vec()
    } else {
        (0..gen::ZIPF_POOL).collect()
    };
    let used: Vec<usize> = records.iter().map(|r| r.plan.key).collect();
    let mut checker = Checker::new(pool, &[&used[..], &quality].concat(), CONNECTIONS);
    for ((key, hash), tail) in &tails {
        checker.learn_tail(*key, *hash, tail);
    }
    let mut rep = Report::default();
    let mut by_phase: HashMap<Phase, (usize, usize)> = HashMap::new();
    let mut first_failure = None;
    let mut timeline = String::from("id,key,phase,due_s,sent_s,done_s,verdict\n");
    for r in &records {
        let v = checker.check(r.plan.key, r.plan.id, &r.payload);
        let verdict = match &v {
            Verdict::Schedule => "schedule",
            Verdict::Infeasible => "infeasible",
            Verdict::Fail(_) => "fail",
        };
        let p = &r.plan;
        timeline += &format!(
            "{},{},{},{:.6},{:.6},{:.6},{verdict}\n",
            p.id,
            p.key,
            p.phase.name(),
            p.due,
            r.sent,
            r.done
        );
        let slot = by_phase.entry(r.plan.phase).or_default();
        rep.attempted += 1;
        if let Verdict::Fail(why) = &v {
            rep.failed += 1;
            slot.1 += 1;
            first_failure.get_or_insert_with(|| format!("request {}: {why}", r.plan.id));
        } else {
            slot.0 += 1;
        }
    }
    if records.len() < n_open {
        rep.attempted += (n_open - records.len()) as u64;
        rep.failed += (n_open - records.len()) as u64;
    }
    let path = ctx
        .work
        .join(format!("requests-{}-{}.csv", spec.name, ctx.seed));
    std::fs::write(&path, timeline).map_err(|e| format!("write {}: {e}", path.display()))?;
    for e in &transport {
        eprintln!("{}: transport: {e}", spec.name);
    }
    if let Some(f) = &first_failure {
        eprintln!("{}: first failure: {f}", spec.name);
    }

    // End-to-end metrics.
    let measured: Vec<&Record> = records
        .iter()
        .filter(|r| r.plan.phase == Phase::Measured)
        .collect();
    let lat_ms: Vec<f64> = measured
        .iter()
        .map(|r| {
            if r.done.is_nan() {
                f64::INFINITY
            } else {
                (r.done - r.plan.due) * 1e3
            }
        })
        .collect();
    let lag_ms: Vec<f64> = records
        .iter()
        .filter(|r| r.plan.phase != Phase::Saturation)
        .map(|r| (r.sent - r.plan.due) * 1e3)
        .collect();
    let sat: Vec<&Record> = records
        .iter()
        .filter(|r| r.plan.phase == Phase::Saturation)
        .collect();
    let sat_start = sat.iter().map(|r| r.sent).fold(f64::INFINITY, f64::min);
    let sat_end = sat_start + spec.split.2 * ctx.seconds;
    let slice = (sat_end - sat_start - RAMP_S) / PARTS as f64;
    // A slice's rate is its completions over the time they span, so a
    // slice of a few slow replies does not read as a whole number.
    let rates: Vec<f64> = (0..PARTS)
        .map(|j| {
            let from = sat_start + RAMP_S + j as f64 * slice;
            let done: Vec<f64> = sat
                .iter()
                .map(|r| r.done)
                .filter(|&d| d >= from && d < from + slice)
                .collect();
            let span = done.iter().copied().fold(f64::MIN, f64::max)
                - done.iter().copied().fold(f64::MAX, f64::min);
            if done.len() > 1 {
                (done.len() - 1) as f64 / span
            } else {
                0.0
            }
        })
        .collect();
    let max_rate = median(&rates);
    let tails: Vec<f64> = (0..tail_parts)
        .map(|j| {
            let part = &lat_ms[j * lat_ms.len() / tail_parts..(j + 1) * lat_ms.len() / tail_parts];
            percentile(part, tail_pct)
        })
        .collect();
    let latencies: Vec<f64> = quality
        .iter()
        .filter_map(|&k| checker.reference_latency(k))
        .collect();
    rep.set("setup_s", median(&setups));
    rep.set("p50_ms", median(&lat_ms));
    rep.set("tail_ms", median(&tails));
    rep.set("max_rate", max_rate);
    rep.set(
        "feasible_share",
        latencies.len() as f64 / quality.len() as f64,
    );
    rep.set("sched_latency_gm", geomean(&latencies));

    // Open-loop accounting.
    let lag_p99 = percentile(&lag_ms, 99.0);
    let last_due = |phase| {
        records
            .iter()
            .filter(|r| r.plan.phase == phase)
            .map(|r| r.plan.due)
            .fold(0.0, f64::max)
    };
    let backlog_end = backlog_at(&records, sat_end);
    println!("  ACCOUNTING:");
    for phase in [Phase::Warmup, Phase::Measured, Phase::Saturation] {
        let (ok, bad) = by_phase.get(&phase).copied().unwrap_or_default();
        let end = match phase {
            Phase::Saturation => sat_end,
            p => last_due(p),
        };
        println!(
            "   * {} -> sent: {}, succeeded: {ok}, failed: {bad}, backlog at end: {}",
            phase.name(),
            ok + bad,
            backlog_at(&records, end)
        );
    }
    let lag_p50 = median(&lag_ms);
    println!(
        "   * generator -> gen_lag_ms p50: {lag_p50:.3}, p99: {lag_p99:.3}, max: {:.3} (limits p50 {}, p99 {})",
        lag_ms.iter().copied().fold(0.0, f64::max),
        LAG_LIMIT_MS.0,
        LAG_LIMIT_MS.1
    );
    if lag_p50 > LAG_LIMIT_MS.0 || lag_p99 > LAG_LIMIT_MS.1 {
        rep.invalid.push(format!(
            "generator lagged: p50 {lag_p50:.3} ms, p99 {lag_p99:.3} ms (limits {} / {} ms)",
            LAG_LIMIT_MS.0, LAG_LIMIT_MS.1
        ));
    }
    if !transport.is_empty() {
        rep.invalid
            .push(format!("{} transport error(s)", transport.len()));
    }
    let hits = stats_field(&stats, "cache_hit_ratio");
    println!(
        "   * daemon stats -> {}",
        stats.as_deref().unwrap_or("unavailable")
    );
    println!("  RESULTS:");
    println!(
        "   * req_p50_ms: {:.3} ms",
        rep.get("p50_ms").unwrap_or(0.0)
    );
    println!(
        "   * req_tail_ms: {:.3} ms (median of the p{tail_pct} of {tail_parts} part(s): {})",
        rep.get("tail_ms").unwrap_or(0.0),
        fmt_ms(&tails)
    );
    println!(
        "   * max_rps: {max_rate:.2} 1/s (median of {PARTS} slices: {})",
        fmt_ms(&rates)
    );
    println!(
        "   * fail_share: {:.6} ({} of {})",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    );
    println!(
        "   * feasible_share: {:.4} over {} distinct requests",
        rep.get("feasible_share").unwrap_or(0.0),
        quality.len()
    );
    println!(
        "   * sched_latency_gm: {:.3} time units",
        rep.get("sched_latency_gm").unwrap_or(0.0)
    );
    println!(
        "   * setup_s: {:.4} s (median of {SETUP_LAUNCHES} launches)",
        median(&setups)
    );
    println!(
        "   * daemon cache_hit_ratio: {}",
        hits.map_or("?".into(), |h| format!("{h:.3}"))
    );

    if ctx.trace {
        rep.set("load.gen_lag_p99_ms", lag_p99);
        rep.set("load.backlog_end", backlog_end as f64);
        rep.set(
            "engine.service_p50_us",
            stats_field(&stats, "p50_us").unwrap_or(0.0),
        );
        rep.set(
            "engine.service_p99_us",
            stats_field(&stats, "p99_us").unwrap_or(0.0),
        );
        traced(spec, ctx, &inp, &measured, &mut rep)?;
    }
    Ok(rep)
}

fn fmt_ms(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn stats_field(stats: &Result<String, String>, name: &str) -> Option<f64> {
    let v: serde::Value = serde_json::from_str(stats.as_ref().ok()?).ok()?;
    let serde::Value::Map(top) = v else {
        return None;
    };
    let (_, serde::Value::Map(s)) = top.iter().find(|(k, _)| k == "stats")? else {
        return None;
    };
    match s.iter().find(|(k, _)| k == name)?.1 {
        serde::Value::Float(f) => Some(f),
        serde::Value::UInt(u) => Some(u as f64),
        serde::Value::Int(i) => Some(i as f64),
        _ => None,
    }
}

/// Counters of one component pass.
#[derive(Debug, Default)]
struct PassCounts {
    lookups: u64,
    hits: u64,
    evictions: u64,
    failed_resolves: u64,
    solves: u64,
    infeasible: u64,
}

/// The service's layers called one at a time, in `Service`'s order,
/// one span per call, over a cache of the daemon's capacity.
struct ComponentPath {
    cache: LruCache,
    /// Keys whose last answer was `infeasible`.
    failed: HashSet<CacheKey>,
    n: PassCounts,
}

impl ComponentPath {
    fn new() -> Self {
        Self {
            cache: LruCache::new(CACHE_CAPACITY),
            failed: HashSet::new(),
            n: PassCounts::default(),
        }
    }

    /// Answer one request line as the service would.
    fn request(&mut self, tr: &mut Tracer, id: u64, line: &str) -> Result<String, String> {
        let root = tr.open("serve.request", None, id);
        let parsed = tr.time("proto.decode", root, id, || {
            parse_request(line).map(|r| match r {
                Request::Solve(req) => req.config.to_algo().map(|cfg| (req, cfg)),
                _ => Err("not a solve request".to_string()),
            })
        });
        let (req, cfg) = match parsed {
            Ok(Ok(x)) => x,
            Ok(Err(e)) => return Err(e),
            Err((kind, msg, _)) => return Err(format!("{kind}: {msg}")),
        };
        let ck = tr.time("cache.fingerprint", root, id, || {
            CacheKey::new(&req.graph, &req.platform, &req.heuristic, &cfg)
        });
        self.n.lookups += 1;
        let hit = tr.time("cache.get", root, id, || self.cache.get(&ck));
        let reply = match hit {
            Some(wire) => {
                self.n.hits += 1;
                tr.time("proto.encode", root, id, || {
                    to_line(&OkResponse::new(req.id, true, wire))
                })
            }
            None => {
                if self.failed.contains(&ck) {
                    self.n.failed_resolves += 1;
                }
                let solver = tr.time("solver.prepare", root, id, || {
                    full_solver(&req.graph, &req.platform)
                });
                let name = match (req.heuristic.as_str(), req.platform.is_contended()) {
                    ("ltf", false) => "solver.ltf",
                    ("ltf", true) => "solver.ltf_contended",
                    (_, false) => "solver.rltf",
                    (_, true) => "solver.rltf_contended",
                };
                self.n.solves += 1;
                let solved = tr.time(name, root, id, || solver.solve(&req.heuristic, &cfg));
                match solved {
                    Ok(sol) => {
                        let (line, wire) = tr.time("proto.encode", root, id, || {
                            let wire = SolutionWire::from_solution(&sol);
                            (to_line(&OkResponse::new(req.id, false, wire.clone())), wire)
                        });
                        let (cache, n) = (&mut self.cache, &mut self.n);
                        tr.time("cache.insert", root, id, || {
                            let (len, present) = (cache.len(), cache.contains(&ck));
                            cache.insert(ck, wire);
                            if !present && cache.len() == len {
                                n.evictions += 1;
                            }
                        });
                        tr.time("validate", None, id, || {
                            ltf_schedule::validate(&req.graph, &req.platform, &sol.schedule)
                        })
                        .map_err(|v| format!("request {id}: invalid schedule {v:?}"))?;
                        line
                    }
                    Err(d) => {
                        self.n.infeasible += 1;
                        self.failed.insert(ck);
                        tr.time("proto.encode", root, id, || {
                            let mut e = ErrResponse::from_diagnostics(req.id, &d);
                            e.heuristic = Some(req.heuristic.clone());
                            to_line(&e)
                        })
                    }
                }
            }
        };
        tr.close(root);
        Ok(reply)
    }
}

/// Replay `seq` through [`ComponentPath`].
fn component_pass(
    tr: &mut Tracer,
    pool: &[Distinct],
    seq: &[(u64, usize)],
) -> Result<(PassCounts, Vec<String>), String> {
    let mut path = ComponentPath::new();
    let replies = seq
        .iter()
        .map(|&(id, key)| path.request(tr, id, &pool[key].line(id)))
        .collect::<Result<_, _>>()?;
    Ok((path.n, replies))
}

/// The traced in-process run over the open-loop request sequence.
fn traced(
    spec: &ServeSpec,
    ctx: &Ctx,
    inp: &Inputs,
    measured: &[&Record],
    rep: &mut Report,
) -> Result<(), String> {
    let n_open = inp.n_warmup + inp.n_measured;
    let seq: Vec<(u64, usize)> = (0..n_open).map(|i| (i as u64, inp.keys[i])).collect();
    let pool = &inp.pool;

    // Each request goes through the layers one by one and through the
    // engine's own `handle_line`, in alternating order so that warm
    // caches favour neither; the difference is the engine's self time.
    let mut tr = Tracer::on();
    let mut path = ComponentPath::new();
    let mut svc = Service::new(ServiceConfig {
        threads: 1,
        cache_capacity: CACHE_CAPACITY,
        ..ServiceConfig::default()
    });
    let mut replies = Vec::new();
    let mut handle_us = HashMap::new();
    for (i, &(id, key)) in seq.iter().enumerate() {
        let line = pool[key].line(id);
        let mut engine = |tr: &mut Tracer| {
            let h = tr.open("engine.handle_line", None, id);
            let reply = svc.handle_line(&line);
            tr.close(h);
            handle_us.insert(id, h.map_or(0.0, |h| tr.spans()[h].us()));
            reply
        };
        let (want, reply) = if i % 2 == 0 {
            let want = path.request(&mut tr, id, &line)?;
            (want, engine(&mut tr))
        } else {
            let reply = engine(&mut tr);
            (path.request(&mut tr, id, &line)?, reply)
        };
        if reply != want {
            rep.failed += 1;
            eprintln!("{}: traced reply {id} differs from the engine's", spec.name);
        }
        replies.push(want);
    }
    let n = path.n;
    let roots: HashMap<u64, usize> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.request")
        .map(|(i, s)| (s.req, i))
        .collect();
    let self_us: Vec<f64> = roots
        .iter()
        .map(|(id, &root)| handle_us[id] - (tr.spans()[root].us() - tr.self_us(root)))
        .collect();
    let queue_ms: Vec<f64> = measured
        .iter()
        .filter(|r| !r.done.is_nan())
        .map(|r| (r.done - r.plan.due) * 1e3 - handle_us[&r.plan.id] / 1e3)
        .collect();

    // Routed platforms: route-table build and the Contended slowdown.
    let (mut route_us, mut contended_s, mut uniform_s) = (Vec::new(), 0.0, 0.0);
    if spec.cold {
        for d in pool.iter().take(spec.side_requests) {
            let topo = d.topology.as_ref().expect("cold requests are routed");
            let speeds: Vec<f64> = (0..d.platform.num_procs())
                .map(|u| d.platform.speed(ProcId(u as u16)))
                .collect();
            let t = Instant::now();
            let table = match topo.shape {
                ltf_experiments::campaign::TopologyShape::Star(x) => Topology::star(speeds, x),
                ltf_experiments::campaign::TopologyShape::Chain(x) => Topology::chain(speeds, x),
                _ => unreachable!("cold requests use star or chain"),
            }
            .route_table();
            route_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(table);
            let uniform = gen::uniform_twin(d).expect("routed");
            let t = Instant::now();
            let c = full_solver(&d.graph, &d.platform)
                .solve(d.heuristic, &d.cfg)
                .is_ok();
            contended_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let u = full_solver(&d.graph, &uniform)
                .solve(d.heuristic, &d.cfg)
                .is_ok();
            uniform_s += t.elapsed().as_secs_f64();
            std::hint::black_box((c, u));
        }
    }

    // Tracing overhead on a prefix of the same sequence.
    let prefix = &seq[..spec.side_requests.min(seq.len())];
    let over = overhead(|t| {
        let _ = component_pass(t, pool, prefix);
    });

    let p50 = |name: &str| median(&tr.durations_us(name));
    let kib = |v: Vec<f64>| median(&v) / 1024.0;
    rep.set("proto.decode_us", p50("proto.decode"));
    rep.set("proto.encode_us", p50("proto.encode"));
    rep.set(
        "proto.req_kib",
        kib(seq
            .iter()
            .map(|&(id, k)| pool[k].line(id).len() as f64)
            .collect()),
    );
    rep.set(
        "proto.resp_kib",
        kib(replies.iter().map(|r| r.len() as f64).collect()),
    );
    rep.set("cache.fingerprint_us", p50("cache.fingerprint"));
    rep.set("cache.hit_ratio", n.hits as f64 / n.lookups.max(1) as f64);
    rep.set("cache.evictions", n.evictions as f64);
    rep.set("cache.failed_resolves", n.failed_resolves as f64);
    rep.set("engine.queue_wait_p99_ms", percentile(&queue_ms, 99.0));
    rep.set("engine.self_us", median(&self_us));
    rep.set("solver.prepare_us", p50("solver.prepare"));
    rep.set("solver.ltf_ms", p50("solver.ltf") / 1e3);
    rep.set("solver.rltf_ms", p50("solver.rltf") / 1e3);
    rep.set("solver.ltf_contended_ms", p50("solver.ltf_contended") / 1e3);
    rep.set(
        "solver.rltf_contended_ms",
        p50("solver.rltf_contended") / 1e3,
    );
    rep.set("solver.calls", n.solves as f64);
    rep.set(
        "solver.infeasible_share",
        n.infeasible as f64 / n.solves.max(1) as f64,
    );
    rep.set("comm.route_table_us", median(&route_us));
    rep.set(
        "comm.contended_slowdown",
        if uniform_s > 0.0 {
            contended_s / uniform_s
        } else {
            0.0
        },
    );
    rep.set("validate.us", p50("validate"));
    rep.set("trace.overhead_share", over);
    rep.set("trace.spans", tr.spans().len() as f64);
    let path = ctx
        .work
        .join(format!("spans-{}-{}.jsonl", spec.name, ctx.seed));
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
    fn component_pass_matches_the_engine() {
        let pool: Vec<Distinct> = gen::zipf_pool(2, 2).into_iter().take(12).collect();
        let seq: Vec<(u64, usize)> = [0, 1, 0, 2, 0, 1, 5, 7, 5]
            .iter()
            .enumerate()
            .map(|(i, &k)| (i as u64, k))
            .collect();
        let mut tr = Tracer::on();
        let (n, replies) = component_pass(&mut tr, &pool, &seq).unwrap();
        let mut svc = Service::new(ServiceConfig::default());
        for (&(id, key), want) in seq.iter().zip(&replies) {
            assert_eq!(&svc.handle_line(&pool[key].line(id)), want);
        }
        assert_eq!(n.lookups, seq.len() as u64);
        assert!(tr.spans().iter().all(|s| s.end >= s.start));
        let report = svc.stats_report();
        assert_eq!(report.cache_hits, n.hits);
    }
}
