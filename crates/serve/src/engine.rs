//! The service engine: parses request lines, answers from the LRU cache,
//! and dispatches the remaining solves onto the shared `ltf_core::par`
//! pool.
//!
//! # Determinism
//!
//! [`Service::handle_lines`] is *serially equivalent*: responses, cache
//! contents, eviction order and hit/miss counters are exactly what a
//! line-at-a-time loop would produce, regardless of batch size or thread
//! count. Cache decisions and mutations happen serially in line order;
//! only the (deterministic, pure) solve calls in between run in
//! parallel. Service *times* are the one non-deterministic output, and
//! they only ever appear in `{"cmd":"stats"}` replies — solve responses
//! are bit-stable, which is what makes pipe-mode golden tests possible.
//!
//! # Concurrency
//!
//! A [`Service`] is shared by reference: the cache and the statistics
//! sit behind their own short locks, held only for a lookup, an insert
//! or a recorded sample. Decoding, fingerprinting, solving, encoding and
//! shard runs happen outside them, so callers on other threads (the TCP
//! connections) proceed in parallel. Serial equivalence is a per-caller
//! guarantee: across interleaved callers the shared cache can turn one
//! caller's miss into a hit, so only the `cached` flag differs from a
//! serial replay.

use crate::cache::{CacheKey, LruCache};
use crate::proto::{
    parse_request, to_line, ErrResponse, OkResponse, Request, ShardRequest, SolutionWire,
    SolveRequest,
};
use crate::stats::{ServiceStats, StatsReport};
use ltf_baselines::full_solver;
use ltf_core::par::{parallel_map, resolve_threads};
use ltf_core::shard::Shard;
use ltf_core::AlgoConfig;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Tuning knobs of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for batched solves; `0` = all cores.
    pub threads: usize,
    /// LRU capacity in cached solutions; `0` disables caching.
    pub cache_capacity: usize,
    /// Reject graphs with more tasks than this (`too-large`).
    pub max_tasks: usize,
    /// Reject graphs with more edges than this (`too-large`).
    pub max_edges: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_capacity: 256,
            max_tasks: 10_000,
            max_edges: 100_000,
        }
    }
}

/// One registered heuristic as reported by `{"cmd":"heuristics"}`.
#[derive(Debug, Clone, Serialize)]
pub struct HeuristicInfo {
    /// Canonical name.
    pub name: String,
    /// Accepted aliases.
    pub aliases: Vec<String>,
}

/// Reply to `{"cmd":"heuristics"}`.
#[derive(Debug, Clone, Serialize)]
struct HeuristicsReply {
    status: String,
    heuristics: Vec<HeuristicInfo>,
}

/// Reply to `{"cmd":"stats"}`.
#[derive(Debug, Clone, Serialize)]
struct StatsReply {
    status: String,
    stats: StatsReport,
}

/// The scheduler service: registry name table, solution cache and
/// accounting. One instance serves any number of independent requests,
/// from any number of threads; the graph/platform travel *in* each
/// request, so no instance state outlives a line except the cache and
/// the counters.
pub struct Service {
    config: ServiceConfig,
    names: Vec<HeuristicInfo>,
    cache: Mutex<LruCache>,
    stats: Mutex<ServiceStats>,
}

// TCP mode shares one service across connection threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Service>();
};

/// Lock one of the service's short critical sections. No locked section
/// calls into the solver or the codec: each is a map or counter update
/// that does not panic, so a panicking solve on another thread never
/// poisons the cache or the statistics for the other connections.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Build the solver for one request and run it, timing the whole call.
fn solve(
    req: &SolveRequest,
    canonical: &str,
    cfg: &AlgoConfig,
) -> (Result<SolutionWire, ErrResponse>, u64) {
    let t0 = Instant::now();
    let solver = full_solver(&req.graph, &req.platform);
    let outcome = match solver.solve(canonical, cfg) {
        Ok(sol) => Ok(SolutionWire::from_solution(&sol)),
        Err(d) => Err(ErrResponse::from_diagnostics(None, &d)),
    };
    (outcome, t0.elapsed().as_micros() as u64)
}

/// A solve line after the serial decode pass.
struct SolveSlot {
    req: Box<SolveRequest>,
    cfg: AlgoConfig,
    canonical: String,
    key: CacheKey,
    /// Index into the batch's parallel job list; `None` when the answer
    /// is expected from the cache.
    job: Option<usize>,
    /// Microseconds spent decoding and classifying the line.
    decode_us: u64,
}

/// One line's fate after the serial decode pass.
enum Slot {
    /// Response already final (control reply or error).
    Done(String),
    /// Needs the cache/solve resolution pass.
    Solve(SolveSlot),
}

impl Service {
    /// A service over the full built-in strategy family
    /// (`ltf_baselines::full_solver`).
    pub fn new(config: ServiceConfig) -> Self {
        // Probe the registry once with a throwaway instance to learn the
        // canonical-name/alias table; per-request lookups then resolve
        // names without building a solver.
        let g = ltf_graph::generate::fig1_diamond();
        let p = ltf_platform::Platform::fig1_platform();
        let solver = full_solver(&g, &p);
        let names = solver
            .heuristics()
            .map(|h| HeuristicInfo {
                name: h.name().to_string(),
                aliases: h.aliases().iter().map(|a| a.to_string()).collect(),
            })
            .collect();
        Self {
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            stats: Mutex::new(ServiceStats::new()),
            config,
            names,
        }
    }

    /// Registered heuristics (canonical name + aliases).
    pub fn heuristics(&self) -> &[HeuristicInfo] {
        &self.names
    }

    /// Resolve a request's heuristic name to its canonical form,
    /// mirroring the registry's precedence: canonical names win over
    /// aliases, both case-insensitively.
    pub fn canonicalize(&self, name: &str) -> Option<&str> {
        self.names
            .iter()
            .find(|h| h.name.eq_ignore_ascii_case(name))
            .or_else(|| {
                self.names
                    .iter()
                    .find(|h| h.aliases.iter().any(|a| a.eq_ignore_ascii_case(name)))
            })
            .map(|h| h.name.as_str())
    }

    /// Current statistics snapshot.
    pub fn stats_report(&self) -> StatsReport {
        let (hits, misses, len) = {
            let cache = lock(&self.cache);
            (cache.hits(), cache.misses(), cache.len())
        };
        lock(&self.stats).report(hits, misses, len)
    }

    /// The cache, locked for direct read access (tests, introspection).
    /// Every request's lookup waits while the guard is held.
    pub fn cache(&self) -> MutexGuard<'_, LruCache> {
        lock(&self.cache)
    }

    /// Answer one request line. Never panics on malformed input; every
    /// line gets exactly one response line.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_lines(std::slice::from_ref(&line))
            .pop()
            .expect("one response per line")
    }

    /// Answer a batch of request lines, one response per line, in order.
    /// Cache misses within the batch are solved concurrently on the
    /// `ltf_core::par` pool; everything observable is serially
    /// equivalent (see the module docs).
    ///
    /// ```
    /// use ltf_serve::{Service, ServiceConfig};
    ///
    /// let svc = Service::new(ServiceConfig::default());
    /// let replies = svc.handle_lines(&[
    ///     r#"{"cmd":"heuristics"}"#,
    ///     "definitely not json",
    /// ]);
    /// // One reply per line, in order; a bad line yields a structured
    /// // error instead of poisoning the batch.
    /// assert_eq!(replies.len(), 2);
    /// assert!(replies[0].contains(r#""status":"ok""#));
    /// assert!(replies[1].contains(r#""kind":"parse""#));
    /// ```
    pub fn handle_lines<S: AsRef<str>>(&self, lines: &[S]) -> Vec<String> {
        // Pass 1 (serial, line order): decode, classify, and decide which
        // lines need a fresh solve. `pending` de-duplicates identical
        // misses inside the batch: the serial replay would solve the
        // first and answer the rest from cache.
        let mut slots = Vec::with_capacity(lines.len());
        let mut jobs: Vec<(CacheKey, Box<SolveRequest>, AlgoConfig, String)> = Vec::new();
        let mut pending: HashMap<CacheKey, usize> = HashMap::new();
        for line in lines {
            slots.push(self.classify(line.as_ref(), &mut jobs, &mut pending));
        }

        // Pass 2 (parallel): the actual scheduling work.
        let threads = resolve_threads(self.config.threads);
        let solved: Vec<(Result<SolutionWire, ErrResponse>, u64)> =
            parallel_map(&jobs, threads, |(_, req, cfg, canonical)| {
                solve(req, canonical, cfg)
            });
        let results: HashMap<&CacheKey, &(Result<SolutionWire, ErrResponse>, u64)> = jobs
            .iter()
            .map(|(key, ..)| key)
            .zip(solved.iter())
            .collect();

        // Pass 3 (serial, line order): cache counters, insertions and
        // response assembly — the order-sensitive part.
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(line) => line,
                Slot::Solve(s) => self.resolve(s, &results),
            })
            .collect()
    }

    fn classify(
        &self,
        line: &str,
        jobs: &mut Vec<(CacheKey, Box<SolveRequest>, AlgoConfig, String)>,
        pending: &mut HashMap<CacheKey, usize>,
    ) -> Slot {
        let t0 = Instant::now();
        let req = match parse_request(line) {
            Ok(Request::Stats) => {
                return Slot::Done(to_line(&StatsReply {
                    status: "ok".to_string(),
                    stats: self.stats_report(),
                }))
            }
            Ok(Request::Heuristics) => {
                return Slot::Done(to_line(&HeuristicsReply {
                    status: "ok".to_string(),
                    heuristics: self.names.clone(),
                }))
            }
            Ok(Request::Shard(req)) => {
                let line = self.handle_shard(&req);
                let us = t0.elapsed().as_micros() as u64;
                if line.starts_with(r#"{"ok":true"#) {
                    lock(&self.stats).record_ok("campaign-shard", us);
                } else {
                    lock(&self.stats).record_error("shard-failed", us);
                }
                return Slot::Done(line);
            }
            Ok(Request::Solve(req)) => req,
            Err((kind, message, id)) => {
                lock(&self.stats).record_error(kind, t0.elapsed().as_micros() as u64);
                return Slot::Done(to_line(&ErrResponse::new(id, kind, None, message)));
            }
        };
        let id = req.id;
        let err = |kind: &str, heuristic: Option<String>, message: String| {
            lock(&self.stats).record_error(kind, t0.elapsed().as_micros() as u64);
            Slot::Done(to_line(&ErrResponse::new(id, kind, heuristic, message)))
        };
        if req.graph.num_tasks() > self.config.max_tasks
            || req.graph.num_edges() > self.config.max_edges
        {
            return err(
                "too-large",
                None,
                format!(
                    "graph has {} tasks / {} edges, limits are {} / {}",
                    req.graph.num_tasks(),
                    req.graph.num_edges(),
                    self.config.max_tasks,
                    self.config.max_edges
                ),
            );
        }
        let Some(canonical) = self.canonicalize(&req.heuristic).map(str::to_string) else {
            return err(
                "unknown-heuristic",
                Some(req.heuristic.clone()),
                format!("no heuristic named {:?} is registered", req.heuristic),
            );
        };
        let cfg = match req.config.to_algo() {
            Ok(cfg) => cfg,
            Err(msg) => return err("bad-request", Some(canonical), msg),
        };
        let key = CacheKey::new(&req.graph, &req.platform, &canonical, &cfg);
        let job = if lock(&self.cache).contains(&key) || pending.contains_key(&key) {
            None
        } else {
            pending.insert(key.clone(), jobs.len());
            jobs.push((key.clone(), req.clone(), cfg.clone(), canonical.clone()));
            Some(jobs.len() - 1)
        };
        Slot::Solve(SolveSlot {
            req,
            cfg,
            canonical,
            key,
            job,
            decode_us: t0.elapsed().as_micros() as u64,
        })
    }

    /// Compute one campaign shard inline and render the one-line reply:
    /// `{"ok":true,"id":...,"shard":"K/N","items":N,"results":[...]}` on
    /// success, `{"ok":false,"id":...,"error":KIND,"message":...}` on
    /// failure. Runs serially within the request (a shard is a batch of
    /// work already; the compute parallelizes internally over
    /// [`ServiceConfig::threads`]), so responses stay bit-stable and the
    /// campaign merge can cross-check determinism.
    fn handle_shard(&self, req: &ShardRequest) -> String {
        let reply = |entries: Vec<(&str, Value)>| {
            to_line(&Value::Map(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ))
        };
        let id = match req.id {
            Some(id) => Value::UInt(id),
            None => Value::Null,
        };
        let fail = |kind: &str, message: String| {
            reply(vec![
                ("ok", Value::Bool(false)),
                ("id", id.clone()),
                ("error", Value::Str(kind.to_string())),
                ("message", Value::Str(message)),
            ])
        };
        let shard: Shard = match req.shard.parse() {
            Ok(s) => s,
            Err(e) => return fail("bad-request", e),
        };
        let threads = resolve_threads(self.config.threads);
        let mut results = Vec::new();
        let run = ltf_experiments::campaign::run_spec_shard(&req.spec, shard, threads, None, |r| {
            results.push(r)
        });
        match run {
            Ok(items) => reply(vec![
                ("ok", Value::Bool(true)),
                ("id", id),
                ("shard", Value::Str(shard.to_string())),
                ("items", Value::UInt(items as u64)),
                ("results", Value::Seq(results)),
            ]),
            Err(e) => fail("shard-failed", e),
        }
    }

    fn resolve(
        &self,
        s: SolveSlot,
        results: &HashMap<&CacheKey, &(Result<SolutionWire, ErrResponse>, u64)>,
    ) -> String {
        let hit = lock(&self.cache).get(&s.key);
        if let Some(wire) = hit {
            // Pre-existing entry or a batch-mate's successful solve.
            lock(&self.stats).record_ok(&s.canonical, s.decode_us);
            return to_line(&OkResponse::new(s.req.id, true, wire));
        }
        // Miss (counted by the failed `get`). Three cases: this line is
        // the primary solver of its key; a duplicate of a primary that
        // failed (errors are not cached, the serial replay fails again
        // identically); or the key's entry was evicted by batch-mates'
        // inserts after the classification pass — then the serial replay
        // would re-solve, so do exactly that inline (deterministic). A
        // concurrent caller's inserts can evict the key the same way.
        let (outcome, solve_us) = match results.get(&s.key).copied() {
            Some((outcome, us)) if s.job.is_some() || outcome.is_err() => (outcome.clone(), *us),
            _ => solve(&s.req, &s.canonical, &s.cfg),
        };
        match outcome {
            Ok(wire) => {
                lock(&self.cache).insert(s.key, wire.clone());
                lock(&self.stats).record_ok(&s.canonical, s.decode_us + solve_us);
                to_line(&OkResponse::new(s.req.id, false, wire))
            }
            Err(mut err) => {
                err.id = s.req.id;
                err.heuristic = Some(s.canonical);
                lock(&self.stats).record_error(&err.kind, s.decode_us + solve_us);
                to_line(&err)
            }
        }
    }
}
