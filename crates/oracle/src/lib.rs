//! The frozen snapshot-based reference implementation of LTF and R-LTF,
//! kept outside the shipped library as a test oracle.
//!
//! This crate is a deliberate copy of the pre-arena placement engine: the
//! parallel-`Vec` engine layout, the clone-based R-LTF speculation (three
//! whole-`Engine` snapshots per task) and the batch reversal transposition
//! in the schedule conversion. It exists for one purpose: the differential
//! suites (`tests/differential_incremental.rs` and friends) pin the
//! production path — struct-of-arrays state, scratch arenas, undo-journal
//! speculation and the incrementally maintained reversal — against this
//! independent control flow, schedule for schedule, bit for bit.
//!
//! Because its value *is* its independence, nothing here should be
//! "improved" towards the production engine: it shares only the layers
//! whose equivalence is pinned elsewhere (the overlay probe and interval
//! index by the `ltf-schedule` property tests, the priority tracker by
//! `ltf_core::prio`'s own tests, and the ready tracker, which is trivially
//! shared). It allocates freely and clones the engine per task — it is a
//! test oracle, not a production code path.

use ltf_core::prio::{LevelCache, PrioTracker};
use ltf_core::{AlgoConfig, ScheduleError};
use ltf_graph::traversal::ReadyTracker;
use ltf_graph::{EdgeId, TaskGraph, TaskId};
use ltf_platform::{Platform, ProcId};
use ltf_schedule::intervals::earliest_common_fit;
use ltf_schedule::{
    CommEvent, IntervalIndex, OverlayDelta, ReplicaId, Schedule, ScheduleData, SourceChoice, EPS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LTF through the reference path. Must produce schedules identical to
/// [`ltf_core::Ltf`] on every input.
pub fn ltf(g: &TaskGraph, p: &Platform, cfg: &AlgoConfig) -> Result<Schedule, ScheduleError> {
    let cache = LevelCache::compute(g, p);
    let mut engine = Engine::new(g, p, cfg);
    run(&mut engine, cfg, Policy::Ltf, &cache)?;
    Ok(forward_schedule(engine, g, p, cfg.epsilon, cfg.period))
}

/// R-LTF through the reference path. Must produce schedules identical to
/// [`ltf_core::Rltf`] on every input.
pub fn rltf(g: &TaskGraph, p: &Platform, cfg: &AlgoConfig) -> Result<Schedule, ScheduleError> {
    let rev = g.reversed();
    let cache = LevelCache::compute(&rev, p);
    let mut engine = Engine::new(&rev, p, cfg);
    run(&mut engine, cfg, Policy::Rltf, &cache)?;
    Ok(reversed_schedule(engine, g, p, cfg.epsilon, cfg.period))
}

// ---------------------------------------------------------------------------
// Engine (frozen parallel-Vec layout, no journal).
// ---------------------------------------------------------------------------

/// Which predecessor copies feed each in-edge of a replica being placed.
#[derive(Debug, Clone)]
struct SourcePlan {
    per_edge: Vec<(EdgeId, Vec<u8>)>,
}

impl SourcePlan {
    fn receive_from_all(g: &TaskGraph, t: TaskId, nrep: usize) -> Self {
        Self {
            per_edge: g
                .pred_edges(t)
                .iter()
                .map(|&e| (e, (0..nrep as u8).collect()))
                .collect(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PlannedComm {
    edge: EdgeId,
    src: ReplicaId,
    src_proc: ProcId,
    start: f64,
    dur: f64,
}

type ProcMask = u128;

/// Fixed-capacity replica bitset (the frozen pre-arena layout).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct ReplicaSet {
    words: Vec<u64>,
}

impl ReplicaSet {
    fn with_capacity(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, idx: usize) {
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    fn union_with(&mut self, other: &ReplicaSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

#[derive(Debug, Clone)]
struct Probe {
    proc: ProcId,
    start: f64,
    finish: f64,
    stage: u32,
    kill: ProcMask,
    planned: Vec<PlannedComm>,
}

/// Partially-built schedule state, one parallel `Vec` per attribute; the
/// snapshot driver duplicates the whole struct to compare speculative
/// attempts.
#[derive(Clone)]
struct Engine<'a> {
    g: &'a TaskGraph,
    p: &'a Platform,
    period: f64,
    nrep: usize,
    placed: Vec<bool>,
    proc_of: Vec<ProcId>,
    start: Vec<f64>,
    finish: Vec<f64>,
    stage: Vec<u32>,
    sources: Vec<Vec<SourceChoice>>,
    comm_events: Vec<CommEvent>,
    sigma: Vec<f64>,
    cin: Vec<f64>,
    cout: Vec<f64>,
    cpu: IntervalIndex,
    send: IntervalIndex,
    recv: IntervalIndex,
    kill: Vec<ProcMask>,
    down: Vec<ReplicaSet>,
    ushost: Vec<ProcMask>,
    allush: Vec<ProcMask>,
    max_stage: u32,
}

impl<'a> Engine<'a> {
    fn new(g: &'a TaskGraph, p: &'a Platform, cfg: &AlgoConfig) -> Self {
        let nrep = cfg.replicas();
        let n = g.num_tasks() * nrep;
        let m = p.num_procs();
        assert!(m <= 128, "ProcMask supports up to 128 processors");
        Self {
            g,
            p,
            period: cfg.period,
            nrep,
            placed: vec![false; n],
            proc_of: vec![ProcId(0); n],
            start: vec![0.0; n],
            finish: vec![0.0; n],
            stage: vec![0; n],
            sources: vec![Vec::new(); n],
            comm_events: Vec::new(),
            sigma: vec![0.0; m],
            cin: vec![0.0; m],
            cout: vec![0.0; m],
            cpu: IntervalIndex::new(m),
            send: IntervalIndex::new(m),
            recv: IntervalIndex::new(m),
            kill: vec![0; n],
            down: vec![ReplicaSet::with_capacity(n); n],
            ushost: vec![0; n],
            allush: vec![0; g.num_tasks()],
            max_stage: 0,
        }
    }

    #[inline]
    fn num_replicas(&self) -> usize {
        self.placed.len()
    }

    #[inline]
    fn dense(&self, t: TaskId, copy: u8) -> usize {
        ReplicaId::new(t, copy).dense(self.nrep)
    }

    fn task_finish(&self, t: TaskId) -> f64 {
        (0..self.nrep)
            .map(|c| self.finish[self.dense(t, c as u8)])
            .fold(0.0, f64::max)
    }

    #[inline]
    fn kill_of(&self, t: TaskId, copy: u8) -> ProcMask {
        self.kill[self.dense(t, copy)]
    }

    #[inline]
    fn proc_used(&self, u: ProcId) -> bool {
        self.sigma[u.index()] > 0.0
    }

    fn arrival_estimate(&self, edge: EdgeId, src: ReplicaId, u: ProcId) -> f64 {
        let sidx = src.dense(self.nrep);
        debug_assert!(self.placed[sidx], "source not placed");
        let h = self.proc_of[sidx];
        let vol = self.g.edge(edge).volume;
        self.finish[sidx] + self.p.comm_time(vol, h, u)
    }

    fn stage_contribution(&self, src: ReplicaId, u: ProcId) -> u32 {
        let sidx = src.dense(self.nrep);
        self.stage[sidx] + u32::from(self.proc_of[sidx] != u)
    }

    fn probe(&self, t: TaskId, u: ProcId, plan: &SourcePlan) -> Option<Probe> {
        let ui = u.index();
        let exec = self.p.exec_time(self.g.exec(t), u);
        if self.sigma[ui] + exec > self.period + EPS {
            return None;
        }

        let mut items: Vec<(EdgeId, ReplicaId)> = Vec::new();
        for (edge, copies) in &plan.per_edge {
            let pred = self.g.edge(*edge).src;
            for &c in copies {
                items.push((*edge, ReplicaId::new(pred, c)));
            }
        }
        items.sort_by(|a, b| {
            let fa = self.finish[a.1.dense(self.nrep)];
            let fb = self.finish[b.1.dense(self.nrep)];
            fa.partial_cmp(&fb)
                .expect("finite times")
                .then(a.0.cmp(&b.0))
                .then(a.1.copy.cmp(&b.1.copy))
        });

        let mut send_deltas: Vec<(usize, OverlayDelta, f64)> = Vec::new();
        let mut recv_delta = OverlayDelta::new();
        let mut cin_add = 0.0f64;
        let mut ready = 0.0f64;
        let mut stage = 1u32;
        let mut planned = Vec::new();

        let mut kill: ProcMask = 1u128 << ui;
        for (edge, copies) in &plan.per_edge {
            let pred = self.g.edge(*edge).src;
            let mut edge_kill: ProcMask = !0;
            for &c in copies {
                edge_kill &= self.kill[self.dense(pred, c)];
            }
            if !copies.is_empty() {
                kill |= edge_kill;
            }
        }

        for (edge, src) in items {
            let sidx = src.dense(self.nrep);
            debug_assert!(self.placed[sidx], "predecessor replica not placed");
            let h = self.proc_of[sidx];
            if h == u {
                ready = ready.max(self.finish[sidx]);
                stage = stage.max(self.stage[sidx]);
                continue;
            }
            stage = stage.max(self.stage[sidx] + 1);
            let dur = self.p.comm_time(self.g.edge(edge).volume, h, u);
            if dur <= EPS {
                ready = ready.max(self.finish[sidx]);
                continue;
            }
            let hi = h.index();
            let slot = match send_deltas.iter().position(|(p, ..)| *p == hi) {
                Some(i) => i,
                None => {
                    send_deltas.push((hi, OverlayDelta::new(), 0.0));
                    send_deltas.len() - 1
                }
            };
            let st = {
                let sv = self.send.overlay(hi, &send_deltas[slot].1);
                let rv = self.recv.overlay(ui, &recv_delta);
                earliest_common_fit(&sv, &rv, self.finish[sidx], dur)
            };
            send_deltas[slot].1.insert(st, st + dur);
            recv_delta.insert(st, st + dur);
            cin_add += dur;
            send_deltas[slot].2 += dur;
            if self.cout[hi] + send_deltas[slot].2 > self.period + EPS {
                return None;
            }
            planned.push(PlannedComm {
                edge,
                src,
                src_proc: h,
                start: st,
                dur,
            });
            ready = ready.max(st + dur);
        }
        if self.cin[ui] + cin_add > self.period + EPS {
            return None;
        }

        let start = self.cpu.bucket(ui).next_fit(ready, exec);
        Some(Probe {
            proc: u,
            start,
            finish: start + exec,
            stage,
            kill,
            planned,
        })
    }

    fn commit(&mut self, t: TaskId, copy: u8, probe: &Probe, plan: &SourcePlan) {
        let r = self.dense(t, copy);
        assert!(!self.placed[r], "replica committed twice");
        let u = probe.proc;
        let ui = u.index();
        let rep = ReplicaId::new(t, copy);

        self.placed[r] = true;
        self.proc_of[r] = u;
        self.start[r] = probe.start;
        self.finish[r] = probe.finish;
        self.stage[r] = probe.stage;
        self.kill[r] = probe.kill;
        self.max_stage = self.max_stage.max(probe.stage);

        self.sigma[ui] += probe.finish - probe.start;
        self.cpu.insert(ui, probe.start, probe.finish);

        for pc in &probe.planned {
            self.send
                .insert(pc.src_proc.index(), pc.start, pc.start + pc.dur);
            self.recv.insert(ui, pc.start, pc.start + pc.dur);
            self.cout[pc.src_proc.index()] += pc.dur;
            self.cin[ui] += pc.dur;
            self.comm_events.push(CommEvent {
                edge: pc.edge,
                src: pc.src,
                dst: rep,
                src_proc: pc.src_proc,
                dst_proc: u,
                start: pc.start,
                finish: pc.start + pc.dur,
            });
        }

        self.sources[r] = plan
            .per_edge
            .iter()
            .map(|(edge, copies)| SourceChoice {
                edge: *edge,
                sources: copies.clone(),
            })
            .collect();
    }

    fn set_down(&mut self, r: usize, dset: ReplicaSet) {
        self.down[r] = dset;
    }

    fn register_upstream_host(&mut self, r: usize, host: usize) {
        let bit: ProcMask = 1 << host;
        let nrep = self.nrep;
        let dset = std::mem::take(&mut self.down[r]);
        for idx in dset.iter() {
            self.ushost[idx] |= bit;
            self.allush[idx / nrep] |= bit;
        }
        self.down[r] = dset;
    }

    fn all_placed(&self) -> bool {
        self.placed.iter().all(|&b| b)
    }
}

// ---------------------------------------------------------------------------
// Driver (frozen chunked loop with snapshot speculation).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Ltf,
    Rltf,
}

fn run(
    engine: &mut Engine<'_>,
    cfg: &AlgoConfig,
    policy: Policy,
    cache: &LevelCache,
) -> Result<(), ScheduleError> {
    let g = engine.g;
    let p = engine.p;
    if p.num_procs() < cfg.replicas() {
        return Err(ScheduleError::TooFewProcessors {
            needed: cfg.replicas(),
            available: p.num_procs(),
        });
    }
    if !(cfg.period.is_finite() && cfg.period > 0.0) {
        return Err(ScheduleError::BadConfig(format!(
            "period must be positive, got {}",
            cfg.period
        )));
    }

    let mut prio = PrioTracker::new(cache);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tracker = ReadyTracker::new(g);
    let mut alpha: Vec<TaskId> = g.entries().to_vec();
    let chunk_cap = cfg.chunk_size.unwrap_or(p.num_procs()).max(1);

    while !alpha.is_empty() {
        prio.flush(g);
        let mut beta = Vec::with_capacity(chunk_cap.min(alpha.len()));
        while beta.len() < chunk_cap && !alpha.is_empty() {
            let idx = head_index(&alpha, prio.values(), &mut rng);
            beta.push(alpha.swap_remove(idx));
        }

        match policy {
            Policy::Ltf => {
                let mut ctxs: Vec<LtfCtx> = beta.iter().map(|&t| LtfCtx::new(t)).collect();
                for copy in 0..engine.nrep as u8 {
                    for ctx in &mut ctxs {
                        ltf_place_copy(engine, cfg, ctx, copy)?;
                    }
                }
            }
            Policy::Rltf => {
                for &t in &beta {
                    rltf_place_task_snapshot(engine, cfg, t, &tracker)?;
                }
            }
        }

        for &t in &beta {
            for s in tracker.complete(g, t) {
                alpha.push(s);
            }
            prio.mark_finished(t, engine.task_finish(t));
        }
    }
    debug_assert!(engine.all_placed(), "ready loop ended early");
    debug_assert!(tracker.all_done(g), "tasks left unscheduled");
    Ok(())
}

fn head_index(alpha: &[TaskId], prio: &[f64], rng: &mut StdRng) -> usize {
    debug_assert!(!alpha.is_empty());
    let best = alpha
        .iter()
        .map(|t| prio[t.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    let tied: Vec<usize> = (0..alpha.len())
        .filter(|&i| prio[alpha[i].index()] >= best - EPS)
        .collect();
    tied[rng.gen_range(0..tied.len())]
}

struct LtfCtx {
    task: TaskId,
    used: ProcMask,
}

impl LtfCtx {
    fn new(task: TaskId) -> Self {
        Self { task, used: 0 }
    }
}

fn ltf_place_copy(
    engine: &mut Engine<'_>,
    cfg: &AlgoConfig,
    ctx: &mut LtfCtx,
    copy: u8,
) -> Result<(), ScheduleError> {
    let t = ctx.task;
    let cone_budget = engine.p.num_procs().div_ceil(engine.nrep) as u32;
    let chosen = ltf_best_placement(engine, ctx, copy, cone_budget, cfg.use_one_to_one);
    let Some((probe, plan)) = chosen else {
        return Err(ScheduleError::Infeasible { task: t, copy });
    };
    ctx.used |= probe.kill;
    engine.commit(t, copy, &probe, &plan);
    Ok(())
}

fn ltf_best_placement(
    engine: &Engine<'_>,
    ctx: &LtfCtx,
    copy: u8,
    cone_budget: u32,
    one_to_one: bool,
) -> Option<(Probe, SourcePlan)> {
    let g = engine.g;
    let t = ctx.task;
    let pred_edges = g.pred_edges(t);
    let mut best: Option<(Probe, SourcePlan)> = None;

    for u in engine.p.procs() {
        if ctx.used >> u.index() & 1 == 1 {
            continue;
        }
        let mut plan = Vec::with_capacity(pred_edges.len());
        let mut acc_kill: ProcMask = 1u128 << u.index();
        for &eid in pred_edges.iter() {
            let pred = g.edge(eid).src;
            let mut pick: Option<(bool, f64, u8)> = None;
            if one_to_one {
                for c in 0..engine.nrep as u8 {
                    let k = engine.kill_of(pred, c);
                    if k & ctx.used != 0 {
                        continue;
                    }
                    if (acc_kill | k).count_ones() > cone_budget {
                        continue;
                    }
                    let src = ReplicaId::new(pred, c);
                    let key = (c != copy, engine.arrival_estimate(eid, src, u), c);
                    if pick.is_none_or(|p| key < p) {
                        pick = Some(key);
                    }
                }
            }
            match pick {
                Some((_, _, c)) => {
                    acc_kill |= engine.kill_of(pred, c);
                    plan.push((eid, vec![c]));
                }
                None => plan.push((eid, (0..engine.nrep as u8).collect())),
            }
        }
        let plan = SourcePlan { per_edge: plan };
        let Some(probe) = engine.probe(t, u, &plan) else {
            continue;
        };
        if probe.kill & ctx.used != 0 {
            continue;
        }
        if best
            .as_ref()
            .is_none_or(|(b, _)| probe.finish < b.finish - EPS)
        {
            best = Some((probe, plan));
        }
    }
    best
}

struct AttemptScore {
    max_stage: u32,
    total_finish: f64,
}

fn pick_one_to_one(
    engine: &Engine<'_>,
    cfg: &AlgoConfig,
    t: TaskId,
    tracker: &ReadyTracker,
    o: &AttemptScore,
    r: &AttemptScore,
) -> bool {
    if cfg.rule1 && o.max_stage != r.max_stage {
        o.max_stage < r.max_stage
    } else if cfg.rule2 && rule2_condition(engine.g, t, tracker) {
        true
    } else {
        o.total_finish <= r.total_finish + EPS
    }
}

/// Snapshot-based R-LTF task placement: the two task-level modes are
/// compared via whole-engine clones.
fn rltf_place_task_snapshot(
    engine: &mut Engine<'_>,
    cfg: &AlgoConfig,
    t: TaskId,
    tracker: &ReadyTracker,
) -> Result<(), ScheduleError> {
    let before = engine.clone();

    let oto_score = if cfg.use_one_to_one {
        rltf_try_one_to_one(engine, t, cfg.cluster_ties)
    } else {
        None
    };
    let oto_state = oto_score.is_some().then(|| engine.clone());
    // A failed attempt leaves partial placements behind: always restart
    // the receive-from-all attempt from the snapshot.
    *engine = before;
    let rfa_score = rltf_try_receive_from_all(engine, t, cfg.cluster_ties);

    match (oto_score, rfa_score) {
        (None, None) => Err(ScheduleError::Infeasible { task: t, copy: 0 }),
        (Some(_), None) => {
            *engine = oto_state.expect("saved with score");
            Ok(())
        }
        (None, Some(_)) => Ok(()), // engine already holds the RFA state
        (Some(o), Some(r)) => {
            if pick_one_to_one(engine, cfg, t, tracker, &o, &r) {
                *engine = oto_state.expect("saved with score");
            }
            Ok(())
        }
    }
}

fn rule2_condition(g: &TaskGraph, t: TaskId, tracker: &ReadyTracker) -> bool {
    if g.in_degree(t) != 1 {
        return false;
    }
    let tp = g.preds(t).next().expect("in-degree 1");
    g.succs(tp)
        .all(|s| g.in_degree(s) == 1 && (tracker.is_done(s) || tracker.is_ready(s)))
}

fn rltf_try_one_to_one(engine: &mut Engine<'_>, t: TaskId, cluster: bool) -> Option<AttemptScore> {
    let g = engine.g;
    let nrep = engine.nrep;
    let pred_edges: Vec<_> = g.pred_edges(t).to_vec();
    let mut remaining: Vec<Vec<u8>> = pred_edges
        .iter()
        .map(|_| (0..nrep as u8).collect())
        .collect();

    let mut max_stage = 0u32;
    let mut total_finish = 0.0f64;
    let mut scratch = ReplicaSet::with_capacity(engine.num_replicas());

    for copy in 0..nrep as u8 {
        let rep_dense = ReplicaId::new(t, copy).dense(nrep);
        let mut best: Option<(Probe, SourcePlan, Vec<u8>, ReplicaSet)> = None;

        for u in engine.p.procs() {
            let mut plan = Vec::with_capacity(pred_edges.len());
            let mut heads = Vec::with_capacity(pred_edges.len());
            let mut ok = true;
            for (i, &eid) in pred_edges.iter().enumerate() {
                let pred = g.edge(eid).src;
                let mut pick: Option<(u32, f64, u8)> = None;
                for &c in &remaining[i] {
                    let src = ReplicaId::new(pred, c);
                    let key = (
                        engine.stage_contribution(src, u),
                        engine.arrival_estimate(eid, src, u),
                        c,
                    );
                    if pick.is_none_or(|p| key < p) {
                        pick = Some(key);
                    }
                }
                match pick {
                    Some((_, _, c)) => {
                        plan.push((eid, vec![c]));
                        heads.push(c);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                break; // no heads left for some edge: no copy can pair
            }

            scratch.clear();
            scratch.insert(rep_dense);
            for (i, &eid) in pred_edges.iter().enumerate() {
                let pred = g.edge(eid).src;
                let head = ReplicaId::new(pred, heads[i]).dense(nrep);
                scratch.union_with(&engine.down[head]);
            }
            if closure_has_copy_conflict(&scratch, nrep) {
                continue;
            }
            let forbid = forbidden_hosts(engine, &scratch, nrep);
            if forbid >> u.index() & 1 == 1 {
                continue;
            }

            let plan = SourcePlan { per_edge: plan };
            let Some(probe) = engine.probe(t, u, &plan) else {
                continue;
            };
            let key = (probe.stage, cluster && !engine.proc_used(u), probe.finish);
            let better = best.as_ref().is_none_or(|(b, ..)| {
                key < (b.stage, cluster && !engine.proc_used(b.proc), b.finish)
            });
            if better {
                best = Some((probe, plan, heads, scratch.clone()));
            }
        }

        let (probe, plan, heads, dset) = best?;
        for (i, &c) in heads.iter().enumerate() {
            remaining[i].retain(|&x| x != c);
        }
        max_stage = max_stage.max(probe.stage);
        total_finish += probe.finish;
        let host = probe.proc.index();
        engine.commit(t, copy, &probe, &plan);
        engine.set_down(rep_dense, dset);
        engine.register_upstream_host(rep_dense, host);
    }

    Some(AttemptScore {
        max_stage: max_stage.max(engine.max_stage),
        total_finish,
    })
}

fn rltf_try_receive_from_all(
    engine: &mut Engine<'_>,
    t: TaskId,
    cluster: bool,
) -> Option<AttemptScore> {
    let nrep = engine.nrep;
    let plan = SourcePlan::receive_from_all(engine.g, t, nrep);
    let mut max_stage = 0u32;
    let mut total_finish = 0.0f64;

    for copy in 0..nrep as u8 {
        let rep_dense = ReplicaId::new(t, copy).dense(nrep);
        let forbid = engine.allush[t.index()];
        let mut best: Option<Probe> = None;
        for u in engine.p.procs() {
            if forbid >> u.index() & 1 == 1 {
                continue;
            }
            let Some(probe) = engine.probe(t, u, &plan) else {
                continue;
            };
            let key = (probe.stage, cluster && !engine.proc_used(u), probe.finish);
            let better = best
                .as_ref()
                .is_none_or(|b| key < (b.stage, cluster && !engine.proc_used(b.proc), b.finish));
            if better {
                best = Some(probe);
            }
        }
        let probe = best?;
        max_stage = max_stage.max(probe.stage);
        total_finish += probe.finish;
        let host = probe.proc;
        engine.commit(t, copy, &probe, &plan);
        let mut dset = ReplicaSet::with_capacity(engine.num_replicas());
        dset.insert(rep_dense);
        engine.set_down(rep_dense, dset);
        engine.register_upstream_host(rep_dense, host.index());
    }

    Some(AttemptScore {
        max_stage: max_stage.max(engine.max_stage),
        total_finish,
    })
}

fn closure_has_copy_conflict(dset: &ReplicaSet, nrep: usize) -> bool {
    let mut last_task = usize::MAX;
    for idx in dset.iter() {
        let task = idx / nrep;
        if task == last_task {
            return true;
        }
        last_task = task;
    }
    false
}

fn forbidden_hosts(engine: &Engine<'_>, dset: &ReplicaSet, nrep: usize) -> ProcMask {
    let mut forbid: ProcMask = 0;
    for idx in dset.iter() {
        let task = idx / nrep;
        forbid |= engine.allush[task] & !engine.ushost[idx];
    }
    forbid
}

// ---------------------------------------------------------------------------
// Conversion (frozen batch reversal transposition).
// ---------------------------------------------------------------------------

fn forward_schedule(
    engine: Engine<'_>,
    g: &TaskGraph,
    p: &Platform,
    epsilon: u8,
    period: f64,
) -> Schedule {
    Schedule::with_stages(
        g,
        p,
        ScheduleData {
            epsilon,
            period,
            proc_of: engine.proc_of,
            start: engine.start,
            finish: engine.finish,
            sources: engine.sources,
            comm_events: engine.comm_events,
        },
        engine.stage,
    )
}

fn reversed_schedule(
    engine: Engine<'_>,
    g: &TaskGraph,
    p: &Platform,
    epsilon: u8,
    period: f64,
) -> Schedule {
    let nrep = epsilon as usize + 1;
    let n = g.num_tasks() * nrep;
    let (proc_of, start_rev, finish_rev, sources_rev, events_rev) = (
        engine.proc_of,
        engine.start,
        engine.finish,
        engine.sources,
        engine.comm_events,
    );

    let t_ref = start_rev
        .iter()
        .chain(finish_rev.iter())
        .chain(events_rev.iter().flat_map(|e| [&e.start, &e.finish]))
        .fold(0.0f64, |a, &b| a.max(b));

    let start: Vec<f64> = finish_rev.iter().map(|&f| t_ref - f).collect();
    let finish: Vec<f64> = start_rev.iter().map(|&s| t_ref - s).collect();

    // Transpose the source relation batch-wise: replica (x, i) receiving
    // from (y, j) over Ĝ-edge e  ⇒  forward source of (y, j) on original
    // edge e is i.
    let mut fwd_sources: Vec<Vec<SourceChoice>> = (0..n).map(|_| Vec::new()).collect();
    for (ridx, choices) in sources_rev.iter().enumerate() {
        let x_rep = ReplicaId::from_dense(ridx, nrep);
        for choice in choices {
            let y = g.edge(choice.edge).dst;
            debug_assert_eq!(g.edge(choice.edge).src, x_rep.task);
            for &j in &choice.sources {
                let tgt = ReplicaId::new(y, j).dense(nrep);
                push_source(&mut fwd_sources[tgt], choice.edge, x_rep.copy);
            }
        }
    }
    for (ridx, list) in fwd_sources.iter_mut().enumerate() {
        let rep = ReplicaId::from_dense(ridx, nrep);
        let order = g.pred_edges(rep.task);
        list.sort_by_key(|c| {
            order
                .iter()
                .position(|&e| e == c.edge)
                .unwrap_or(usize::MAX)
        });
        for c in list.iter_mut() {
            c.sources.sort_unstable();
        }
    }

    let comm_events: Vec<CommEvent> = events_rev
        .iter()
        .map(|e| CommEvent {
            edge: e.edge,
            src: e.dst,
            dst: e.src,
            src_proc: e.dst_proc,
            dst_proc: e.src_proc,
            start: t_ref - e.finish,
            finish: t_ref - e.start,
        })
        .collect();

    Schedule::new(
        g,
        p,
        ScheduleData {
            epsilon,
            period,
            proc_of,
            start,
            finish,
            sources: fwd_sources,
            comm_events,
        },
    )
}

fn push_source(list: &mut Vec<SourceChoice>, edge: EdgeId, copy: u8) {
    match list.iter_mut().find(|c| c.edge == edge) {
        Some(c) => {
            if !c.sources.contains(&copy) {
                c.sources.push(copy);
            }
        }
        None => list.push(SourceChoice {
            edge,
            sources: vec![copy],
        }),
    }
}
