//! SLO campaigns: stochastic failure sweeps over the campaign matrix.
//!
//! A spec with a [`FailureSpec`] block runs a different pipeline than a
//! Pareto campaign. Each **cell** is one concrete (graph instance,
//! heuristic, ε) point: the ε bands expand to individual degrees and the
//! instance axis to individual seeds, because every cell solves exactly
//! one witness schedule ([`AlgoConfig::new`] at the cell's period) and
//! replays sampled crash traces through it. The **work item** — the unit
//! of sharding, checkpointing, and retry — is one *trace block*:
//! [`FailureSpec::block`] consecutive traces of one cell.
//!
//! Determinism contract (pinned by tests and the CI smoke): the rendered
//! [`SloReport`] is byte-identical for the same spec + seed regardless of
//! thread count, shard count, or crash/retry history, because
//!
//! 1. trace `t` of cell `c` is sampled from the split stream keyed by
//!    *(campaign signature, `c·traces + t`)* — a pure function of the
//!    spec, never of which worker drew it;
//! 2. trace blocks fold into [`CellStats`] in ascending trace order, and
//!    the merge re-orders blocks by global item index before cells are
//!    aggregated — so every digest is built in one canonical order;
//! 3. conflicting duplicate items are rejected by the
//!    [`Merger`](super::Merger), exactly as in Pareto campaigns.
//!
//! Everything but the items themselves is shared with Pareto campaigns:
//! [`SloItemResult`] implements [`CampaignResult`], so SLO shards run
//! through the same [`run_shard`](super::run_shard), journal, worker
//! wire and merge, under journal keys prefixed `slo:`.
//!
//! See `docs/slo-campaign.md` for the spec format and report fields.

use super::merge::{run_merged, CampaignResult};
use super::spec::{CampaignSpec, Experiment, FailureSpec};
use crate::pareto::ParetoInstance;
use crate::workload::gen_instance_on;
use ltf_baselines::full_solver;
use ltf_core::AlgoConfig;
use ltf_faultlab::{
    replay, CellStats, FailureModel, ReplayConfig, SimEngine, SloReport, SloRow, SloThreshold,
};
use ltf_sim::RecoveryPolicy;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One SLO cell: a concrete (experiment, ε, instance) point with its own
/// witness schedule and trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SloCell {
    /// Position in cell expansion order (keys the trace streams).
    pub index: usize,
    /// Label: the experiment label plus `/eps=E/inst=K`.
    pub label: String,
    /// Index into the expanded experiment list.
    pub experiment: usize,
    /// The concrete replication degree the witness is solved at.
    pub epsilon: u8,
    /// Instance number within the experiment.
    pub instance: usize,
    /// The instance's deterministic seed.
    pub seed: u64,
}

/// Expand experiments into SLO cells: each bounded ε band unrolls to its
/// individual degrees, each instance to its own cell. Deterministic in
/// the experiment list alone.
pub fn slo_cells(exps: &[Experiment]) -> Vec<SloCell> {
    let mut out = Vec::new();
    for exp in exps {
        let lo = exp.opts.min_epsilon.unwrap_or(0);
        let hi = exp
            .opts
            .max_epsilon
            .expect("SLO specs validate to bounded ε bands");
        for e in lo..=hi {
            for k in 0..exp.instances {
                out.push(SloCell {
                    index: out.len(),
                    label: format!("{}/eps={e}/inst={k}", exp.label),
                    experiment: exp.index,
                    epsilon: e,
                    instance: k,
                    seed: exp.base_seed.wrapping_add(k as u64),
                });
            }
        }
    }
    out
}

/// One unit of SLO work: traces `t0..t1` of cell `cell`, at global
/// position `item` (the sharding key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloWorkItem {
    /// Global index across all cells.
    pub item: usize,
    /// Cell index.
    pub cell: usize,
    /// First trace of the block (inclusive).
    pub t0: usize,
    /// Last trace of the block (exclusive).
    pub t1: usize,
}

/// Flatten cells into the global trace-block list (cell-major, block
/// order within a cell ascending).
pub fn slo_work_items(f: &FailureSpec, cells: &[SloCell]) -> Vec<SloWorkItem> {
    let traces = f.traces();
    let block = f.block();
    let mut out = Vec::new();
    for cell in cells {
        let mut t0 = 0;
        while t0 < traces {
            let t1 = (t0 + block).min(traces);
            out.push(SloWorkItem {
                item: out.len(),
                cell: cell.index,
                t0,
                t1,
            });
            t0 = t1;
        }
    }
    out
}

/// The completed result of one trace block: the journal record, the
/// worker stdout line, and the unit the coordinator merges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloItemResult {
    /// Global work-item index.
    pub item: u64,
    /// Cell index the block belongs to.
    pub cell: u64,
    /// The cell's label (carried so merged output is self-describing).
    pub label: String,
    /// Whether the cell's witness schedule exists. Every block of a cell
    /// re-derives this identically; the merge cross-checks.
    pub feasible: bool,
    /// The block's accumulated statistics.
    pub stats: CellStats,
}

impl CampaignResult for SloItemResult {
    const KEY_PREFIX: &'static str = "slo";
    type Item = SloWorkItem;
    /// The expanded experiments, their cells and the spec signature.
    type Context = (Vec<Experiment>, Vec<SloCell>, u64);

    fn items(spec: &CampaignSpec) -> Result<(Self::Context, Vec<SloWorkItem>), String> {
        let f = spec
            .failure
            .as_ref()
            .ok_or_else(|| "slo: spec has no \"failure\" block".to_string())?;
        let exps = spec.expand().map_err(|e| e.to_string())?;
        let cells = slo_cells(&exps);
        let items = slo_work_items(f, &cells);
        Ok(((exps, cells, spec.signature()), items))
    }

    /// Compute one trace block: materialize the cell's instance, solve its
    /// witness, and replay the block's traces. Self-contained — any shard,
    /// thread, or retry computes the identical result from `(spec, item)`
    /// alone. An infeasible cell yields empty stats with `feasible: false`;
    /// a witness that fails validation is a scheduler bug and panics.
    fn compute(spec: &CampaignSpec, (exps, cells, sig): &Self::Context, wi: &SloWorkItem) -> Self {
        let f = spec
            .failure
            .as_ref()
            .expect("SLO campaign has a failure block");
        let cell = &cells[wi.cell];
        let exp = &exps[cell.experiment];
        let (g, p, period) = match exp.family {
            ParetoInstance::Workload => {
                let mut wl = exp.workload.clone();
                wl.epsilon = cell.epsilon;
                let inst = gen_instance_on(&wl, cell.seed, exp.topology.as_ref());
                let period = f.period.unwrap_or(inst.period);
                (inst.graph, inst.platform, period)
            }
            fam => {
                let (g, p, _) = fam.build(cell.seed, exp.workload.utilization);
                let period = f
                    .period
                    .expect("validated: fig families require failure.period");
                (g, p, period)
            }
        };
        let solver = full_solver(&g, &p);
        let mut stats = CellStats::new();
        let mut feasible = false;
        if let Ok(sol) = solver.solve(&exp.algo, &AlgoConfig::new(cell.epsilon, period)) {
            if let Err(e) = ltf_schedule::validate(&g, &p, &sol.schedule) {
                panic!(
                    "slo item {} ({}): witness fails validation: {e:?}",
                    wi.item, cell.label
                );
            }
            feasible = true;
            let m = p.num_procs();
            let model = match (&f.rate, &f.rates) {
                (Some(r), None) => FailureModel::uniform(m, *r),
                (None, Some(rs)) => {
                    assert_eq!(
                        rs.len(),
                        m,
                        "failure.rates has {} entries but cell {} has {m} processors",
                        rs.len(),
                        cell.label
                    );
                    FailureModel::from_rates(rs.clone())
                }
                _ => unreachable!("validated: exactly one of rate/rates"),
            };
            let slo = slo_threshold(spec);
            let cfg = ReplayConfig {
                items: f.items(),
                policy: policy_of(f),
                engine: engine_of(f),
            };
            let traces = f.traces();
            for t in wi.t0..wi.t1 {
                let stream = (cell.index * traces + t) as u64;
                let trace = model.sample_trace(*sig, stream);
                stats.record(&replay(&g, &p, &sol.schedule, trace, &cfg), &slo);
            }
        }
        SloItemResult {
            item: wi.item as u64,
            cell: cell.index as u64,
            label: cell.label.clone(),
            feasible,
            stats,
        }
    }

    fn item_index(&self) -> u64 {
        self.item
    }

    fn summary(&self) -> String {
        format!(
            "cell {} ({:?}), {} traces, feasible={}",
            self.cell, self.label, self.stats.traces, self.feasible
        )
    }
}

/// The spec's declared objective as the faultlab threshold (default:
/// zero tolerance, losses only).
pub fn slo_threshold(spec: &CampaignSpec) -> SloThreshold {
    spec.slo
        .as_ref()
        .map(|s| SloThreshold {
            max_latency: s.max_latency,
            max_violation_rate: s.max_violation_rate,
        })
        .unwrap_or_default()
}

fn policy_of(f: &FailureSpec) -> RecoveryPolicy {
    match f.policy.as_deref() {
        Some("reroute") => RecoveryPolicy::Reroute,
        _ => RecoveryPolicy::FailStop,
    }
}

fn engine_of(f: &FailureSpec) -> SimEngine {
    f.engine
        .as_deref()
        .and_then(SimEngine::parse)
        .unwrap_or(SimEngine::Synchronous)
}

/// Aggregate merged results (global item order) into the campaign's
/// [`SloReport`]: blocks fold into their cells in item order — the
/// canonical digest-merge order the byte-identity contract names — and a
/// feasibility disagreement between blocks of one cell is a determinism
/// violation.
pub fn build_slo_report(
    spec: &CampaignSpec,
    results: &[SloItemResult],
) -> Result<SloReport, String> {
    let exps = spec.expand().map_err(|e| e.to_string())?;
    let cells = slo_cells(&exps);
    let slo = slo_threshold(spec);
    let mut acc: Vec<Option<(bool, CellStats)>> = vec![None; cells.len()];
    for r in results {
        let c = r.cell as usize;
        if c >= cells.len() {
            return Err(format!(
                "slo merge: cell {c} out of range (campaign has {} cells)",
                cells.len()
            ));
        }
        match &mut acc[c] {
            None => acc[c] = Some((r.feasible, r.stats.clone())),
            Some((feasible, stats)) => {
                if *feasible != r.feasible {
                    return Err(format!(
                        "slo merge: determinism violation: cell {c} ({:?}) blocks disagree \
                         on feasibility",
                        r.label
                    ));
                }
                stats.merge(&r.stats);
            }
        }
    }
    let rows = cells
        .iter()
        .map(|cell| {
            let (feasible, stats) = match &acc[cell.index] {
                Some((f, s)) => (*f, s.clone()),
                None => (false, CellStats::new()),
            };
            SloRow::from_stats(
                cell.index as u64,
                cell.label.clone(),
                feasible,
                &stats,
                &slo,
            )
        })
        .collect();
    Ok(SloReport { rows })
}

/// Run the whole SLO campaign in this process and build its report — the
/// golden reference every distributed run is compared against, via the
/// same one-shard runner and merge path.
pub fn run_slo_serial(
    spec: &CampaignSpec,
    threads: usize,
    journal: Option<&Path>,
) -> Result<SloReport, String> {
    build_slo_report(spec, &run_merged::<SloItemResult>(spec, threads, journal)?)
}
