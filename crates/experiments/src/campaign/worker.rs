//! The campaign worker: the Pareto work items, the one shard runner
//! both campaign kinds go through, and the worker-process wire.
//!
//! A campaign's unit of distribution is the **work item**: for a Pareto
//! campaign one (graph instance, ε band) front enumeration, for an SLO
//! campaign one trace block ([`super::slo`]), numbered globally across
//! the whole expanded matrix in expansion order. Sharding is round-robin
//! over that global index ([`ltf_core::shard::Shard`]), so the item→shard
//! assignment is a pure function of the spec and the shard count — any
//! process can recompute any shard, which is what lets the coordinator
//! reassign a dead worker's shard and still merge byte-identical output.
//!
//! [`run_shard`] runs one shard of either kind through the journalled
//! runner ([`crate::checkpoint::run_journalled`]); [`run_spec_shard`] is
//! the one place a spec's kind is picked, shared by [`worker_main`] and
//! the `ltf-serve` shard handler.

use super::merge::CampaignResult;
use super::slo::SloItemResult;
use super::spec::{CampaignSpec, Experiment};
use crate::checkpoint::run_journalled;
use crate::pareto::{enumerate, validate_front, FrontRow, ParetoInstance};
use crate::workload::gen_instance_on;
use ltf_core::shard::Shard;
use serde::{Deserialize, Serialize, Value};
use std::io::Write;
use std::path::Path;

/// Crash-injection hook for the kill-a-worker tests: when this variable
/// names a marker file, the worker hard-aborts after its first emitted
/// item *unless the marker already exists* (it creates the marker first,
/// so exactly one incarnation dies and its retry runs to completion).
pub const ABORT_ENV: &str = "LTF_CAMPAIGN_ABORT_AFTER_ITEM";

/// One unit of campaign work: instance `instance` of experiment
/// `experiment`, at global position `item` in the flattened list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Global index across all experiments (the sharding key).
    pub item: usize,
    /// Index into the expanded experiment list.
    pub experiment: usize,
    /// Instance number within the experiment.
    pub instance: usize,
    /// The instance's deterministic seed.
    pub seed: u64,
}

/// Flatten the expanded experiment matrix into the global ordered
/// work-item list (experiment-major, instance-minor). Deterministic in
/// the experiment list alone.
pub fn work_items(exps: &[Experiment]) -> Vec<WorkItem> {
    let mut out = Vec::new();
    for exp in exps {
        for k in 0..exp.instances {
            out.push(WorkItem {
                item: out.len(),
                experiment: exp.index,
                instance: k,
                seed: exp.base_seed.wrapping_add(k as u64),
            });
        }
    }
    out
}

/// The completed result of one work item: the journal record, the worker
/// stdout line, and the unit the coordinator merges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemResult {
    /// Global work-item index.
    pub item: u64,
    /// Experiment index the item belongs to.
    pub experiment: u64,
    /// The experiment's label (carried so merged output lines are
    /// self-describing without re-expanding the spec).
    pub label: String,
    /// Instance seed the front was enumerated on.
    pub seed: u64,
    /// The instance's compact front rows.
    pub rows: Vec<FrontRow>,
}

impl CampaignResult for ItemResult {
    const KEY_PREFIX: &'static str = "campaign";
    type Item = WorkItem;
    type Context = Vec<Experiment>;

    fn items(spec: &CampaignSpec) -> Result<(Vec<Experiment>, Vec<WorkItem>), String> {
        if spec.failure.is_some() {
            return Err(format!(
                "campaign {:?} has a \"failure\" block: run it as an SLO campaign",
                spec.name
            ));
        }
        let exps = spec.expand().map_err(|e| e.to_string())?;
        let items = work_items(&exps);
        Ok((exps, items))
    }

    /// Enumerate one work item's front. Every witness is re-validated
    /// against its platform prefix first; a validation failure is a
    /// scheduler bug and panics (propagated with its payload by the worker
    /// pool) rather than journalling a bogus result as completed work.
    fn compute(_: &CampaignSpec, exps: &Vec<Experiment>, wi: &WorkItem) -> Self {
        let exp = &exps[wi.experiment];
        let (g, p) = match exp.family {
            ParetoInstance::Workload => {
                let inst = gen_instance_on(&exp.workload, wi.seed, exp.topology.as_ref());
                (inst.graph, inst.platform)
            }
            fam => {
                let (g, p, _) = fam.build(wi.seed, exp.workload.utilization);
                (g, p)
            }
        };
        let front = enumerate(&g, &p, &exp.algo, &exp.opts).expect("algo validated at expansion");
        if let Err(e) = validate_front(&g, &p, &front) {
            panic!("campaign item {} ({}): {e}", wi.item, exp.label);
        }
        ItemResult {
            item: wi.item as u64,
            experiment: wi.experiment as u64,
            label: exp.label.clone(),
            seed: wi.seed,
            rows: front.iter().map(|pt| FrontRow::new(wi.seed, pt)).collect(),
        }
    }

    fn item_index(&self) -> u64 {
        self.item
    }

    fn summary(&self) -> String {
        format!("{} rows, label {:?}", self.rows.len(), self.label)
    }
}

/// Run one shard of a campaign of kind `R`: expand the spec, keep the
/// items the shard owns, and compute each pending one through the
/// journalled runner, streaming every completed result (replayed from
/// the journal first, then freshly computed, each exactly once) through
/// `emit`. Returns the number of results emitted — always the shard's
/// full item count on success, whatever mix of replay and recompute
/// produced them. A spec of the other kind is an error.
///
/// Journal keys are `<prefix>:<name>:<signature>:item=<index>`, with
/// prefix `campaign` or `slo`: name and signature pin the exact campaign
/// configuration, so a shared or stale journal never cross-replays
/// between campaigns or kinds.
pub fn run_shard<R: CampaignResult>(
    spec: &CampaignSpec,
    shard: Shard,
    threads: usize,
    journal: Option<&Path>,
    mut emit: impl FnMut(&R),
) -> Result<usize, String> {
    let (ctx, items) = R::items(spec)?;
    let owned: Vec<(usize, R::Item)> = items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| shard.owns(*i))
        .collect();
    let sig = spec.signature();
    let key = |(i, _): &(usize, R::Item)| {
        format!("{}:{}:{sig:016x}:item={i:06}", R::KEY_PREFIX, spec.name)
    };
    run_journalled(
        &owned,
        key,
        threads,
        journal,
        |(_, wi)| R::compute(spec, &ctx, wi),
        |_, r| emit(&r),
    )
    .map_err(|e| format!("checkpoint: {e}"))
}

/// Run one shard of `spec` as whichever kind it is — an SLO campaign
/// when it has a `failure` block, a Pareto campaign otherwise — and
/// stream each result in its wire form. The one place a spec's kind is
/// picked for a shard: the worker process and the daemon's shard handler
/// both run shards through here.
pub fn run_spec_shard(
    spec: &CampaignSpec,
    shard: Shard,
    threads: usize,
    journal: Option<&Path>,
    mut emit: impl FnMut(Value),
) -> Result<usize, String> {
    if spec.failure.is_some() {
        run_shard::<SloItemResult>(spec, shard, threads, journal, |r| emit(r.to_value()))
    } else {
        run_shard::<ItemResult>(spec, shard, threads, journal, |r| emit(r.to_value()))
    }
}

/// The line that ends a worker's stream,
/// `{"done":true,"shard":"K/N","items":N}`: it tells a clean finish from
/// a crash mid-shard. The worker writes it and the coordinator reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardDone {
    /// Always `true`.
    pub done: bool,
    /// The shard, as `K/N`.
    pub shard: String,
    /// Results the worker streamed before this line.
    pub items: u64,
}

/// The worker-process entry point behind `ltf-campaign campaign-worker`:
/// load the spec, run the shard, and stream the wire form the coordinator
/// consumes — one JSON line per result, each flushed as soon as it
/// completes, then the [`ShardDone`] line.
pub fn worker_main(
    spec_path: &Path,
    shard: Shard,
    threads: usize,
    journal: Option<&Path>,
    out: &mut impl Write,
) -> Result<usize, String> {
    let spec = CampaignSpec::load(spec_path).map_err(|e| e.to_string())?;
    let abort_marker = std::env::var_os(ABORT_ENV).map(std::path::PathBuf::from);
    let mut io_err: Option<String> = None;
    let emitted = run_spec_shard(&spec, shard, threads, journal, |r| {
        if io_err.is_some() {
            return;
        }
        let line = serde_json::to_string(&r).expect("value writer is infallible");
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            io_err = Some(format!("worker stdout: {e}"));
            return;
        }
        if let Some(marker) = &abort_marker {
            if !marker.exists() {
                // First incarnation: leave the marker so the retry
                // survives, then die the hard way (no unwinding, no
                // cleanup) — the same failure the SIGKILL CI smoke
                // injects.
                let _ = std::fs::write(marker, b"aborted\n");
                std::process::abort();
            }
        }
    })?;
    if let Some(e) = io_err {
        return Err(e);
    }
    let done = ShardDone {
        done: true,
        shard: shard.to_string(),
        items: emitted as u64,
    };
    let line = serde_json::to_string(&done).expect("value writer is infallible");
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("worker stdout: {e}"))?;
    Ok(emitted)
}
