//! The campaign worker: the flattened work-item list, per-item front
//! enumeration, and the checkpointed shard runner.
//!
//! A campaign's unit of distribution is the **work item**: one (graph
//! instance, ε band) front enumeration, numbered globally across the
//! whole expanded experiment matrix in expansion order. Sharding is
//! round-robin over that global index ([`ltf_core::shard::Shard`]), so
//! the item→shard assignment is a pure function of the spec and the shard
//! count — any process can recompute any shard, which is what lets the
//! coordinator reassign a dead worker's shard and still merge a
//! byte-identical front.

use super::spec::{CampaignSpec, Experiment};
use crate::checkpoint::{resume_chunks, Checkpoint};
use crate::figures::window_for;
use crate::pareto::{enumerate, validate_front, FrontRow, ParetoInstance};
use crate::workload::gen_instance_on;
use ltf_core::shard::Shard;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
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

/// Enumerate one work item's front. Every witness is re-validated against
/// its platform prefix first; a validation failure is a scheduler bug and
/// panics (propagated with its payload by the worker pool) rather than
/// journalling a bogus result as completed work.
pub fn compute_item(exps: &[Experiment], wi: &WorkItem) -> ItemResult {
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

/// The journal key of work item `item` under a spec with fingerprint
/// `sig`: name + signature pin the exact campaign configuration, so a
/// shared or stale journal never cross-replays between campaigns.
pub fn journal_key(name: &str, sig: u64, item: usize) -> String {
    format!("campaign:{name}:{sig:016x}:item={item:06}")
}

/// Run one shard of the campaign: expand the spec, keep the items the
/// shard owns, and enumerate each pending one in checkpointed windows,
/// streaming every completed [`ItemResult`] (replayed from the journal
/// first, then freshly computed, each exactly once) through `emit`.
/// Returns the number of results emitted — always the shard's full item
/// count on success, whatever mix of replay and recompute produced them.
pub fn run_shard(
    spec: &CampaignSpec,
    shard: Shard,
    threads: usize,
    journal: Option<&Path>,
    mut emit: impl FnMut(&ItemResult),
) -> Result<usize, String> {
    let exps = spec.expand().map_err(|e| e.to_string())?;
    let owned: Vec<WorkItem> = work_items(&exps)
        .into_iter()
        .filter(|wi| shard.owns(wi.item))
        .collect();
    let sig = spec.signature();
    let key = |wi: &WorkItem| journal_key(&spec.name, sig, wi.item);
    let expected: HashSet<String> = owned.iter().map(key).collect();
    let mut emitted = 0usize;
    let mut ckpt = match journal {
        Some(path) => Some(
            Checkpoint::open(path, |k, value| {
                if !expected.contains(k) {
                    return false; // different campaign or shard sharing the file
                }
                match ItemResult::from_value(value) {
                    Ok(r) => {
                        emitted += 1;
                        emit(&r);
                        true
                    }
                    Err(e) => {
                        eprintln!(
                            "warning: checkpoint: record {k} does not decode ({e}); recomputing"
                        );
                        false
                    }
                }
            })
            .map_err(|e| format!("checkpoint: {e}"))?,
        ),
        None => None,
    };
    resume_chunks(
        &owned,
        threads,
        window_for(threads),
        &mut ckpt,
        key,
        |wi| compute_item(&exps, wi),
        |_, r: ItemResult| {
            emitted += 1;
            emit(&r);
        },
    )
    .map_err(|e| format!("checkpoint: {e}"))?;
    Ok(emitted)
}

/// The worker-process entry point behind `ltf-campaign campaign-worker`:
/// load the spec, run the shard, and stream the wire form the coordinator
/// consumes — one JSON line per [`ItemResult`], each flushed as soon as
/// it completes, then the final
/// `{"done":true,"shard":"K/N","items":N}` line that distinguishes a
/// clean finish from a crash mid-shard.
pub fn worker_main(
    spec_path: &Path,
    shard: Shard,
    threads: usize,
    journal: Option<&Path>,
    out: &mut impl Write,
) -> Result<usize, String> {
    let spec = CampaignSpec::load(spec_path).map_err(|e| e.to_string())?;
    if spec.failure.is_some() {
        // An SLO campaign: same wire, same supervision, different items.
        return super::slo::slo_worker_main(&spec, shard, threads, journal, out);
    }
    let abort_marker = std::env::var_os(ABORT_ENV).map(std::path::PathBuf::from);
    let mut io_err: Option<String> = None;
    let emitted = run_shard(&spec, shard, threads, journal, |r| {
        if io_err.is_some() {
            return;
        }
        let line = serde_json::to_string(r).expect("value writer is infallible");
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
    let done = serde::Value::Map(vec![
        ("done".to_string(), serde::Value::Bool(true)),
        ("shard".to_string(), serde::Value::Str(shard.to_string())),
        ("items".to_string(), serde::Value::UInt(emitted as u64)),
    ]);
    let line = serde_json::to_string(&done).expect("value writer is infallible");
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("worker stdout: {e}"))?;
    Ok(emitted)
}
