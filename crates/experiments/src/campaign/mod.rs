//! Declarative experiment campaigns: spec → matrix → sharded, checkpointed
//! execution → deterministic merge.
//!
//! A campaign is described by a JSON [`spec`] file (graph
//! families × heuristics × ε ranges × platform sizes × instance counts),
//! expanded into an ordered experiment matrix and flattened into a global
//! work-item list. The [`worker`] side runs one round-robin
//! shard of that list — journaling each completed item to a PR 5
//! checkpoint so a killed worker resumes instead of recomputing — and the
//! [`merge`] side recombines per-shard results into output
//! **byte-identical** to a single-process run, failing loudly on missing
//! items or nondeterministic duplicates.
//!
//! Specs with a `failure` block run the [`slo`] pipeline instead: cells
//! solve one witness schedule each and replay sampled crash traces
//! through it, aggregating SLO distribution statistics (`ltf-faultlab`)
//! under the same sharding, checkpointing, and byte-identity discipline.
//!
//! The `ltf-campaign` binary builds the multi-process coordinator
//! (spawned workers or remote LDJSON shards) on top of exactly these
//! pieces; its `campaign-worker` subcommand exposes the shard runner.
//! See `docs/campaign-spec.md` for the spec format,
//! `docs/slo-campaign.md` for SLO campaigns, and `ARCHITECTURE.md` for
//! where campaigns sit in the stack.

pub mod merge;
pub mod slo;
pub mod spec;
pub mod worker;

pub use merge::{render_item, render_lines, run_serial, CampaignResult, Merger};
pub use slo::{
    build_slo_report, compute_slo_item, run_slo_serial, run_slo_shard, slo_cells, slo_journal_key,
    slo_work_items, SloCell, SloItemResult, SloWorkItem,
};
pub use spec::{
    CampaignSpec, EpsRange, Experiment, FailureSpec, SloSpec, SpecError, TopologyShape,
    TopologySpec, DEFAULT_SEED,
};
pub use worker::{
    compute_item, journal_key, run_shard, work_items, worker_main, ItemResult, WorkItem, ABORT_ENV,
};
