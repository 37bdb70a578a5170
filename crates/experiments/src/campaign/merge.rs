//! Merging per-shard results back into one campaign front.
//!
//! The [`Merger`] collects [`ItemResult`]s from any number of shards (in
//! any arrival order) into the global work-item order, refusing to finish
//! while items are missing and refusing *conflicting duplicates*
//! outright: a work item computed twice — a retried shard, a journal
//! replay racing a recompute — must produce bit-identical results, so a
//! mismatch is a determinism violation worth failing loudly over, never
//! something to paper over by picking one. [`render_lines`] then turns
//! the merged results into the canonical JSON-lines output, which is what
//! the byte-identity guarantee is stated over: a distributed run's
//! rendered merge equals [`run_serial`]'s output exactly.

use super::spec::CampaignSpec;
use super::worker::{run_shard, ItemResult};
use ltf_core::shard::Shard;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// A campaign kind, named by its work-item result: Pareto campaigns
/// compute [`ItemResult`]s, SLO campaigns [`super::slo::SloItemResult`]s.
/// Only what differs between the kinds lives here — the spec's work-item
/// list, the compute for one item and the journal-key prefix — so one
/// shard runner ([`run_shard`]), one worker wire and one [`Merger`] serve
/// both. The merge discipline — global item order, conflicting
/// duplicates are determinism violations — is identical.
pub trait CampaignResult:
    Clone + PartialEq + std::fmt::Debug + Serialize + Deserialize + Send
{
    /// Journal-key prefix (`campaign` or `slo`): keeps the two kinds'
    /// records disjoint even in a shared journal file.
    const KEY_PREFIX: &'static str;
    /// One unit of work.
    type Item: Sync;
    /// What computing an item needs besides the spec, expanded once.
    type Context: Sync;
    /// The spec's global ordered work-item list (an item's position is
    /// its global index) and its compute context. A spec of the other
    /// kind is an error.
    fn items(spec: &CampaignSpec) -> Result<(Self::Context, Vec<Self::Item>), String>;
    /// Compute one work item. Self-contained: any shard, thread or retry
    /// computes the identical result.
    fn compute(spec: &CampaignSpec, ctx: &Self::Context, item: &Self::Item) -> Self;
    /// Global work-item index (the merge key).
    fn item_index(&self) -> u64;
    /// Short description used in determinism-violation diagnostics.
    fn summary(&self) -> String;
}

/// Accumulates per-item results from all shards of a campaign.
#[derive(Debug)]
pub struct Merger<R: CampaignResult = ItemResult> {
    expected: usize,
    results: BTreeMap<u64, R>,
}

impl<R: CampaignResult> Merger<R> {
    /// A merger expecting the campaign's full work-item count.
    pub fn new(expected: usize) -> Self {
        Self {
            expected,
            results: BTreeMap::new(),
        }
    }

    /// Add one completed item. Re-inserting a bit-identical result is
    /// fine (idempotent — retries and replays do this); a *different*
    /// result under the same item index is a determinism violation and
    /// errors.
    pub fn insert(&mut self, r: R) -> Result<(), String> {
        let item = r.item_index();
        if item >= self.expected as u64 {
            return Err(format!(
                "merge: item {item} out of range (campaign has {} items)",
                self.expected
            ));
        }
        match self.results.get(&item) {
            Some(prev) if *prev != r => Err(format!(
                "merge: determinism violation: item {item} computed twice with different \
                 results ({} vs {})",
                prev.summary(),
                r.summary()
            )),
            Some(_) => Ok(()),
            None => {
                self.results.insert(item, r);
                Ok(())
            }
        }
    }

    /// Number of distinct items collected so far.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Whether every expected item has arrived.
    pub fn is_complete(&self) -> bool {
        self.results.len() == self.expected
    }

    /// The item indices still missing, ascending.
    pub fn missing(&self) -> Vec<u64> {
        (0..self.expected as u64)
            .filter(|i| !self.results.contains_key(i))
            .collect()
    }

    /// Finish the merge: the results in global item order, or an error
    /// naming the missing items.
    pub fn finish(self) -> Result<Vec<R>, String> {
        if !self.is_complete() {
            let missing = self.missing();
            return Err(format!(
                "merge: {} of {} items missing (first missing: {:?})",
                missing.len(),
                self.expected,
                &missing[..missing.len().min(8)]
            ));
        }
        Ok(self.results.into_values().collect())
    }
}

/// Render one item's front rows as output lines: each row becomes a flat
/// JSON object prefixed with the experiment label and item index.
pub fn render_item(r: &ItemResult) -> Vec<String> {
    r.rows
        .iter()
        .map(|row| {
            let mut fields = vec![
                ("experiment".to_string(), Value::Str(r.label.clone())),
                ("item".to_string(), Value::UInt(r.item)),
            ];
            match row.to_value() {
                Value::Map(m) => fields.extend(m),
                other => fields.push(("row".to_string(), other)),
            }
            serde_json::to_string(&Value::Map(fields)).expect("value writer is infallible")
        })
        .collect()
}

/// Render merged results (global item order) into the canonical campaign
/// output: one JSON line per front row.
pub fn render_lines(results: &[ItemResult]) -> Vec<String> {
    results.iter().flat_map(render_item).collect()
}

/// Run the whole campaign in this process and render its output — the
/// golden reference every distributed run is compared against.
pub fn run_serial(
    spec: &CampaignSpec,
    threads: usize,
    journal: Option<&Path>,
) -> Result<Vec<String>, String> {
    let results = run_merged::<ItemResult>(spec, threads, journal)?;
    Ok(render_lines(&results))
}

/// Run every item of a kind-`R` campaign in this process and merge the
/// results into global item order. Implemented as the trivial one-shard
/// run through the exact same shard runner and merge as a distributed
/// run, so "serial equals distributed" is structural, not coincidental.
pub(crate) fn run_merged<R: CampaignResult>(
    spec: &CampaignSpec,
    threads: usize,
    journal: Option<&Path>,
) -> Result<Vec<R>, String> {
    let expected = R::items(spec)?.1.len();
    let mut collected = Vec::new();
    run_shard::<R>(spec, Shard::solo(), threads, journal, |r| {
        collected.push(r.clone());
    })?;
    let mut merger = Merger::new(expected);
    for r in collected {
        merger.insert(r)?;
    }
    merger.finish()
}
