//! The prepared problem instance every [`Heuristic`](crate::Heuristic)
//! schedules over.

use crate::prio::LevelCache;
use ltf_graph::TaskGraph;
use ltf_platform::Platform;
use std::sync::OnceLock;

/// A `(graph, platform)` pair with the period-independent derivations —
/// the reversed graph for bottom-up traversals and the platform-averaged
/// level caches for both directions — computed lazily, at most once, and
/// shared by every schedule attempt on the instance.
///
/// The objective-space searches probe the same instance at dozens of
/// candidate periods (or ε values); preparing once keeps each probe's
/// setup cost at "allocate an engine" instead of "re-derive levels,
/// averaged weights and the reversed graph". Laziness means a session that
/// only ever runs forward heuristics never pays for the reversed
/// derivations (and vice versa).
pub struct PreparedInstance<'a> {
    g: &'a TaskGraph,
    p: &'a Platform,
    rev: OnceLock<TaskGraph>,
    fwd_cache: OnceLock<LevelCache>,
    rev_cache: OnceLock<LevelCache>,
    rev_slots: OnceLock<Vec<u32>>,
}

impl<'a> PreparedInstance<'a> {
    /// Wrap `g` on `p`; direction-specific derivations are computed on
    /// first use.
    pub fn new(g: &'a TaskGraph, p: &'a Platform) -> Self {
        Self {
            g,
            p,
            rev: OnceLock::new(),
            fwd_cache: OnceLock::new(),
            rev_cache: OnceLock::new(),
            rev_slots: OnceLock::new(),
        }
    }

    /// The application graph this instance was prepared for.
    pub fn graph(&self) -> &TaskGraph {
        self.g
    }

    /// The platform this instance was prepared for.
    pub fn platform(&self) -> &Platform {
        self.p
    }

    /// The reversed application graph (computed on first use), shared by
    /// every bottom-up traversal over this instance.
    pub fn reversed(&self) -> &TaskGraph {
        self.rev.get_or_init(|| self.g.reversed())
    }

    /// Platform-averaged level cache of the forward graph (computed on
    /// first use). Drives LTF's priorities.
    pub fn levels_forward(&self) -> &LevelCache {
        self.fwd_cache
            .get_or_init(|| LevelCache::compute(self.g, self.p))
    }

    /// Platform-averaged level cache of the reversed graph (computed on
    /// first use). Drives R-LTF's priorities.
    pub fn levels_reversed(&self) -> &LevelCache {
        self.rev_cache
            .get_or_init(|| LevelCache::compute(self.reversed(), self.p))
    }

    /// Reversal slot table (computed on first use): `slots[e]` is the
    /// position of edge `e` in `g.pred_edges(dst(e))`. A reverse-mode
    /// engine uses it to maintain the forward source relation
    /// incrementally, so the reversal transposition is cached per instance
    /// instead of re-derived per solve (see
    /// [`crate::convert::reversed_schedule`]).
    pub(crate) fn reversal(&self) -> &[u32] {
        self.rev_slots.get_or_init(|| {
            let mut slots = vec![0u32; self.g.num_edges()];
            for y in self.g.tasks() {
                for (i, &e) in self.g.pred_edges(y).iter().enumerate() {
                    slots[e.index()] = i as u32;
                }
            }
            slots
        })
    }
}
