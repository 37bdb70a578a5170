//! The paper's evaluation figures (§5, Figs. 3 and 4).
//!
//! Every figure sweeps the granularity from 0.2 to 2.0 (step 0.2) with 60
//! random graphs per point on 20 processors, throughput `1/(10(ε+1))`:
//!
//! * panel (a) — latency bounds: {R-LTF, LTF} × {With 0 Crash, UpperBound};
//! * panel (b) — latency with crashes: {R-LTF, LTF} × {0, c} crashes
//!   (`c = 1` for ε = 1, `c = 2` for ε = 3);
//! * panel (c) — fault-tolerance overhead (%) against the fault-free
//!   reference schedule: `(L_algo − L_FF) / L_FF`.

use crate::checkpoint::run_journalled;
use crate::runner::{measure_instance, RunRecord};
use crate::stats::{Figure, Series, SeriesPoint};
use crate::workload::PaperWorkload;
use std::collections::HashMap;
use std::path::Path;

/// Sweep configuration (defaults = the paper's settings).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Random graphs per point; paper: 60.
    pub graphs_per_point: usize,
    /// Granularities; paper: 0.2, 0.4, …, 2.0.
    pub granularities: Vec<f64>,
    /// Crash draws per instance when measuring latency under failures.
    pub crash_draws: usize,
    /// Base seed; instance seeds derive deterministically from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Target utilization `U*` of the calibration (DESIGN.md §2.8).
    pub utilization: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            graphs_per_point: 60,
            granularities: (1..=10).map(|i| i as f64 * 0.2).collect(),
            crash_draws: 10,
            seed: 0xB10B,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            utilization: 0.25,
        }
    }
}

impl SweepConfig {
    /// A reduced sweep for tests and benches.
    pub fn quick(graphs_per_point: usize) -> Self {
        Self {
            graphs_per_point,
            granularities: vec![0.4, 1.0, 1.6],
            crash_draws: 4,
            ..Default::default()
        }
    }
}

/// Which panel of the figure to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// (a): guaranteed bound vs failure-free effective latency.
    Bounds,
    /// (b): effective latency with 0 vs `c` crashes.
    Crashes,
    /// (c): overhead (%) against the fault-free reference.
    Overhead,
}

/// Raw sweep output: all records grouped by granularity.
#[derive(Debug, Clone)]
pub struct SweepData {
    /// ε used for the sweep.
    pub epsilon: u8,
    /// Crash count `c` used for the crash columns.
    pub crashes: usize,
    /// `(granularity, records of every instance × algorithm)`.
    pub by_granularity: Vec<(f64, Vec<RunRecord>)>,
}

/// Run the full sweep for one ε. `crashes` follows the paper: 1 for ε = 1,
/// 2 for ε = 3 (pass explicitly for other settings).
pub fn sweep(epsilon: u8, crashes: usize, cfg: &SweepConfig) -> SweepData {
    sweep_checkpointed(epsilon, crashes, cfg, None).expect("no journal, no I/O to fail")
}

/// [`sweep`] with an optional `--checkpoint` journal: every completed
/// `(granularity, seed)` work item (its three records: LTF, R-LTF, FF) is
/// journalled as soon as its window completes, and a restart with the
/// same journal replays completed items instead of re-measuring them
/// (through [`run_journalled`]). Records are assembled in seed order per
/// granularity whether they were replayed or fresh, so a resumed sweep
/// produces the same `SweepData` as an uninterrupted one.
pub fn sweep_checkpointed(
    epsilon: u8,
    crashes: usize,
    cfg: &SweepConfig,
    journal: Option<&Path>,
) -> std::io::Result<SweepData> {
    // The key pins *every* parameter the measured records depend on (the
    // granularity value itself, not its sweep index, plus crash draws and
    // utilization; the seed already derives from cfg.seed): resuming with
    // a different configuration finds no matching keys and recomputes,
    // instead of silently replaying records measured under different
    // parameters.
    let keyed = |g: f64, seed: u64| {
        format!(
            "fig:eps={epsilon}:c={crashes}:g={g}:cd={}:u={}:seed={seed:#018x}",
            cfg.crash_draws, cfg.utilization
        )
    };
    let seeds_at = |gi: usize| -> Vec<u64> {
        (0..cfg.graphs_per_point)
            .map(|k| cfg.seed ^ (gi as u64) << 32 ^ (epsilon as u64) << 48 ^ k as u64)
            .collect()
    };
    let workloads: Vec<PaperWorkload> = cfg
        .granularities
        .iter()
        .map(|&granularity| PaperWorkload {
            epsilon,
            granularity,
            utilization: cfg.utilization,
            ..Default::default()
        })
        .collect();
    let items: Vec<(usize, u64)> = (0..cfg.granularities.len())
        .flat_map(|gi| seeds_at(gi).into_iter().map(move |s| (gi, s)))
        .collect();
    let mut done: HashMap<String, Vec<RunRecord>> = HashMap::new();
    run_journalled(
        &items,
        |&(gi, s)| keyed(cfg.granularities[gi], s),
        cfg.threads,
        journal,
        |&(gi, s)| measure_instance(&workloads[gi], s, crashes, cfg.crash_draws),
        |key, recs| {
            done.insert(key.to_string(), recs);
        },
    )?;
    let by_granularity = cfg
        .granularities
        .iter()
        .enumerate()
        .map(|(gi, &g)| {
            let recs = seeds_at(gi)
                .into_iter()
                .flat_map(|s| {
                    done.remove(&keyed(g, s))
                        .expect("every item ran or replayed")
                })
                .collect();
            (g, recs)
        })
        .collect();
    Ok(SweepData {
        epsilon,
        crashes,
        by_granularity,
    })
}

fn collect<'a>(recs: &'a [RunRecord], algo: &'a str) -> impl Iterator<Item = &'a RunRecord> + 'a {
    recs.iter().filter(move |r| r.algo == algo && r.feasible)
}

/// Build one panel from sweep data.
pub fn panel(data: &SweepData, panel: Panel) -> Figure {
    let eps = data.epsilon;
    let c = data.crashes;
    let mut series: Vec<Series> = Vec::new();

    let mut push_series = |name: String, f: &dyn Fn(&[RunRecord]) -> Vec<f64>| {
        let points = data
            .by_granularity
            .iter()
            .filter_map(|(g, recs)| SeriesPoint::from_sample(*g, &f(recs)))
            .collect();
        series.push(Series { name, points });
    };

    match panel {
        Panel::Bounds => {
            for algo in ["R-LTF", "LTF"] {
                push_series(format!("{algo} With 0 Crash"), &move |recs| {
                    collect(recs, algo).map(|r| r.latency_0).collect()
                });
                push_series(format!("{algo} UpperBound"), &move |recs| {
                    collect(recs, algo).map(|r| r.latency_ub).collect()
                });
            }
        }
        Panel::Crashes => {
            for algo in ["R-LTF", "LTF"] {
                push_series(format!("{algo} With 0 Crash"), &move |recs| {
                    collect(recs, algo).map(|r| r.latency_0).collect()
                });
                push_series(format!("{algo} With {c} Crash"), &move |recs| {
                    collect(recs, algo)
                        .filter_map(|r| r.latency_crash)
                        .collect()
                });
            }
        }
        Panel::Overhead => {
            for algo in ["R-LTF", "LTF"] {
                for crashed in [false, true] {
                    let label = if crashed {
                        format!("{algo} With {c} Crash")
                    } else {
                        format!("{algo} With 0 Crash")
                    };
                    push_series(label, &move |recs| {
                        // Pair each run with the fault-free reference of the
                        // same seed.
                        let mut out = Vec::new();
                        for r in collect(recs, algo) {
                            let Some(ff) = recs
                                .iter()
                                .find(|f| f.algo == "FF" && f.seed == r.seed && f.feasible)
                            else {
                                continue;
                            };
                            let l = if crashed {
                                match r.latency_crash {
                                    Some(l) => l,
                                    None => continue,
                                }
                            } else {
                                r.latency_0
                            };
                            if ff.latency_0 > 0.0 {
                                out.push(100.0 * (l - ff.latency_0) / ff.latency_0);
                            }
                        }
                        out
                    });
                }
            }
        }
    }

    let (suffix, ylabel, title) = match panel {
        Panel::Bounds => ("a", "Normalized Latency", "Latency bounds"),
        Panel::Crashes => ("b", "Normalized Latency", "Latency with crash"),
        Panel::Overhead => ("c", "Average Overhead (%)", "Fault tolerance overhead"),
    };
    let fignum = if eps == 1 { 3 } else { 4 };
    Figure {
        id: format!("fig{fignum}{suffix}"),
        title: format!("{title} (ε = {eps}, c = {c})"),
        xlabel: "Granularity".into(),
        ylabel: ylabel.into(),
        series,
    }
}

/// Fraction of instances each algorithm scheduled successfully, per
/// granularity — reported alongside the figures (the paper implies 100%).
pub fn feasibility(data: &SweepData) -> Figure {
    let mut series = Vec::new();
    for algo in ["R-LTF", "LTF", "FF"] {
        let points = data
            .by_granularity
            .iter()
            .filter_map(|(g, recs)| {
                let total = recs.iter().filter(|r| r.algo == algo).count();
                let ok = recs.iter().filter(|r| r.algo == algo && r.feasible).count();
                SeriesPoint::from_sample(
                    *g,
                    &[if total == 0 {
                        0.0
                    } else {
                        100.0 * ok as f64 / total as f64
                    }],
                )
            })
            .collect();
        series.push(Series {
            name: algo.to_string(),
            points,
        });
    }
    Figure {
        id: format!("feasibility_eps{}", data.epsilon),
        title: format!("Scheduling success rate (ε = {})", data.epsilon),
        xlabel: "Granularity".into(),
        ylabel: "Success (%)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep(epsilon: u8, crashes: usize) -> SweepData {
        let cfg = SweepConfig {
            graphs_per_point: 3,
            granularities: vec![0.6, 1.4],
            crash_draws: 2,
            threads: 4,
            ..Default::default()
        };
        sweep(epsilon, crashes, &cfg)
    }

    #[test]
    fn sweep_structure() {
        let data = tiny_sweep(1, 1);
        assert_eq!(data.by_granularity.len(), 2);
        for (_, recs) in &data.by_granularity {
            assert_eq!(recs.len(), 9); // 3 seeds × 3 algorithms
        }
    }

    #[test]
    fn panels_have_expected_series() {
        let data = tiny_sweep(1, 1);
        let a = panel(&data, Panel::Bounds);
        assert_eq!(a.id, "fig3a");
        assert_eq!(a.series.len(), 4);
        let b = panel(&data, Panel::Crashes);
        assert_eq!(b.series.len(), 4);
        assert!(b.series[1].name.contains("1 Crash"));
        let c = panel(&data, Panel::Overhead);
        assert_eq!(c.series.len(), 4);
        let feas = feasibility(&data);
        assert_eq!(feas.series.len(), 3);
    }

    #[test]
    fn rltf_no_worse_than_ltf_on_average() {
        let data = tiny_sweep(1, 1);
        let fig = panel(&data, Panel::Bounds);
        let rltf = &fig.series[0]; // R-LTF With 0 Crash
        let ltf = &fig.series[2]; // LTF With 0 Crash
        for (rp, lp) in rltf.points.iter().zip(&ltf.points) {
            assert!(
                rp.mean <= lp.mean * 1.25 + 1e-9,
                "R-LTF should not be far above LTF: {} vs {}",
                rp.mean,
                lp.mean
            );
        }
    }
}
