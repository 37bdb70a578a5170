//! Design ablations: what Rule 1, Rule 2, the one-to-one procedure, the
//! clustering tie-break, and the chunked selection each buy. Prints the
//! full ablation tables (ε = 1 and ε = 3), then times representative
//! variants.

use criterion::{black_box, Criterion};
use ltf_bench::quick_criterion;
use ltf_core::{AlgoConfig, Heuristic, Ltf, PreparedInstance, Rltf};
use ltf_experiments::ablation::{ablation, table, AblationConfig};
use ltf_experiments::workload::{gen_instance, PaperWorkload};

fn print_reproduction() {
    for eps in [1u8, 3] {
        let cfg = AblationConfig {
            epsilon: eps,
            instances: 12,
            ..Default::default()
        };
        eprintln!("\n=== ablation (ε = {eps}, 12 instances) ===");
        eprint!("{}", table(&ablation(&cfg)));
    }
    eprintln!();
}

fn main() {
    print_reproduction();
    let mut c: Criterion = quick_criterion();
    let wl = PaperWorkload::paper(1, 1.0);
    let inst = gen_instance(&wl, 7);

    let mut group = c.benchmark_group("ablation");
    type Tweak = fn(&mut AlgoConfig);
    let variants: Vec<(&str, &dyn Heuristic, Tweak)> = vec![
        ("rltf_full", &Rltf, |_| {}),
        ("rltf_no_rule1", &Rltf, |c| c.rule1 = false),
        ("rltf_no_cluster", &Rltf, |c| c.cluster_ties = false),
        ("ltf_full", &Ltf, |_| {}),
        ("ltf_chunk1", &Ltf, |c| c.chunk_size = Some(1)),
    ];
    for (name, h, tweak) in variants {
        let mut cfg = AlgoConfig::new(1, inst.period).seeded(7);
        tweak(&mut cfg);
        group.bench_function(name, |b| {
            b.iter(|| {
                let prep = PreparedInstance::new(black_box(&inst.graph), black_box(&inst.platform));
                h.schedule(&prep, black_box(&cfg)).ok()
            })
        });
    }
    group.finish();
    c.final_summary();
}
