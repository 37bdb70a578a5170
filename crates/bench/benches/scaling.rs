//! Algorithm-runtime scaling (Theorem 1): scheduling time against the task
//! count `v` (with `e ≈ 2v`), the processor count `m`, and the replication
//! degree `ε`. The paper bounds LTF by
//! `O(e·m·(ε+1)²·log(ε+1) + v·log ω)`.

use criterion::{black_box, BenchmarkId, Criterion};
use ltf_bench::quick_criterion;
use ltf_core::{AlgoConfig, Heuristic, Ltf, PreparedInstance, Rltf};
use ltf_experiments::workload::{gen_instance, PaperWorkload};

fn bench_axis<F: Fn(u64) -> PaperWorkload>(
    c: &mut Criterion,
    group_name: &str,
    params: &[u64],
    make: F,
) {
    let mut group = c.benchmark_group(group_name);
    for &param in params {
        let wl = make(param);
        let inst = gen_instance(&wl, 0xBEEF ^ param);
        let algos: [(&str, &dyn Heuristic); 2] = [("LTF", &Ltf), ("R-LTF", &Rltf)];
        for (label, h) in algos {
            let cfg = AlgoConfig::new(wl.epsilon, inst.period).seeded(1);
            group.bench_with_input(BenchmarkId::new(label, param), &param, |b, _| {
                b.iter(|| {
                    // Lazy instance: the level caches (and, for R-LTF, the
                    // reversal) are derived inside the timed region.
                    let prep =
                        PreparedInstance::new(black_box(&inst.graph), black_box(&inst.platform));
                    h.schedule(&prep, black_box(&cfg)).ok()
                })
            });
        }
    }
    group.finish();
}

fn main() {
    let mut c: Criterion = quick_criterion();
    bench_axis(&mut c, "scaling_tasks", &[50, 100, 200, 500, 1000], |v| {
        PaperWorkload {
            tasks: (v as usize, v as usize),
            epsilon: 1,
            granularity: 1.0,
            ..Default::default()
        }
    });
    bench_axis(&mut c, "scaling_procs", &[10, 20, 40], |m| PaperWorkload {
        tasks: (100, 100),
        procs: m as usize,
        epsilon: 1,
        granularity: 1.0,
        ..Default::default()
    });
    bench_axis(&mut c, "scaling_epsilon", &[0, 1, 2, 3], |e| {
        PaperWorkload {
            tasks: (100, 100),
            epsilon: e as u8,
            granularity: 1.0,
            ..Default::default()
        }
    });
    c.final_summary();
}
