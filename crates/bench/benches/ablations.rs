//! Criterion bench for the A1 ablations: full GTS vs each design decision
//! toggled off.

use criterion::{criterion_group, criterion_main, Criterion};
use gts_bench::experiments::ablations::variants;
use gts_bench::workload::{defaults, Workload};
use gts_bench::{AnyIndex, Config, Method};
use metric_space::DatasetKind;

fn bench(c: &mut Criterion) {
    let cfg = Config::tiny();
    let data = cfg.dataset(DatasetKind::Words);
    let workload = Workload::new(&data, 8, &cfg);
    let queries = workload.queries_n(16);
    let radii = vec![workload.radius(defaults::R); 16];
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    for (name, params) in variants() {
        let dev = cfg.device();
        let idx = AnyIndex::build(Method::Gts, &dev, &data, &cfg, params)
            .expect("build")
            .index;
        let label = name.replace([' ', '(', ')'], "_");
        group.bench_function(format!("mrq/{label}"), |b| {
            b.iter(|| idx.batch_range(&queries, &radii).expect("mrq"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
