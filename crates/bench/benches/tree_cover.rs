//! Criterion bench for experiment L6: sparse tree cover construction
//! and the Lemma 7 router lookups over its trees.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::gen::Family;
use graphkit::metrics::apsp;
use graphkit::NodeId;
use treeroute::cover_router::CoverTreeRouter;

fn cover_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemma6/build");
    group.sample_size(10);
    for n in [128usize, 512] {
        let g = Family::Geometric.generate(n, 5);
        let d = apsp(&g);
        let rho = (d.diameter() / 8).max(1);
        group.bench_with_input(BenchmarkId::from_parameter(format!("n{n}")), &n, |b, _| {
            b.iter(|| std::hint::black_box(covers::build_cover(&g, 3, rho)));
        });
    }
    group.finish();
}

fn cover_lookup(c: &mut Criterion) {
    let g = Family::Geometric.generate(512, 6);
    let d = apsp(&g);
    let cover = covers::build_cover(&g, 3, (d.diameter() / 4).max(1));
    // Largest tree carries the representative lookup load.
    let tree = cover.trees.iter().max_by_key(|t| t.size()).unwrap().clone();
    let m = tree.size() as u32;
    let router = CoverTreeRouter::new(tree, 3, 7);
    c.bench_function("lemma7/lookup", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % m;
            let target = router.labeled().graph_id(i);
            std::hint::black_box(router.route(0, target))
        });
    });
    c.bench_function("lemma7/miss", |b| {
        b.iter(|| std::hint::black_box(router.route(0, NodeId(9_999_999))));
    });
}

criterion_group!(benches, cover_build, cover_lookup);
criterion_main!(benches);
