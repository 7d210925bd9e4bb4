//! Spill-store parity: a scheme whose center trees were streamed to
//! the spill file and reloaded at route time must behave identically
//! to the all-resident scheme — the wire round-trip preserves the
//! Lemma 4 machinery bit for bit.

mod common;

use std::path::PathBuf;

use common::assert_same_scheme;
use graphkit::gen::Family;
use graphkit::metrics::apsp;
use graphkit::NodeId;
use routing_core::{SBudgetMode, Scheme, SchemeParams};
use sim::{evaluate, pairs, RouteTrace, Router};

/// A snapshot path in the system temp dir, removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        TempPath(
            std::env::temp_dir().join(format!("agm-spill-parity-{}-{tag}.bin", std::process::id())),
        )
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn same_trace(a: &RouteTrace, b: &RouteTrace) -> bool {
    (a.delivered, a.cost, &a.path) == (b.delivered, b.cost, &b.path)
}

#[test]
fn spilled_scheme_routes_identically() {
    for fam in [Family::Geometric, Family::ExpRing, Family::PrefAttach] {
        let g = fam.generate(130, 0x5111);
        let d = apsp(&g);
        for k in [1usize, 2, 3] {
            let params = SchemeParams::new(k, 0x5111);
            let resident = Scheme::build_with_matrix(g.clone(), &d, params);
            let spilled = Scheme::build_with_matrix(g.clone(), &d, params.with_spill());
            // Storage accounting never touches the store, so it must
            // be identical however the trees are held.
            let label = format!("{} k={k}", fam.label());
            assert_same_scheme(&label, &spilled, &resident, 250, 0x5112);
        }
    }
}

#[test]
fn spilled_scheme_survives_parallel_evaluation() {
    // Every evaluator thread fetches spilled records into its own
    // buffer; hammer the store from the parallel evaluator and check
    // the aggregate stats match the sequential engine bit for bit.
    let g = Family::Geometric.generate(120, 0x5113);
    let d = apsp(&g);
    let scheme =
        Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(3, 0x5113).with_spill());
    let workload = pairs::sample(g.n(), 400, 0x5114);
    let seq = evaluate(&g, &d, &scheme, &workload);
    let par = scheme.evaluate(&d, &workload, 4);
    assert_eq!(seq.pairs, par.pairs);
    assert_eq!(seq.failures, 0);
    assert_eq!(seq.failures, par.failures);
    assert_eq!(seq.max_stretch.to_bits(), par.max_stretch.to_bits());
    assert_eq!(seq.mean_stretch.to_bits(), par.mean_stretch.to_bits());
}

#[test]
fn spill_composes_with_on_demand_and_per_node_budgets() {
    // The full matrix-free stack: on-demand build, per-node budgets,
    // spilled trees — against the plain resident dense build.
    let g = Family::ExpRing.generate(100, 0x5115);
    let d = apsp(&g);
    let base = SchemeParams::new(2, 0x5115).with_s_budget_mode(SBudgetMode::PerNode);
    let resident = Scheme::build_with_matrix(g.clone(), &d, base);
    let spilled_od = Scheme::build_on_demand(g.clone(), base.with_spill());
    assert_same_scheme("on-demand spilled per-node", &spilled_od, &resident, 250, 0x5116);
}

#[test]
fn lazy_and_spilled_stores_route_identically_from_many_threads() {
    // Each thread routes an interleaved share of the pairs through the
    // spilled and the lazily loaded store at once, so every thread's
    // fetch buffer flips between stores and centers; every walk must
    // match the resident build's.
    let g = Family::PrefAttach.generate(130, 0x5117);
    let d = apsp(&g);
    let params = SchemeParams::new(2, 0x5117);
    let resident = Scheme::build_with_matrix(g.clone(), &d, params);
    let spilled = Scheme::build_with_matrix(g.clone(), &d, params.with_spill());
    let path = TempPath::new("threads");
    resident.save(&path.0).expect("save");
    let lazy = Scheme::load_lazy(&path.0).expect("load_lazy");
    let work = pairs::sample(g.n(), 600, 0x5118);
    let expected: Vec<RouteTrace> = work.iter().map(|&(s, t)| resident.route(s, t)).collect();
    for threads in [1usize, 2, 4] {
        let mismatches: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|tid| {
                    let (work, expected, spilled, lazy) = (&work, &expected, &spilled, &lazy);
                    scope.spawn(move || {
                        (tid..work.len())
                            .step_by(threads)
                            .filter(|&i| {
                                let (s, t) = work[i];
                                !same_trace(&spilled.route(s, t), &expected[i])
                                    || !same_trace(&lazy.route(s, t), &expected[i])
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).sum()
        });
        assert_eq!(mismatches, 0, "threads={threads}");
    }
}

#[test]
fn two_lazy_schemes_alternate_on_one_thread() {
    // Two schemes over one graph share most center ids but not their
    // trees. Alternating between them on one thread must never serve
    // one scheme's record to the other from the thread's buffer.
    let g = Family::Geometric.generate(120, 0x5119);
    let d = apsp(&g);
    let a = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(2, 0x5119));
    let b = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(2, 0x511A));
    let (pa, pb) = (TempPath::new("alt-a"), TempPath::new("alt-b"));
    a.save(&pa.0).expect("save a");
    b.save(&pb.0).expect("save b");
    let lazy_a = Scheme::load_lazy(&pa.0).expect("load a");
    let lazy_b = Scheme::load_lazy(&pb.0).expect("load b");
    let mut differ = 0usize;
    for (s, t) in pairs::sample(g.n(), 300, 0x511B) {
        let (ta, tb) = (a.route(s, t), b.route(s, t));
        differ += usize::from(!same_trace(&ta, &tb));
        // Same pair twice per scheme: the repeat reuses the buffer.
        for _ in 0..2 {
            assert!(same_trace(&lazy_a.route(s, t), &ta), "scheme a {s}->{t}");
            assert!(same_trace(&lazy_b.route(s, t), &tb), "scheme b {s}->{t}");
        }
    }
    assert!(differ > 0, "the two schemes must route differently somewhere");
    // Self-routes and out-of-range ids touch no tree and stay harmless.
    assert!(lazy_a.route(NodeId(3), NodeId(3)).delivered);
    assert!(!lazy_b.route(NodeId(g.n() as u32), NodeId(0)).delivered);
}
