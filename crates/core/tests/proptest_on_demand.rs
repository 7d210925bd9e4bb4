//! Parity of the matrix-free construction: `Scheme::build_on_demand`
//! must produce the *same scheme* as `Scheme::build_with_matrix` —
//! identical per-node storage breakdowns, identical build diagnostics,
//! and identical routed paths/stretch — on random weighted graphs
//! across the aspect-ratio range.

mod common;

use common::assert_same_scheme;
use graphkit::gen::WeightDist;
use graphkit::metrics::apsp;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_core::{Scheme, SchemeParams};
use sim::{pairs, Router};

fn arb_connected() -> impl Strategy<Value = (graphkit::Graph, usize, u64)> {
    (20usize..90, 1usize..4, any::<u64>(), 0u32..30).prop_map(|(n, k, seed, wexp)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Random tree backbone (connected by construction) + extras;
        // power-of-two weights sweep Δ up to 2^30.
        let mut g =
            graphkit::gen::random_tree(n, WeightDist::PowerOfTwo { max_exp: wexp }, &mut rng);
        if n >= 30 {
            g = graphkit::gen::erdos_renyi(
                n,
                0.08,
                WeightDist::PowerOfTwo { max_exp: wexp },
                &mut rng,
            );
        }
        (g, k, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The acceptance-criteria parity: identical `StorageBreakdown`
    /// totals at every node, identical tuned budgets and Lemma 3
    /// counts, and identical routed stretch on sampled pairs.
    #[test]
    fn on_demand_scheme_matches_matrix_build((g, k, seed) in arb_connected()) {
        let d = apsp(&g);
        if !d.connected() { return Ok(()); }
        let params = SchemeParams::new(k, seed ^ 0xABCD);
        let dense = Scheme::build_with_matrix(g.clone(), &d, params);
        let od = Scheme::build_on_demand(g.clone(), params);

        // Identical diagnostics, storage at every node (component by
        // component), and walks on sampled pairs — hence identical
        // stretch against any truth.
        assert_same_scheme(&format!("k={k} seed={seed:#x}"), &od, &dense, 200, seed ^ 0x77);
    }
}

#[test]
fn on_demand_matches_on_families() {
    use graphkit::gen::Family;
    for fam in [Family::Geometric, Family::ExpRing, Family::PrefAttach, Family::Grid] {
        let g = fam.generate(100, 0xFEED);
        let d = apsp(&g);
        for k in [1usize, 2, 3] {
            let params = SchemeParams::new(k, 0xFEED);
            let dense = Scheme::build_with_matrix(g.clone(), &d, params);
            let od = Scheme::build_on_demand(g.clone(), params);
            assert_eq!(dense.stats().s_budgets, od.stats().s_budgets, "{} k={k}", fam.label());
            let total_dense: u64 = g.nodes().map(|v| dense.storage_bits(v)).sum();
            let total_od: u64 = g.nodes().map(|v| od.storage_bits(v)).sum();
            assert_eq!(total_dense, total_od, "{} k={k}", fam.label());
            let stats_dense = sim::evaluate(&g, &d, &dense, &pairs::sample(g.n(), 300, 5));
            let stats_od = sim::evaluate(&g, &d, &od, &pairs::sample(g.n(), 300, 5));
            assert_eq!(stats_dense.failures, 0, "{} k={k}", fam.label());
            assert_eq!(stats_od.failures, 0, "{} k={k}", fam.label());
            assert_eq!(
                stats_dense.max_stretch.to_bits(),
                stats_od.max_stretch.to_bits(),
                "{} k={k}",
                fam.label()
            );
            assert_eq!(
                stats_dense.mean_stretch.to_bits(),
                stats_od.mean_stretch.to_bits(),
                "{} k={k}",
                fam.label()
            );
        }
    }
}

#[test]
fn on_demand_forced_modes_match() {
    use graphkit::gen::Family;
    use routing_core::ForceMode;
    let g = Family::ErdosRenyi.generate(80, 0xF0);
    let d = apsp(&g);
    for mode in [ForceMode::AllSparse, ForceMode::AllDense] {
        let params = SchemeParams::new(2, 0xF0).with_force_mode(mode);
        let dense = Scheme::build_with_matrix(g.clone(), &d, params);
        let od = Scheme::build_on_demand(g.clone(), params);
        for v in g.nodes() {
            assert_eq!(dense.storage_bits(v), od.storage_bits(v), "{mode:?} at {v}");
        }
        for (s, t) in pairs::sample(g.n(), 150, 0xF1) {
            let ta = dense.route(s, t);
            let tb = od.route(s, t);
            assert_eq!((ta.delivered, ta.cost), (tb.delivered, tb.cost), "{mode:?} {s}->{t}");
        }
    }
}

#[test]
#[should_panic(expected = "connected")]
fn on_demand_rejects_disconnected() {
    let g = graphkit::graph_from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
    let _ = Scheme::build_on_demand(g, SchemeParams::new(2, 1));
}

#[test]
#[should_panic(expected = "sampled-verified")]
fn on_demand_rejects_greedy_hierarchy() {
    let g = graphkit::gen::Family::Ring.generate(20, 3);
    let _ = Scheme::build_on_demand(g, SchemeParams::new(2, 1).with_greedy_landmarks());
}
