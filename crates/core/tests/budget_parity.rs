//! Per-node S budgets: the per-node mode must stay a correct routing
//! scheme with no more storage than the global one, and build the same
//! scheme from the dense and the matrix-free sources.

mod common;

use common::assert_same_scheme;
use graphkit::gen::WeightDist;
use graphkit::metrics::apsp;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_core::{SBudgetMode, Scheme, SchemeParams};
use sim::{pairs, validate_trace, Router};

fn arb_connected() -> impl Strategy<Value = (graphkit::Graph, usize, u64)> {
    (20usize..90, 1usize..4, any::<u64>(), 0u32..30).prop_map(|(n, k, seed, wexp)| {
        let mut rng = SmallRng::seed_from_u64(seed);
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

    /// Genuinely per-node budgets: still a valid scheme (all sampled
    /// pairs delivered over physical walks, zero Lemma 3 violations),
    /// and never more total landmark storage than the global budgets.
    #[test]
    fn per_node_budgets_stay_correct_and_no_larger((g, k, seed) in arb_connected()) {
        let d = apsp(&g);
        if !d.connected() { return Ok(()); }
        let params = SchemeParams::new(k, seed ^ 0xB1D);
        let global = Scheme::build_with_matrix(g.clone(), &d, params);
        let tuned = Scheme::build_with_matrix(
            g.clone(),
            &d,
            params.with_s_budget_mode(SBudgetMode::PerNode),
        );
        prop_assert_eq!(tuned.stats().lemma3_violations, 0);
        // Per-node requirements are pointwise ≤ the global level max,
        // so membership (and hence landmark storage) can only shrink.
        prop_assert!(tuned.stats().total_members <= global.stats().total_members);
        let lm_global: u64 = g.nodes().map(|v| global.storage_breakdown(v).landmark_bits).sum();
        let lm_tuned: u64 = g.nodes().map(|v| tuned.storage_breakdown(v).landmark_bits).sum();
        prop_assert!(
            lm_tuned <= lm_global,
            "per-node landmark bits {} exceed global {}", lm_tuned, lm_global
        );
        for (s, t) in pairs::sample(g.n(), 200, seed ^ 0x44) {
            let trace = tuned.route(s, t);
            prop_assert!(trace.delivered, "{}->{} undelivered", s, t);
            prop_assert!(validate_trace(&g, s, t, &trace).is_ok(), "{}->{} invalid walk", s, t);
        }
    }
}

/// Per-node budgets agree between the dense and matrix-free builds —
/// the same source-parity guarantee the default mode has.
#[test]
fn per_node_on_demand_matches_matrix_build() {
    use graphkit::gen::Family;
    for fam in [Family::Geometric, Family::ExpRing] {
        let g = fam.generate(110, 0xB07);
        let d = apsp(&g);
        for k in [2usize, 3] {
            let params = SchemeParams::new(k, 0xB07).with_s_budget_mode(SBudgetMode::PerNode);
            let dense = Scheme::build_with_matrix(g.clone(), &d, params);
            let od = Scheme::build_on_demand(g.clone(), params);
            assert_same_scheme(&format!("{} k={k}", fam.label()), &od, &dense, 200, 0xB08);
        }
    }
}
