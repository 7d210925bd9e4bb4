//! The differential harness shared by the core parity suites (builders,
//! thread counts, stores, snapshots, budgets, repair): one definition
//! of "the same scheme", so no suite checks less than the others.

use routing_core::Scheme;
use sim::{pairs, Router};

/// Assert that `got` is the same scheme as `want`: identical per-node
/// storage, component by component; the same header bound and
/// decomposition aspect; the same build stats, Lemma 3 counters and
/// S budgets included; and the same walk — delivery, cost and path —
/// on `pair_count` pairs sampled with `pair_seed`.
pub fn assert_same_scheme(
    label: &str,
    got: &Scheme,
    want: &Scheme,
    pair_count: usize,
    pair_seed: u64,
) {
    let n = want.graph().n();
    assert_eq!(got.graph().n(), n, "{label}: node count");
    for v in want.graph().nodes() {
        let (a, b) = (got.storage_breakdown(v), want.storage_breakdown(v));
        assert_eq!(a.plans_bits, b.plans_bits, "{label}: plans bits at {v}");
        assert_eq!(a.landmark_bits, b.landmark_bits, "{label}: landmark bits at {v}");
        assert_eq!(a.cover_bits, b.cover_bits, "{label}: cover bits at {v}");
    }
    assert_eq!(got.header_bits_bound(), want.header_bits_bound(), "{label}: header bound");
    assert_eq!(got.decomposition().log_delta(), want.decomposition().log_delta(), "{label}: log Δ");
    let (gs, ws) = (got.stats(), want.stats());
    assert_eq!(gs.s_budgets, ws.s_budgets, "{label}: S budgets");
    for (what, a, b) in [
        ("lemma 3 checked", gs.lemma3_checked, ws.lemma3_checked),
        ("lemma 3 violations", gs.lemma3_violations, ws.lemma3_violations),
        ("center trees", gs.num_center_trees, ws.num_center_trees),
        ("members", gs.total_members, ws.total_members),
        ("scales", gs.num_scales, ws.num_scales),
        ("cover trees", gs.num_cover_trees, ws.num_cover_trees),
    ] {
        assert_eq!(a, b, "{label}: {what}");
    }
    for (s, t) in pairs::sample(n, pair_count, pair_seed) {
        let (ta, tb) = (got.route(s, t), want.route(s, t));
        assert_eq!(
            (ta.delivered, ta.cost, &ta.path),
            (tb.delivered, tb.cost, &tb.path),
            "{label}: {s}->{t}"
        );
    }
}
