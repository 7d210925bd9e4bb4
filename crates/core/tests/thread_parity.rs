//! Thread-count independence of the parallel construction pipeline:
//! every phase merges its chunks in deterministic order, so a build
//! under any `set_max_threads` cap is bit-identical to the sequential
//! one — same per-node storage breakdowns, same diagnostics, same
//! routed walks. The serving side is held to the same bar: lazy and
//! spilled stores serve and evaluate like the resident one at any
//! thread count.
//!
//! `set_max_threads` is process-global, so this lives in its own
//! integration-test binary and runs as a single test function.

mod common;

use common::assert_same_scheme;
use graphkit::gen::Family;
use graphkit::metrics::{apsp, set_max_threads};
use routing_core::{serve_batch, Scheme, SchemeParams};
use sim::pairs;

#[test]
fn builds_are_bit_identical_at_any_thread_count() {
    // 1 vs 4 vs 7: single-chunk, even split, and a count that leaves a
    // ragged final chunk (the merge-order edge case).
    for fam in [Family::Geometric, Family::ExpRing, Family::PrefAttach] {
        let g = fam.generate(140, 0x5eed);
        let d = apsp(&g);
        for k in [2usize, 3] {
            let params = SchemeParams::new(k, 0x5eed);
            set_max_threads(1);
            let seq_dense = Scheme::build_with_matrix(g.clone(), &d, params);
            let seq_od = Scheme::build_on_demand(g.clone(), params);
            for threads in [4usize, 7] {
                set_max_threads(threads);
                let par_dense = Scheme::build_with_matrix(g.clone(), &d, params);
                assert_same_scheme(
                    &format!("{} k={k} dense x{threads}", fam.label()),
                    &par_dense,
                    &seq_dense,
                    250,
                    0x7E57,
                );
                let par_od = Scheme::build_on_demand(g.clone(), params);
                assert_same_scheme(
                    &format!("{} k={k} on-demand x{threads}", fam.label()),
                    &par_od,
                    &seq_od,
                    250,
                    0x7E57,
                );
            }
            set_max_threads(0);
        }
    }
    stores_agree_under_serve_batch_and_evaluate();
}

/// A `load_lazy` scheme and a `with_spill()` scheme serve and evaluate
/// exactly like the resident scheme at 1, 2 and 4 threads: the same
/// delivered counts and bit-identical stretch statistics.
fn stores_agree_under_serve_batch_and_evaluate() {
    let g = Family::PrefAttach.generate(140, 0x5eee);
    let d = apsp(&g);
    let params = SchemeParams::new(2, 0x5eee);
    let resident = Scheme::build_with_matrix(g.clone(), &d, params);
    let spilled = Scheme::build_with_matrix(g.clone(), &d, params.with_spill());
    let path = std::env::temp_dir().join(format!("agm-thread-parity-{}.bin", std::process::id()));
    resident.save(&path).expect("save");
    let lazy = Scheme::load_lazy(&path).expect("load_lazy");
    let _ = std::fs::remove_file(&path);
    let work = pairs::sample(g.n(), 500, 0x5eef);
    for threads in [1usize, 2, 4] {
        let base = resident.evaluate(&d, &work, threads);
        let served = serve_batch(&resident, &work, threads).delivered;
        for (label, other) in [("lazy", &lazy), ("spilled", &spilled)] {
            let ev = other.evaluate(&d, &work, threads);
            let tag = format!("{label} x{threads}");
            assert_eq!((ev.pairs, ev.failures), (base.pairs, base.failures), "{tag}");
            assert_eq!(ev.max_stretch.to_bits(), base.max_stretch.to_bits(), "{tag}");
            assert_eq!(ev.mean_stretch.to_bits(), base.mean_stretch.to_bits(), "{tag}");
            assert_eq!(serve_batch(other, &work, threads).delivered, served, "{tag}");
        }
    }
}
