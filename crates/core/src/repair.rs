//! Incremental repair: patch a built [`Scheme`] after a batch of
//! [`GraphDelta`]s instead of rebuilding it from scratch.
//!
//! ## Strategy (see DESIGN.md §"Churn & incremental repair")
//!
//! A repair is a build with a reuse oracle. The build's cost is wildly
//! skewed: at 50k nodes the per-center tree pipeline is ~96% of
//! assembly, while classification, S budgets, membership, `b(u,i)`,
//! and cover trees are a few percent combined. Repair therefore runs
//! the fresh build on the mutated graph — the cheap phases exactly as
//! a build runs them, which makes their output bit-identical to a
//! rebuild by construction — and, once membership is known, tells the
//! build's tail which expensive artifacts of the old scheme may stand
//! in for their rebuild:
//!
//! * **center trees** — a tree `T(c)` is reused iff `c` was a center
//!   before, its member list `(v, d(v, c))` is unchanged, and every
//!   changed edge sits strictly outside the tree's Dijkstra radius
//!   `R(c)` on both the old and new graph
//!   (`prox(c) > R(c)`, where `prox` is the distance from `c` to the
//!   nearest changed-edge endpoint). Under those conditions the
//!   bounded run never relaxes a changed edge, so the fresh tree —
//!   and its Lemma 4 scheme, seeded by `c` alone — is bit-identical
//!   to the stored one. A stored tree that can no longer be read is
//!   rebuilt;
//! * **cover trees** — a dense scale's whole cover collection is
//!   reused iff its extended-range member set is unchanged and no
//!   changed edge has both endpoints inside it (then the induced
//!   subgraph, and hence the deterministic cover construction, is
//!   identical).
//!
//! Everything else — storage bits and label sizes of every tree,
//! `b(u,i)` with its Lemma 3 check for every sparse pair, the stats —
//! comes out of the same tail code a fresh build runs.
//!
//! Change detection is exact, not heuristic: `graphkit::delta_impact`
//! compares per-endpoint distance columns on the two final graphs,
//! and a node outside its dirty set provably has its *entire*
//! distance vector unchanged — hence the same decomposition row,
//! landmark lists, centers, and sorted positions. This is what makes
//! `repair ≡ rebuild` hold bit-for-bit (asserted across families,
//! `k`, and store types by `tests/repair_parity.rs`).
//!
//! ## Residue cases
//!
//! Repair declines in a few documented situations instead of risking
//! a wrong patch: a scheme without retained
//! [`crate::SchemeParams::repairable`] state, a greedy (matrix-bound)
//! hierarchy, or a delta batch after which the seeded hierarchy
//! re-verification picks a different landmark set — each falls back
//! to a full rebuild and says so. A batch that leaves the graph
//! disconnected is *deferred*: the scheme is left untouched (stale),
//! and the caller accumulates deltas until connectivity returns —
//! `core::churn` leans on this for node-leave/join epochs.

use decomposition::Decomposition;
use graphkit::{apply_deltas, delta_impact, dijkstra, GraphDelta, NodeId, INFINITY};
use landmarks::LandmarkHierarchy;

use crate::scheme::{HierarchySource, Prepared, Reuse, ScaleCover, Scheme};

/// Why repair declined to patch and rebuilt the scheme from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// The scheme carries no repair state — built without
    /// [`crate::SchemeParams::repairable`] or loaded from a snapshot (which
    /// never serializes it). The rebuild turns `repairable` on, so
    /// subsequent repairs are incremental.
    NotPrepared,
    /// Greedy hierarchies are matrix-bound; the matrix-free repair
    /// machinery cannot reproduce them incrementally.
    GreedyHierarchy,
    /// Re-verifying the seeded landmark hierarchy on the mutated graph
    /// selected a different landmark set (a different sampling attempt
    /// passed Claims 1–2), so every center assignment is suspect and
    /// reuse potential is nil.
    HierarchyChanged,
}

/// Why repair touched nothing at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeferReason {
    /// The mutated graph is disconnected — the Theorem 1 scheme is
    /// only defined on connected graphs. The scheme is unchanged (its
    /// routes are now stale); accumulate further deltas and repair
    /// again once connectivity returns.
    Disconnected,
}

/// Patch statistics for a successful incremental repair.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Distinct edges changed by the delta batch.
    pub changed_edges: usize,
    /// Nodes whose distance vector changed (the exact invalidation
    /// set; everything outside it kept its build state verbatim).
    pub dirty_nodes: usize,
    /// Distinct centers after repair.
    pub centers_total: usize,
    /// Center trees rebuilt (members or nearby edges changed).
    pub trees_rebuilt: usize,
    /// Center trees reused bit-identically.
    pub trees_reused: usize,
    /// Centers that exist now but not before.
    pub centers_added: usize,
    /// Centers that existed before but not now.
    pub centers_removed: usize,
    /// Dense scales whose cover collections were rebuilt.
    pub scales_rebuilt: usize,
    /// Dense scales whose cover collections were reused.
    pub scales_reused: usize,
    /// Sparse `(u, i)` pairs whose `b(u,i)` was derived — every one:
    /// repair runs the build's whole `b(u,i)` pass, so the Lemma 3
    /// counters in [`crate::BuildStats`] equal a fresh build's.
    pub b_recomputed: usize,
    /// Wall-clock seconds for the whole repair.
    pub seconds: f64,
}

/// What [`Scheme::repair`] did.
#[derive(Clone, Debug)]
pub enum RepairOutcome {
    /// The scheme was patched in place — bit-identical to a fresh
    /// build on the mutated graph.
    Repaired(RepairReport),
    /// A residue case forced a full rebuild (the scheme is still
    /// correct and current — just not incrementally so).
    RebuiltFull {
        /// Which residue case fired.
        reason: RebuildReason,
        /// Wall-clock seconds for the rebuild.
        seconds: f64,
    },
    /// The scheme was left untouched and is now stale.
    Deferred {
        /// Why nothing could be done yet.
        reason: DeferReason,
    },
}

impl Scheme {
    /// Apply `deltas` to the underlying graph and bring the scheme up
    /// to date, reusing every center tree and cover collection the
    /// batch provably left untouched. On return (except
    /// [`RepairOutcome::Deferred`]) the scheme routes exactly like a
    /// fresh build on the mutated graph.
    ///
    /// Panics on malformed deltas (failing a missing edge, restoring a
    /// present one — see [`GraphDelta`]): delta bookkeeping is the
    /// caller's contract, not a recoverable condition.
    pub fn repair(&mut self, deltas: &[GraphDelta]) -> RepairOutcome {
        let t0 = std::time::Instant::now();
        if deltas.is_empty() {
            return RepairOutcome::Repaired(RepairReport {
                centers_total: self.stats.num_center_trees,
                trees_reused: self.stats.num_center_trees,
                scales_reused: self.stats.num_scales,
                seconds: t0.elapsed().as_secs_f64(),
                ..Default::default()
            });
        }
        let g2 = apply_deltas(&self.g, deltas);
        if dijkstra(&g2, NodeId(0)).dist.contains(&INFINITY) {
            return RepairOutcome::Deferred { reason: DeferReason::Disconnected };
        }
        // Rebuilds keep (or gain) repair state so the *next* repair
        // can be incremental.
        let mut params = self.params;
        params.repairable = true;
        if self.params.hierarchy == HierarchySource::Greedy {
            *self = Scheme::build(g2, params);
            return RepairOutcome::RebuiltFull {
                reason: RebuildReason::GreedyHierarchy,
                seconds: t0.elapsed().as_secs_f64(),
            };
        }
        let Some(state) = self.repair_state.as_ref() else {
            *self = Scheme::build_on_demand(g2, params);
            return RepairOutcome::RebuiltFull {
                reason: RebuildReason::NotPrepared,
                seconds: t0.elapsed().as_secs_f64(),
            };
        };

        // ---- fresh cheap phases on the mutated graph -----------------
        let k = params.k;
        let diameter2 = graphkit::diameter_matrix_free(&g2);
        let dec2 = Decomposition::build_on_demand_with_diameter(&g2, k, diameter2);
        let (hier2, ld2) = LandmarkHierarchy::sample_verified_on_demand(
            &g2,
            k,
            params.seed,
            params.landmark_attempts,
            diameter2,
        );
        if hier2.levels() != self.hier.levels() {
            *self = Scheme::build_on_demand_parts(g2, params, dec2, hier2, ld2, |_| None).0;
            return RepairOutcome::RebuiltFull {
                reason: RebuildReason::HierarchyChanged,
                seconds: t0.elapsed().as_secs_f64(),
            };
        }
        let impact = delta_impact(&self.g, &g2, deltas);

        // ---- cover collections that may stand in for a rebuild -------
        // Reusable iff the extended-range member set is unchanged
        // (clean nodes keep their decomposition row; dirty ones are
        // checked explicitly) and no changed edge lies inside it —
        // then the induced subgraph, and the deterministic cover
        // construction seeded by (s, tree index), are identical.
        let changed_pairs: Vec<(NodeId, NodeId)> = {
            let mut ps: Vec<(u32, u32)> = deltas
                .iter()
                .map(|d| {
                    let (u, v) = d.endpoints();
                    (u.0.min(v.0), u.0.max(v.0))
                })
                .collect();
            ps.sort_unstable();
            ps.dedup();
            ps.into_iter().map(|(u, v)| (NodeId(u), NodeId(v))).collect()
        };
        let old_dec = &self.dec;
        let covers: Vec<ScaleCover> = std::mem::take(&mut self.scale_covers)
            .into_iter()
            .filter(|sc| {
                let s = sc.scale;
                impact.dirty_nodes.iter().all(|&v| {
                    old_dec.in_extended_range(NodeId(v), s) == dec2.in_extended_range(NodeId(v), s)
                }) && changed_pairs
                    .iter()
                    .all(|&(p, q)| !(dec2.in_extended_range(p, s) && dec2.in_extended_range(q, s)))
            })
            .collect();

        // ---- the build, with center trees classified for reuse -------
        // The build runs the bounded (matrix-free) tree pipeline; for
        // dense-built schemes this is bit-identical output (the same
        // dense ≡ on-demand invariant tests/proptest_on_demand.rs
        // asserts for whole builds).
        let store = &self.center_store;
        let (mut centers_added, mut centers_removed, mut b_recomputed) = (0, 0, 0);
        let oracle = |p: &Prepared| {
            let trees = p
                .centers
                .iter()
                .enumerate()
                .map(|(ci, &c)| {
                    let mem = p.members.members(ci);
                    match state.centers.binary_search(&c) {
                        Ok(oci) if state.members.members(oci) == mem => {
                            let r = mem.iter().map(|&(_, d)| d).max().unwrap_or(0);
                            impact.old_prox[c as usize] > r && impact.new_prox[c as usize] > r
                        }
                        Ok(_) => false,
                        Err(_) => {
                            centers_added += 1;
                            false
                        }
                    }
                })
                .collect();
            centers_removed =
                state.centers.iter().filter(|c| p.centers.binary_search(c).is_err()).count();
            b_recomputed = p.plans.iter().flatten().filter(|plan| !plan.dense).count();
            Some(Reuse { store, trees, covers })
        };
        let (scheme, reused) = Scheme::build_on_demand_parts(g2, params, dec2, hier2, ld2, oracle);
        *self = scheme;
        let st = &self.stats;
        RepairOutcome::Repaired(RepairReport {
            changed_edges: changed_pairs.len(),
            dirty_nodes: impact.dirty_nodes.len(),
            centers_total: st.num_center_trees,
            trees_rebuilt: st.num_center_trees - reused.trees,
            trees_reused: reused.trees,
            centers_added,
            centers_removed,
            scales_rebuilt: st.num_scales - reused.scales,
            scales_reused: reused.scales,
            b_recomputed,
            seconds: t0.elapsed().as_secs_f64(),
        })
    }
}
