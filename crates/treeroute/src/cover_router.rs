//! Name-independent error-reporting routing on *cover trees* — the
//! paper's Lemma 7 (the AGM DISC'04 single-tree scheme with the
//! Lemma 5 labels).
//!
//! Unlike the Lemma 4 scheme (which trades a `j`-bounded search depth
//! against cost), this scheme pays a *fixed* cost of at most
//! `4·rad(T) + 2k·maxE(T)` per lookup, hit or miss:
//!
//! 1. climb from the source to the root (≤ rad);
//! 2. descend to the *directory node* at DFS position `h(target) mod m`
//!    (≤ rad along the path, plus at most `2·maxE` per B-tree sibling
//!    correction at high-degree nodes, at most `k` of them per such
//!    node — the `2k·maxE` term);
//! 3. the directory node stores the labels of every tree node hashing
//!    to its position: route to the target by label (≤ 2·rad), or — for
//!    unknown names — back to the source by the label carried in the
//!    header (≤ 2·rad), reporting failure.
//!
//! Per-node storage is O(σ·log² m) bits: two guide tables of ≤ s =
//! σ·⌈log m⌉ entries, the hash-bucket labels (expected O(1), verified
//! O(log m)), and the labeled-routing info.

use graphkit::bits::{bits_for_node, StorageCost};
use graphkit::ids::ceil_log2;
use graphkit::wire::{self, Reader, Writer};
use graphkit::{Cost, NodeId, Tree, TreeIx};
use std::io;

use crate::hashing::PolyHash;
use crate::labeled::{edge_weight_of, route_into, LabeledRead, LabeledTree};

/// Outcome of a cover-tree lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverOutcome {
    /// Delivered to the target at total weighted cost `cost`.
    Found {
        /// Total weighted cost of the walk.
        cost: Cost,
        /// Tree index of the delivery node.
        delivered_at: TreeIx,
    },
    /// Target not in this tree; the message returned to the source
    /// having paid `cost` (closed path).
    NotFound {
        /// Total cost of the closed path back to the source.
        cost: Cost,
    },
}

impl CoverOutcome {
    /// Total cost paid.
    pub fn cost(&self) -> Cost {
        match *self {
            CoverOutcome::Found { cost, .. } => cost,
            CoverOutcome::NotFound { cost } => cost,
        }
    }

    /// Did the lookup deliver?
    pub fn is_found(&self) -> bool {
        matches!(self, CoverOutcome::Found { .. })
    }
}

/// One level of a sibling-group guide: sampled boundaries over the DFS
/// range `[start, end)` this guide is responsible for. Build-time
/// scratch only — the frozen form lives in [`CoverTreeRouter`]'s arenas.
#[derive(Clone, Debug)]
struct Guide {
    start: u32,
    end: u32,
    entries: Vec<(u32, TreeIx)>,
}

/// Per-node build scratch of the Lemma 7 scheme (beyond `µ(T,u)`):
/// the allocation-per-node form the guide recursion naturally produces,
/// flattened into [`CoverTreeRouter`] CSR arenas before routing.
#[derive(Clone, Debug, Default)]
struct CoverNode {
    /// Sampled `(dfs_start, child)` boundaries over this node's children
    /// (≤ s entries; group leaders when the degree exceeds s).
    child_guide: Vec<(u32, TreeIx)>,
    /// Guides for each sibling group this node leads, one per nesting
    /// level (a group leader also leads its own sub-group, so the
    /// tightest guide covering a position always makes progress).
    sibling_guides: Vec<Guide>,
    /// Directory bucket: tree nodes whose hash position equals this
    /// node's DFS number (labels resolve through the shared hop arena).
    bucket: Vec<(u32, TreeIx)>,
}

/// A tree equipped with the Lemma 7 name-independent scheme: the
/// labeled tree plus every Lemma-7 table in CSR arenas (child guides,
/// sibling guides with a per-guide entry arena, directory buckets).
/// [`CoverTreeRouter::new`] builds the tables; a snapshot stores them
/// verbatim, so loading performs no guide or bucket rebuild.
#[derive(Clone, Debug)]
pub struct CoverTreeRouter {
    labeled: LabeledTree,
    hash: PolyHash,
    /// Guide fanout s = σ·⌈log m⌉.
    fanout: usize,
    /// Worst-case B-tree depth over all nodes (reported by experiments).
    max_guide_depth: u32,
    /// Child guides, CSR by tree index.
    cg_off: Vec<u32>,
    cg: Vec<(u32, TreeIx)>,
    /// Sibling guides: node `t` leads guides `sg_off[t]..sg_off[t+1]`;
    /// guide `i` covers DFS range `sg_bounds[i]` with entries
    /// `sge[sge_off[i]..sge_off[i+1]]`.
    sg_off: Vec<u32>,
    sg_bounds: Vec<(u32, u32)>,
    sge_off: Vec<u32>,
    sge: Vec<(u32, TreeIx)>,
    /// Directory buckets, CSR by tree index.
    bk_off: Vec<u32>,
    bk: Vec<(u32, TreeIx)>,
}

impl CoverTreeRouter {
    /// Build with fanout `s = max(2, σ·⌈log₂ m⌉)`.
    pub fn new(tree: Tree, sigma: u64, seed: u64) -> Self {
        let m = tree.size();
        let fanout = ((sigma as usize) * (ceil_log2(m.max(2) as u64) as usize).max(1)).max(2);
        let labeled = LabeledTree::new(tree);
        let hash = PolyHash::new(PolyHash::degree_for(m), seed);
        let mut b = CoverBuild { labeled, nodes: vec![CoverNode::default(); m], fanout };
        let max_guide_depth = b.build_guides();
        b.build_buckets(&hash);
        // Flatten the per-node scratch into the CSR arenas.
        let mut cg_off = vec![0u32; m + 1];
        let mut sg_off = vec![0u32; m + 1];
        let mut bk_off = vec![0u32; m + 1];
        let mut cg = Vec::new();
        let mut sg_bounds = Vec::new();
        let mut sge_off = vec![0u32];
        let mut sge = Vec::new();
        let mut bk = Vec::new();
        for (t, node) in b.nodes.into_iter().enumerate() {
            cg.extend_from_slice(&node.child_guide);
            cg_off[t + 1] = cg.len() as u32;
            for g in node.sibling_guides {
                sg_bounds.push((g.start, g.end));
                sge.extend_from_slice(&g.entries);
                sge_off.push(sge.len() as u32);
            }
            sg_off[t + 1] = sg_bounds.len() as u32;
            bk.extend_from_slice(&node.bucket);
            bk_off[t + 1] = bk.len() as u32;
        }
        CoverTreeRouter {
            labeled: b.labeled,
            hash,
            fanout,
            max_guide_depth,
            cg_off,
            cg,
            sg_off,
            sg_bounds,
            sge_off,
            sge,
            bk_off,
            bk,
        }
    }

    // lint:allow-fn(panic-free-serve): validate-then-index — from_wire checks the CSR offsets are monotone and in-bounds for every t < n
    fn child_guide(&self, t: TreeIx) -> &[(u32, TreeIx)] {
        &self.cg[self.cg_off[t as usize] as usize..self.cg_off[t as usize + 1] as usize]
    }

    /// Sibling guides led by `t`: `(dfs_start, dfs_end, entries)`.
    // lint:allow-fn(panic-free-serve): validate-then-index — from_wire checks sg_off/sge_off monotone and in-bounds for every t < n
    fn sibling_guides(&self, t: TreeIx) -> impl Iterator<Item = (u32, u32, &[(u32, TreeIx)])> {
        let (s, e) = (self.sg_off[t as usize] as usize, self.sg_off[t as usize + 1] as usize);
        (s..e).map(move |i| {
            let (start, end) = self.sg_bounds[i];
            (start, end, &self.sge[self.sge_off[i] as usize..self.sge_off[i + 1] as usize])
        })
    }

    // lint:allow-fn(panic-free-serve): validate-then-index — from_wire checks bk_off monotone and in-bounds for every t < n
    fn bucket(&self, t: TreeIx) -> &[(u32, TreeIx)] {
        &self.bk[self.bk_off[t as usize] as usize..self.bk_off[t as usize + 1] as usize]
    }

    /// Serialize the router as its record: the header (fanout, guide
    /// depth, hash coefficients), the labeled record
    /// ([`LabeledTree::to_wire`]), then every CSR arena verbatim.
    pub fn to_wire(&self, w: &mut Writer) {
        w.u64(self.fanout as u64);
        w.u32(self.max_guide_depth);
        w.slice_u64(self.hash.coeffs());
        self.labeled.to_wire(w);
        w.slice_u32(&self.cg_off);
        w.slice_pairs(&self.cg);
        w.slice_u32(&self.sg_off);
        w.slice_pairs(&self.sg_bounds);
        w.slice_u32(&self.sge_off);
        w.slice_pairs(&self.sge);
        w.slice_u32(&self.bk_off);
        w.slice_pairs(&self.bk);
    }

    /// Inverse of [`CoverTreeRouter::to_wire`] with CSR invariant checks.
    // lint:allow-fn(panic-free-serve): validate-then-index — CSR invariants are checked before the indexing passes below
    pub fn from_wire(r: &mut Reader) -> io::Result<Self> {
        use wire::invalid;
        let fanout = r.u64()? as usize;
        let max_guide_depth = r.u32()?;
        let hash = PolyHash::try_from_coeffs(r.slice_u64()?);
        let Some(hash) = hash.filter(|_| fanout >= 2) else {
            return Err(invalid("bad cover-store record header"));
        };
        let labeled = LabeledTree::from_wire(r)?;
        let m = labeled.size();
        let cg_off = r.slice_u32()?;
        let cg = r.slice_pairs()?;
        let sg_off = r.slice_u32()?;
        let sg_bounds = r.slice_pairs()?;
        let sge_off = r.slice_u32()?;
        let sge = r.slice_pairs()?;
        let bk_off = r.slice_u32()?;
        let bk = r.slice_pairs()?;
        let check_csr = |off: &[u32], len: usize, n: usize, what: &str| {
            if off.len() != n + 1
                || off[0] != 0
                || off[n] as usize != len
                || off.windows(2).any(|w| w[0] > w[1])
            {
                return Err(invalid(&format!("cover store {what} offsets corrupt")));
            }
            Ok(())
        };
        check_csr(&cg_off, cg.len(), m, "child-guide")?;
        check_csr(&sg_off, sg_bounds.len(), m, "sibling-guide")?;
        check_csr(&sge_off, sge.len(), sg_bounds.len(), "guide-entry")?;
        check_csr(&bk_off, bk.len(), m, "bucket")?;
        if cg.iter().chain(&sge).chain(&bk).any(|&(_, ix)| ix as usize >= m) {
            return Err(invalid("cover store entry out of range"));
        }
        Ok(CoverTreeRouter {
            labeled,
            hash,
            fanout,
            max_guide_depth,
            cg_off,
            cg,
            sg_off,
            sg_bounds,
            sge_off,
            sge,
            bk_off,
            bk,
        })
    }

    /// The underlying labeled scheme (and physical tree).
    pub fn labeled(&self) -> &LabeledTree {
        &self.labeled
    }

    /// Guide fanout s.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Deepest guide B-tree in this instance (1 = no grouping anywhere).
    pub fn max_guide_depth(&self) -> u32 {
        self.max_guide_depth
    }

    /// Lemma 7 cost budget for this tree: `4·rad(T) + 2k·maxE(T)` where
    /// `k` is the worst guide depth (≤ ⌈log_s(max degree)⌉).
    pub fn cost_budget(&self) -> Cost {
        let t = self.labeled.to_tree();
        4 * t.radius() + 2 * self.max_guide_depth.max(1) as u64 * t.max_edge()
    }

    /// Route from tree node `from` toward the network id `target`,
    /// using only per-node storage plus an O(log² n) header (the target
    /// id, the source label, and — once learned — the target label).
    /// Returns the outcome and the full node path walked. Corrupt
    /// tables (a guide that makes no progress, a step between
    /// non-adjacent nodes, a bucket entry that does not host the
    /// target) end the lookup as a miss, never a panic or a delivery
    /// to the wrong node.
    pub fn route(&self, from: TreeIx, target: NodeId) -> (CoverOutcome, Vec<TreeIx>) {
        let labeled = &self.labeled;
        let mut cost: Cost = 0;
        // lint:allow(no-alloc-in-route): the returned walk owns its path; one Vec per route is the API
        let mut path = vec![from];
        // Carried in the header; a source outside the tree is a miss.
        let Some(source_label) = labeled.label_of(from) else {
            return (CoverOutcome::NotFound { cost }, path);
        };
        let mut at = from;
        // Short-circuit: the source is the target.
        if labeled.host_of(at) == Some(target) {
            return (CoverOutcome::Found { cost: 0, delivered_at: at }, path);
        }
        // Phase 1: climb to the root.
        while let Some(p) = labeled.parent_of(at) {
            cost = cost.saturating_add(labeled.parent_weight_of(at));
            at = p;
            path.push(at);
        }
        // Phase 2: descend to the directory position. A node outside
        // the records means a corrupt guide arena: report a miss from
        // where we stand rather than panicking the server.
        // The DFS position responsible for the target id.
        let pos = (self.hash.eval(target.0 as u64) % labeled.size() as u64) as u32;
        let covers =
            |t: TreeIx| labeled.local_at(t).is_some_and(|l| pos >= l.dfs_in && pos < l.dfs_out);
        loop {
            let Some(me) = labeled.local_at(at) else {
                return (CoverOutcome::NotFound { cost }, path);
            };
            if me.dfs_in == pos {
                break;
            }
            debug_assert!(pos > me.dfs_in && pos < me.dfs_out, "descent left the interval");
            // Pick from my child guide the last boundary ≤ pos.
            let Some(mut next) = guide_pick(self.child_guide(at), pos) else {
                return (CoverOutcome::NotFound { cost }, path);
            };
            let Some(w) = edge_weight_of(labeled, at, next) else {
                return (CoverOutcome::NotFound { cost }, path);
            };
            cost = cost.saturating_add(w);
            let parent = at;
            path.push(next);
            // Sibling corrections while pos is not inside `next`'s subtree:
            // consult the *tightest* guide at `next` covering pos. A group
            // leader also leads its own sub-groups, so the tightest guide
            // never returns `next` itself — each correction strictly
            // descends one guide level, at most `max_guide_depth` times.
            // Corrupt sibling guides (no covering guide, no progress, a
            // non-edge, too many corrections) degrade like a missing
            // child guide.
            let mut guard = 0;
            while !covers(next) {
                let cand = self
                    .sibling_guides(next)
                    .filter(|&(start, end, _)| start <= pos && pos < end)
                    .min_by_key(|&(start, end, _)| end - start)
                    .and_then(|(_, _, entries)| guide_pick(entries, pos));
                let Some(cand) = cand.filter(|&c| c != next && guard <= self.max_guide_depth)
                else {
                    return (CoverOutcome::NotFound { cost }, path);
                };
                // Correction: next -> parent -> cand (2 edges).
                let (Some(up), Some(down)) =
                    (edge_weight_of(labeled, next, parent), edge_weight_of(labeled, parent, cand))
                else {
                    return (CoverOutcome::NotFound { cost }, path);
                };
                cost = cost.saturating_add(up).saturating_add(down);
                path.push(parent);
                path.push(cand);
                next = cand;
                guard += 1;
            }
            at = next;
        }
        // Phase 3: directory lookup. A bucket entry that does not host
        // the target is a corrupt directory: a miss, like an unknown name.
        let hit = self
            .bucket(at)
            .iter()
            .find(|(gid, _)| *gid == target.0)
            .map(|&(_, ix)| ix)
            .filter(|&ix| labeled.host_of(ix) == Some(target));
        // A bucket entry (or source header) whose label no longer
        // routes is a corrupt directory; every arm below degrades to a
        // miss instead of panicking.
        if let Some(ix) = hit {
            let walk =
                labeled.label_of(ix).and_then(|label| route_into(labeled, at, label, &mut path));
            return match walk {
                Some((delivered_at, c)) => {
                    cost = cost.saturating_add(c);
                    (CoverOutcome::Found { cost, delivered_at }, path)
                }
                None => (CoverOutcome::NotFound { cost }, path),
            };
        }
        // Unknown name: report failure back to the source using the
        // header's source label.
        if let Some((_, c)) = route_into(labeled, at, source_label, &mut path) {
            cost = cost.saturating_add(c);
        }
        (CoverOutcome::NotFound { cost }, path)
    }

    /// Storage bits of tree node `t` under this scheme (φ(T,t) in the
    /// paper's notation).
    pub fn node_bits(&self, t: TreeIx) -> u64 {
        let labeled = &self.labeled;
        let b = bits_for_node(labeled.size());
        let mut bits = labeled.local_bits(t) + self.hash.storage_bits();
        bits += self.child_guide(t).len() as u64 * 2 * b;
        for (_, _, entries) in self.sibling_guides(t) {
            bits += 2 * b + entries.len() as u64 * 2 * b;
        }
        for &(_, ix) in self.bucket(t) {
            bits += b + labeled.label_bits(ix);
        }
        // The header-resident source label is storage at the source too.
        bits + labeled.label_bits(t)
    }

    /// Largest directory bucket (w.h.p. O(log m / log log m)).
    pub fn max_bucket(&self) -> usize {
        self.bk_off.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }
}

/// Build-time state for [`CoverTreeRouter::new`]: the per-node scratch
/// soup the guide recursion produces, flattened afterwards.
struct CoverBuild {
    labeled: LabeledTree,
    nodes: Vec<CoverNode>,
    fanout: usize,
}

impl CoverBuild {
    /// Assign all guide tables; returns the worst B-tree depth.
    fn build_guides(&mut self) -> u32 {
        let order = self.labeled.order_by(|r| r.dfs_in);
        let mut max_guide_depth = 0;
        let mut kids: Vec<TreeIx> = Vec::new();
        for x in 0..self.labeled.size() as u32 {
            // Children sorted by dfs_in: DFS assigns contiguous
            // intervals, so the first child starts right after `x` and
            // each next one where the previous subtree ends.
            let me = self.labeled.local(x);
            kids.clear();
            let mut d = me.dfs_in + 1;
            while d < me.dfs_out {
                let c = order[d as usize];
                kids.push(c);
                d = self.labeled.local(c).dfs_out;
            }
            if kids.is_empty() {
                continue;
            }
            let depth = self.assign_guide_level(GuideOwner::Node(x), &kids, 1);
            max_guide_depth = max_guide_depth.max(depth);
        }
        max_guide_depth
    }

    /// Recursively spread the boundary table of `slice` (a run of
    /// siblings) over group leaders. Returns the B-tree depth used.
    fn assign_guide_level(&mut self, owner: GuideOwner, slice: &[TreeIx], level: u32) -> u32 {
        let entries: Vec<(u32, TreeIx)>;
        let mut max_depth = level;
        if slice.len() <= self.fanout {
            entries = slice.iter().map(|&c| (self.labeled.local(c).dfs_in, c)).collect();
        } else {
            // Split into `fanout` groups; record group leaders here and
            // recurse into each group via its leader.
            let group = slice.len().div_ceil(self.fanout);
            let mut leaders = Vec::new();
            for chunk in slice.chunks(group) {
                let leader = chunk[0];
                leaders.push((self.labeled.local(leader).dfs_in, leader));
                if chunk.len() > 1 {
                    let d = self.assign_guide_level(GuideOwner::Leader(leader), chunk, level + 1);
                    max_depth = max_depth.max(d);
                }
            }
            entries = leaders;
        }
        match owner {
            GuideOwner::Node(x) => self.nodes[x as usize].child_guide = entries,
            GuideOwner::Leader(l) => {
                // The DFS range this guide covers: from the first member's
                // subtree start to the last member's subtree end. (An
                // empty slice never recurses here; guard anyway.)
                if let (Some(&first), Some(&last)) = (slice.first(), slice.last()) {
                    let start = self.labeled.local(first).dfs_in;
                    let end = self.labeled.local(last).dfs_out;
                    self.nodes[l as usize].sibling_guides.push(Guide { start, end, entries });
                }
            }
        }
        max_depth
    }

    fn build_buckets(&mut self, hash: &PolyHash) {
        let m = self.labeled.size();
        let order = self.labeled.order_by(|r| r.dfs_in);
        for t in 0..m as u32 {
            let gid = self.labeled.graph_id(t).0;
            let pos = (hash.eval(gid as u64) % m as u64) as usize;
            let owner = order[pos];
            self.nodes[owner as usize].bucket.push((gid, t));
        }
    }
}

enum GuideOwner {
    Node(TreeIx),
    Leader(TreeIx),
}

/// Last guide entry with boundary ≤ pos.
fn guide_pick(guide: &[(u32, TreeIx)], pos: u32) -> Option<TreeIx> {
    let i = guide.partition_point(|&(b, _)| b <= pos);
    i.checked_sub(1).and_then(|j| guide.get(j)).map(|&(_, t)| t)
}

impl StorageCost for CoverTreeRouter {
    fn storage_bits(&self) -> u64 {
        (0..self.labeled.size() as u32).map(|t| self.node_bits(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::{self, WeightDist};
    use graphkit::{dijkstra, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spanning_tree(g: &Graph, root: NodeId) -> Tree {
        let sp = dijkstra::dijkstra(g, root);
        Tree::from_sssp(g, &sp, g.nodes())
    }

    fn check_all_lookups(r: &CoverTreeRouter) {
        let m = r.labeled().size() as u32;
        let budget = r.cost_budget();
        for from in 0..m {
            for t in 0..m {
                let target = r.labeled().graph_id(t);
                let (outcome, path) = r.route(from, target);
                match outcome {
                    CoverOutcome::Found { cost, delivered_at } => {
                        assert_eq!(delivered_at, t);
                        assert_eq!(*path.last().unwrap(), t);
                        assert!(cost <= budget, "cost {cost} > budget {budget} ({from}->{t})");
                    }
                    CoverOutcome::NotFound { .. } => panic!("missed in-tree node {t}"),
                }
            }
        }
    }

    fn check_misses(r: &CoverTreeRouter, absent: &[u32]) {
        let m = r.labeled().size() as u32;
        let budget = r.cost_budget();
        for &gid in absent {
            for from in (0..m).step_by(7) {
                let (outcome, path) = r.route(from, NodeId(gid));
                match outcome {
                    CoverOutcome::Found { .. } => panic!("found absent id {gid}"),
                    CoverOutcome::NotFound { cost } => {
                        assert_eq!(*path.last().unwrap(), from, "miss must return to source");
                        assert!(cost <= budget, "miss cost {cost} > budget {budget}");
                    }
                }
            }
        }
    }

    #[test]
    fn path_tree() {
        let g = gen::path(20, 3);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 3, 1);
        check_all_lookups(&r);
        check_misses(&r, &[500, 501]);
    }

    #[test]
    fn random_tree() {
        let mut rng = SmallRng::seed_from_u64(50);
        let g = gen::random_tree(90, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(4)), 3, 2);
        check_all_lookups(&r);
        check_misses(&r, &[7777]);
    }

    #[test]
    fn high_degree_star_exercises_guides() {
        // Star of degree 150 with sigma = 2: fanout = 2*8 = 16 < 150, so
        // descent must use sibling guides; the cost bound still holds.
        let g = gen::star(151, 4);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 2, 3);
        assert!(r.max_guide_depth() >= 2, "star must trigger grouped guides");
        check_all_lookups(&r);
        check_misses(&r, &[99999]);
    }

    #[test]
    fn caterpillar_tree() {
        let mut rng = SmallRng::seed_from_u64(51);
        let g = gen::caterpillar(10, 6, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 3, 4);
        check_all_lookups(&r);
    }

    #[test]
    fn deep_guides_only_when_needed() {
        let mut rng = SmallRng::seed_from_u64(52);
        let g = gen::random_tree(100, WeightDist::Unit, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 4, 5);
        // Random recursive trees have max degree ~log n < fanout.
        assert_eq!(r.max_guide_depth(), 1);
    }

    #[test]
    fn buckets_cover_every_node() {
        let mut rng = SmallRng::seed_from_u64(53);
        let g = gen::random_tree(120, WeightDist::Unit, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 3, 6);
        assert_eq!(r.bk.len(), 120);
        // Max load stays logarithmic-ish.
        assert!(r.max_bucket() <= 16, "bucket load {}", r.max_bucket());
    }

    #[test]
    fn store_wire_roundtrip_routes_identically() {
        // The star forces real sibling guides into the arenas.
        let g = gen::star(151, 4);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 2, 3);
        let mut w = Writer::new();
        r.to_wire(&mut w);
        let bytes = w.into_bytes();
        let r2 = CoverTreeRouter::from_wire(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(r2.fanout(), r.fanout());
        assert_eq!(r2.max_guide_depth(), r.max_guide_depth());
        assert_eq!(r2.max_bucket(), r.max_bucket());
        let m = r.labeled().size() as u32;
        for from in (0..m).step_by(13) {
            for t in (0..m).step_by(7) {
                let target = r.labeled().graph_id(t);
                assert_eq!(r2.route(from, target), r.route(from, target));
            }
            assert_eq!(r2.route(from, NodeId(99999)), r.route(from, NodeId(99999)));
            assert_eq!(r2.node_bits(from), r.node_bits(from));
        }
        // Truncations error rather than panic.
        for cut in [0, 5, bytes.len() / 3, bytes.len() - 1] {
            assert!(CoverTreeRouter::from_wire(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn rewritten_sibling_guides_never_panic_or_misdeliver() {
        // The star forces grouped sibling guides. Rewrite one guide entry
        // (its boundary or its tree index) at a time; every router the
        // decoder accepts must answer every lookup with a miss or a
        // delivery at the target's host — in debug and release builds.
        let g = gen::star(151, 4);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 2, 3);
        let m = r.labeled().size() as u32;
        assert!(!r.sge.is_empty(), "the star must have sibling guides");
        let mut accepted = 0;
        for i in 0..r.sge.len() {
            let (b, ix) = r.sge[i];
            let rewrites = [0, 1, ix.wrapping_sub(1), ix + 1, ix ^ 16, m - 1]
                .map(|v| (b, v))
                .into_iter()
                .chain([0, b.wrapping_sub(1), b + 1, u32::MAX].map(|v| (v, ix)))
                .filter(|&e| e != (b, ix));
            for entry in rewrites {
                let mut bad = r.clone();
                bad.sge[i] = entry;
                let mut w = Writer::new();
                bad.to_wire(&mut w);
                let Ok(bad) = CoverTreeRouter::from_wire(&mut Reader::new(&w.into_bytes())) else {
                    continue;
                };
                accepted += 1;
                for from in [0, 1, 75, 150] {
                    for t in (0..m).chain([m + 7]) {
                        if let (CoverOutcome::Found { delivered_at, .. }, _) =
                            bad.route(from, NodeId(t))
                        {
                            assert_eq!(
                                bad.labeled().host_of(delivered_at),
                                Some(NodeId(t)),
                                "sge[{i}] = {entry:?}: {from} -> {t}"
                            );
                        }
                    }
                }
            }
        }
        assert!(accepted > 0, "some rewrites must pass the decoder");
    }

    #[test]
    fn hash_coefficient_outside_the_field_is_rejected() {
        // Record header: fanout (u64), guide depth (u32), then the
        // length-prefixed coefficients — the first one at byte 20.
        let mut rng = SmallRng::seed_from_u64(55);
        let g = gen::random_tree(30, WeightDist::Unit, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 3, 9);
        let mut w = Writer::new();
        r.to_wire(&mut w);
        let mut bytes = w.into_bytes();
        assert!(CoverTreeRouter::from_wire(&mut Reader::new(&bytes)).is_ok());
        for bad in [u64::MAX, crate::hashing::FIELD_P] {
            bytes[20..28].copy_from_slice(&bad.to_le_bytes());
            assert!(CoverTreeRouter::from_wire(&mut Reader::new(&bytes)).is_err(), "{bad}");
        }
    }

    #[test]
    fn storage_within_lemma_bound() {
        // Lemma 7: O(k n^{1/k} log n) per node — ours is O(σ log² m);
        // assert with an explicit constant.
        let mut rng = SmallRng::seed_from_u64(54);
        let g = gen::random_tree(200, WeightDist::Unit, &mut rng);
        let sigma = 3u64;
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), sigma, 7);
        let log = ceil_log2(200) as u64;
        let bound = 64 * sigma * log * log;
        for t in 0..200u32 {
            assert!(r.node_bits(t) <= bound, "node {t}: {} > {bound}", r.node_bits(t));
        }
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::from_parents(vec![5], vec![u32::MAX], vec![0]);
        let r = CoverTreeRouter::new(t, 2, 8);
        let (outcome, _) = r.route(0, NodeId(5));
        assert_eq!(outcome, CoverOutcome::Found { cost: 0, delivered_at: 0 });
        let (outcome, _) = r.route(0, NodeId(9));
        assert_eq!(outcome, CoverOutcome::NotFound { cost: 0 });
    }
}
