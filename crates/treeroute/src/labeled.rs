//! Labeled (topology-dependent-name) tree routing — the paper's Lemma 5
//! (Fraigniaud–Gavoille ICALP'01, Thorup–Zwick SPAA'01).
//!
//! Given a rooted weighted tree, every node gets a *label*; a message
//! carrying the destination label is forwarded along the unique tree
//! path using only the local node's O(log n)-bit routing info plus the
//! label. Our variant is the heavy-path scheme:
//!
//! * nodes are numbered by heavy-first DFS, so each subtree is a
//!   contiguous interval;
//! * per-node info `µ(T,u)`: own interval, heavy-child interval, light
//!   depth — O(log n) bits;
//! * label `λ(T,v)`: v's DFS number plus one entry per *light* edge on
//!   the root→v path — O(log² n) bits worst case.
//!
//! Lemma 5 as stated trades storage `O(m^{1/k} log m)` against labels
//! `O(k log m)`; our point on the frontier has strictly smaller storage
//! (`O(log m)`) and `O(log² m)` labels, which keeps every storage bound
//! downstream within Theorem 1's `O(k² n^{1/k} log³ n)` (see DESIGN.md).
//!
//! ## One layout
//!
//! A tree is one 64-byte [`NodeRec`] row per node plus one shared
//! label-hop arena, in memory and on the wire alike: a record is the
//! node count, the rows as [`NodeRec::to_le_bytes`] writes them, and the
//! length-prefixed hop arena. [`LabeledTree`] owns decoded rows;
//! [`LabeledView`] reads the same rows in place from record bytes. Both
//! implement [`LabeledRead`] — a row accessor and a hop accessor — and
//! every per-field read is a provided method over those two, so the
//! routing code and the field logic exist once.

use graphkit::bits::{bits_for_node, StorageCost};
use graphkit::wire::{self, PairView, Reader, Writer};
use graphkit::{Cost, NodeId, Tree, TreeIx, Weight};
use std::borrow::Borrow;
use std::io;

/// One light edge on the root→v path: the light child entered, plus its
/// DFS number (used to sanity-check foreign labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LightHop {
    /// DFS number of the light child entered.
    pub child_dfs: u32,
    /// Physical port: the tree index of that child.
    pub child: TreeIx,
}

/// Destination label `λ(T,v)`, owned. Inside a [`LabeledTree`] labels
/// live in one contiguous hop arena and are handed out as borrowing
/// [`LabelRef`]s; this owned form exists for callers that persist a
/// label beyond the tree's lifetime (message headers, baselines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteLabel {
    /// DFS number of the destination.
    pub dfs: u32,
    /// Light edges on the root→destination path, in order.
    pub light_path: Vec<LightHop>,
}

impl RouteLabel {
    /// Borrow as a [`LabelRef`] for routing calls.
    pub fn as_ref(&self) -> LabelRef<'_> {
        LabelRef { dfs: self.dfs, light_path: &self.light_path }
    }
}

/// Borrowed destination label: a view into the tree's shared hop arena
/// (or into an owned [`RouteLabel`]). `Copy`, 16 bytes — routing with
/// one allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelRef<'a> {
    /// DFS number of the destination.
    pub dfs: u32,
    /// Light edges on the root→destination path, in order.
    pub light_path: &'a [LightHop],
}

impl LabelRef<'_> {
    /// Copy into an owned [`RouteLabel`].
    pub fn to_owned(self) -> RouteLabel {
        RouteLabel { dfs: self.dfs, light_path: self.light_path.to_vec() }
    }
}

/// Read access to a destination label, wherever its hops live.
pub trait LabelRead: Copy {
    /// DFS number of the destination.
    fn dfs(&self) -> u32;
    /// Light hop `i` of the root→destination path, if the path has one.
    fn hop(&self, i: u32) -> Option<LightHop>;
}

impl LabelRead for LabelRef<'_> {
    #[inline]
    fn dfs(&self) -> u32 {
        self.dfs
    }

    #[inline]
    fn hop(&self, i: u32) -> Option<LightHop> {
        self.light_path.get(i as usize).copied()
    }
}

/// Read access to a labeled tree: its node rows and its label-hop
/// arena, the one surface the routing algorithms ([`step_toward`],
/// [`route_into`]) run against. [`LabeledTree`] implements it over its
/// owned rows and [`LabeledView`] over record bytes read in place;
/// every per-field read is a provided method, written once over the
/// two accessors. Every accessor is total: an index out of range is
/// `None` (or weight 0), never a panic.
pub trait LabeledRead {
    /// A row as [`LabeledRead::row`] hands it out: a reference to an
    /// owned row, or a row decoded from record bytes.
    type Row<'a>: Borrow<NodeRec>
    where
        Self: 'a;
    /// Number of tree nodes.
    fn size(&self) -> usize;
    /// The row of tree node `t`.
    fn row(&self, t: TreeIx) -> Option<Self::Row<'_>>;
    /// Entry `i` of the label-hop arena.
    fn hop(&self, i: u32) -> Option<LightHop>;

    /// Host-graph id of tree node `t`.
    #[inline]
    fn host_of(&self, t: TreeIx) -> Option<NodeId> {
        self.row(t).map(|r| NodeId(r.borrow().host))
    }

    /// Parent of `t` (`None` at the root).
    #[inline]
    fn parent_of(&self, t: TreeIx) -> Option<TreeIx> {
        self.row(t)?.borrow().parent()
    }

    /// Weight of the edge from `t` to its parent.
    #[inline]
    fn parent_weight_of(&self, t: TreeIx) -> Weight {
        self.row(t).map_or(0, |r| r.borrow().weight)
    }

    /// Routing info `µ(T,t)`.
    #[inline]
    fn local_at(&self, t: TreeIx) -> Option<NodeLocal> {
        self.row(t).map(|r| r.borrow().local())
    }

    /// Label `λ(T,t)`: `None` when `t` is out of range or its hop run
    /// leaves the arena.
    #[inline]
    fn label_of(&self, t: TreeIx) -> Option<TreeLabel<'_, Self>> {
        let row = self.row(t)?;
        let r = row.borrow();
        let (lo, hi) = r.label_range()?;
        if hi > lo {
            self.hop(hi - 1)?;
        }
        Some(TreeLabel { dfs: r.dfs_in, lo, hi, tree: self })
    }
}

/// A label handed out by [`LabeledRead::label_of`]: the destination's
/// DFS number and its run `[lo, hi)` of the tree's hop arena.
pub struct TreeLabel<'a, S: ?Sized> {
    dfs: u32,
    lo: u32,
    hi: u32,
    tree: &'a S,
}

impl<S: ?Sized> Clone for TreeLabel<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ?Sized> Copy for TreeLabel<'_, S> {}

impl<S: LabeledRead + ?Sized> LabelRead for TreeLabel<'_, S> {
    #[inline]
    fn dfs(&self) -> u32 {
        self.dfs
    }

    #[inline]
    fn hop(&self, i: u32) -> Option<LightHop> {
        if i >= self.hi - self.lo {
            return None;
        }
        self.tree.hop(self.lo + i)
    }
}

/// Per-node routing information `µ(T,u)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeLocal {
    /// Own DFS number (= interval start).
    pub dfs_in: u32,
    /// Interval end, exclusive: the subtree of `u` is `[dfs_in, dfs_out)`.
    pub dfs_out: u32,
    /// Heavy child's `(dfs_in, dfs_out, tree index)`, absent at leaves.
    pub heavy: Option<(u32, u32, TreeIx)>,
    /// Number of light edges on the root→u path.
    pub light_depth: u32,
}

/// Outcome of a single local forwarding decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The current node is the destination.
    Deliver,
    /// Forward to this tree neighbor.
    Forward(TreeIx),
    /// The label does not belong to this tree (or is corrupt).
    NotInTree,
}

/// One tree node's row: everything the labeled walk, the climb to the
/// root and the Lemma-4 search read at a node, packed into one 64-byte
/// cache line — so a hop touches one line per node. The same 64 bytes,
/// little-endian and in field order ([`NodeRec::to_le_bytes`]), are the
/// node's row in a stored record. The directory ranges (`nc`, `hd`)
/// and the distance rank are filled by the Lemma-4 tree
/// ([`crate::laing::ErrorReportingTree`]); other trees leave them zero.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeRec {
    /// Weight of the edge to the parent (0 at the root).
    pub(crate) weight: Weight,
    /// Host-graph id.
    pub(crate) host: u32,
    /// Parent tree index (`u32::MAX` at the root).
    pub(crate) parent: TreeIx,
    /// Own DFS number; the subtree is `[dfs_in, dfs_out)`.
    pub(crate) dfs_in: u32,
    pub(crate) dfs_out: u32,
    /// The heavy child's interval and tree index (`u32::MAX` index,
    /// zero interval, at leaves).
    pub(crate) heavy_in: u32,
    pub(crate) heavy_out: u32,
    pub(crate) heavy: TreeIx,
    /// Light edges on the root→node path; the node's label is
    /// `light_hops[light_off..light_off + light_depth]`.
    pub(crate) light_depth: u32,
    pub(crate) light_off: u32,
    /// Lemma-4 item (2) row: `nc[nc_lo..nc_hi]`.
    pub(crate) nc_lo: u32,
    pub(crate) nc_hi: u32,
    /// Lemma-4 item (3) row: `hd[hd_lo..hd_hi]`.
    pub(crate) hd_lo: u32,
    pub(crate) hd_hi: u32,
    /// Distance rank from the root (Lemma-4 naming order).
    pub(crate) rank: u32,
}

/// Bytes of one encoded [`NodeRec`].
pub const ROW_BYTES: usize = 64;

const _: () = assert!(
    std::mem::size_of::<NodeRec>() == ROW_BYTES && std::mem::align_of::<NodeRec>() == ROW_BYTES
);

impl NodeRec {
    /// The row's wire form: `weight` as a little-endian `u64` at byte 0,
    /// then every `u32` field in declaration order from byte 8 on.
    pub fn to_le_bytes(&self) -> [u8; ROW_BYTES] {
        let words = [
            self.host,
            self.parent,
            self.dfs_in,
            self.dfs_out,
            self.heavy_in,
            self.heavy_out,
            self.heavy,
            self.light_depth,
            self.light_off,
            self.nc_lo,
            self.nc_hi,
            self.hd_lo,
            self.hd_hi,
            self.rank,
        ];
        let mut b = [0u8; ROW_BYTES];
        let (weight, rest) = b.split_at_mut(8);
        weight.copy_from_slice(&self.weight.to_le_bytes());
        for (slot, word) in rest.chunks_exact_mut(4).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        b
    }

    /// Inverse of [`NodeRec::to_le_bytes`].
    #[inline]
    pub fn from_le_bytes(b: &[u8; ROW_BYTES]) -> NodeRec {
        let word = |i: usize| {
            let at = 8 + 4 * i;
            b.get(at..at + 4).and_then(|w| w.try_into().ok()).map_or(0, u32::from_le_bytes)
        };
        NodeRec {
            weight: b.first_chunk().map_or(0, |w| u64::from_le_bytes(*w)),
            host: word(0),
            parent: word(1),
            dfs_in: word(2),
            dfs_out: word(3),
            heavy_in: word(4),
            heavy_out: word(5),
            heavy: word(6),
            light_depth: word(7),
            light_off: word(8),
            nc_lo: word(9),
            nc_hi: word(10),
            hd_lo: word(11),
            hd_hi: word(12),
            rank: word(13),
        }
    }

    /// Parent tree index, `None` at the root.
    #[inline]
    pub fn parent(&self) -> Option<TreeIx> {
        (self.parent != u32::MAX).then_some(self.parent)
    }

    /// Routing info `µ(T,u)` of this node.
    #[inline]
    pub fn local(&self) -> NodeLocal {
        NodeLocal {
            dfs_in: self.dfs_in,
            dfs_out: self.dfs_out,
            heavy: (self.heavy != u32::MAX).then_some((self.heavy_in, self.heavy_out, self.heavy)),
            light_depth: self.light_depth,
        }
    }

    /// This node's label run `[lo, hi)` in the hop arena, `None` if the
    /// end overflows.
    #[inline]
    pub fn label_range(&self) -> Option<(u32, u32)> {
        Some((self.light_off, self.light_off.checked_add(self.light_depth)?))
    }
}

/// Reset `seen` to an `m`-bit set with no bit marked, keeping its
/// allocation: the scratch of a record's permutation checks.
pub(crate) fn clear_marks(seen: &mut Vec<u64>, m: usize) {
    seen.clear();
    seen.resize(m.div_ceil(64), 0);
}

/// Mark `i` in the `m`-bit set `seen`: false when `i ≥ m` or `i` was
/// already marked.
pub(crate) fn mark(seen: &mut [u64], m: usize, i: u32) -> bool {
    let bit = 1u64.wrapping_shl(i % 64);
    match seen.get_mut(i as usize / 64) {
        Some(w) if (i as usize) < m && *w & bit == 0 => {
            *w |= bit;
            true
        }
        _ => false,
    }
}

/// A tree equipped with the labeled routing scheme: one [`NodeRec`]
/// per tree node, in tree-index order, plus the shared label-hop arena.
/// The rows carry the physical tree too (host id, parent, weight), so
/// no separate [`Tree`] is kept; [`LabeledTree::to_tree`] rebuilds one
/// for the few callers off the route path that need it.
///
/// Labels are stored flat: each node's label is a contiguous run of
/// `light_hops` starting at its row's `light_off` — two allocations per
/// tree regardless of size, and a node's label is a 16-byte
/// [`LabelRef`] view.
#[derive(Clone, Debug)]
pub struct LabeledTree {
    pub(crate) nodes: Vec<NodeRec>,
    pub(crate) light_hops: Vec<LightHop>,
}

impl LabeledTree {
    /// Preprocess `tree` for labeled routing, consuming it: its shape
    /// lives on in the node records. O(m) time.
    pub fn new(tree: Tree) -> Self {
        let m = tree.size();
        // Subtree sizes by iterative post-order.
        let mut sizes = vec![1u32; m];
        let order = post_order(&tree);
        for &t in &order {
            if let Some(p) = tree.parent(t) {
                sizes[p as usize] += sizes[t as usize];
            }
        }
        // Heavy child per node: max subtree size, ties to smaller index.
        let mut heavy_child: Vec<Option<TreeIx>> = vec![None; m];
        for t in 0..m as u32 {
            let mut best: Option<TreeIx> = None;
            for &c in tree.children(t) {
                let better = match best {
                    None => true,
                    Some(b) => {
                        sizes[c as usize] > sizes[b as usize]
                            || (sizes[c as usize] == sizes[b as usize] && c < b)
                    }
                };
                if better {
                    best = Some(c);
                }
            }
            heavy_child[t as usize] = best;
        }
        // Exact capacity: resident stores keep every tree's records.
        let mut nodes: Vec<NodeRec> = (0..m as u32)
            .map(|t| NodeRec {
                weight: tree.parent_weight(t),
                host: tree.graph_id(t).0,
                parent: tree.parent(t).unwrap_or(u32::MAX),
                heavy: u32::MAX,
                ..NodeRec::default()
            })
            .collect();
        // Heavy-first DFS: assign dfs_in/out and light depths. Light
        // paths are NOT materialized per node here; they land in one
        // shared arena below.
        let mut counter: u32 = 0;
        // Stack carries (node, light depth).
        let mut stack: Vec<(TreeIx, u32)> = vec![(tree.root(), 0)];
        while let Some((t, ld)) = stack.pop() {
            nodes[t as usize].dfs_in = counter;
            nodes[t as usize].light_depth = ld;
            counter += 1;
            // Push children: light ones (reverse order) then heavy, so the
            // heavy child is visited first and gets dfs_in + 1.
            let hc = heavy_child[t as usize];
            let mut lights: Vec<TreeIx> =
                tree.children(t).iter().copied().filter(|&c| Some(c) != hc).collect();
            lights.sort_unstable_by(|a, b| b.cmp(a)); // reversed push order
            for c in lights {
                stack.push((c, ld + 1));
            }
            if let Some(h) = hc {
                stack.push((h, ld));
            }
        }
        debug_assert_eq!(counter as usize, m);
        // dfs_out by post-order accumulation: out = max over subtree + 1.
        for r in nodes.iter_mut() {
            r.dfs_out = r.dfs_in + 1;
        }
        for &t in &order {
            if let Some(p) = tree.parent(t) {
                nodes[p as usize].dfs_out =
                    nodes[p as usize].dfs_out.max(nodes[t as usize].dfs_out);
            }
        }
        // Fill heavy intervals, and the label offsets: path length ==
        // light_depth, so the offsets are a prefix sum.
        let mut off = 0u32;
        for t in 0..m {
            if let Some(h) = heavy_child[t] {
                let hr = nodes[h as usize];
                (nodes[t].heavy_in, nodes[t].heavy_out, nodes[t].heavy) =
                    (hr.dfs_in, hr.dfs_out, h);
            }
            nodes[t].light_off = off;
            off += nodes[t].light_depth;
        }
        // Light-path arena: a node's path is its parent's path plus one
        // hop if the edge from the parent is light. Fill parent before
        // child (preorder walk): copy the parent's run, then append the
        // light hop.
        let mut light_hops = vec![LightHop { child_dfs: 0, child: 0 }; off as usize];
        let mut walk = vec![tree.root()];
        while let Some(t) = walk.pop() {
            let r = nodes[t as usize];
            let (ps, pe) = (r.light_off as usize, (r.light_off + r.light_depth) as usize);
            for &c in tree.children(t) {
                let cs = nodes[c as usize].light_off as usize;
                light_hops.copy_within(ps..pe, cs);
                if heavy_child[t as usize] != Some(c) {
                    light_hops[cs + (pe - ps)] =
                        LightHop { child_dfs: nodes[c as usize].dfs_in, child: c };
                }
                walk.push(c);
            }
        }
        LabeledTree { nodes, light_hops }
    }

    /// Serialize as the tree's record: the node count, every row as
    /// [`NodeRec::to_le_bytes`] writes it, and the length-prefixed hop
    /// arena of `(child_dfs, child)` pairs. [`LabeledView`] reads the
    /// record in place.
    pub fn to_wire(&self, w: &mut Writer) {
        w.len(self.nodes.len());
        for r in &self.nodes {
            w.bytes(&r.to_le_bytes());
        }
        w.len(self.light_hops.len());
        for h in &self.light_hops {
            w.u32(h.child_dfs);
            w.u32(h.child);
        }
    }

    /// Inverse of [`LabeledTree::to_wire`]: the record is read in place
    /// and validated ([`LabeledView::validate`]) before a single row is
    /// decoded, so a corrupt record errors instead of leaving
    /// out-of-bounds indices for the read path to trip over.
    pub fn from_wire(r: &mut Reader) -> io::Result<Self> {
        let view = LabeledView::read(r).map_err(wire::invalid)?;
        view.validate(&mut Vec::new()).map_err(wire::invalid)?;
        Ok(Self::from_view(view))
    }

    /// Copy a validated view's rows and hop arena out: one
    /// [`NodeRec::from_le_bytes`] per row, nothing recomputed.
    pub(crate) fn from_view(view: LabeledView<'_>) -> Self {
        LabeledTree {
            nodes: view.rows.iter().map(NodeRec::from_le_bytes).collect(),
            light_hops: view
                .hops
                .iter()
                .map(|(child_dfs, child)| LightHop { child_dfs, child })
                .collect(),
        }
    }

    /// `order[key(row t)]` = `t`: the tree indices ordered by a row
    /// field that numbers the nodes (`dfs_in`, or the Lemma-4 rank).
    pub(crate) fn order_by(&self, key: fn(&NodeRec) -> u32) -> Vec<TreeIx> {
        let mut order = vec![0 as TreeIx; self.nodes.len()];
        for (t, r) in self.nodes.iter().enumerate() {
            if let Some(slot) = order.get_mut(key(r) as usize) {
                *slot = t as TreeIx;
            }
        }
        order
    }

    /// Rebuild the physical tree from the records. O(m) and allocating:
    /// for analysis and tests, never the route path.
    pub fn to_tree(&self) -> Tree {
        let nodes = &self.nodes;
        Tree::from_parents(
            nodes.iter().map(|r| r.host).collect(),
            nodes.iter().map(|r| r.parent).collect(),
            nodes.iter().map(|r| r.weight).collect(),
        )
    }

    /// Host-graph id of tree node `t`.
    pub fn graph_id(&self, t: TreeIx) -> NodeId {
        NodeId(self.nodes[t as usize].host)
    }

    /// Label of tree node `t`: a zero-copy view into the hop arena.
    pub fn label(&self, t: TreeIx) -> LabelRef<'_> {
        let r = &self.nodes[t as usize];
        let a = r.light_off as usize;
        LabelRef { dfs: r.dfs_in, light_path: &self.light_hops[a..a + r.light_depth as usize] }
    }

    /// Local routing info of tree node `t`.
    pub fn local(&self, t: TreeIx) -> NodeLocal {
        self.nodes[t as usize].local()
    }

    /// Route from `from` to the node carrying `label`. Returns the visited
    /// tree path (inclusive) and its cost, or `None` for foreign labels.
    pub fn route(&self, from: TreeIx, label: LabelRef<'_>) -> Option<(Vec<TreeIx>, Cost)> {
        // lint:allow(no-alloc-in-route): the returned walk owns its path; one Vec per tree route is the API
        let mut path = vec![from];
        let (_, cost) = route_into(self, from, label, &mut path)?;
        Some((path, cost))
    }

    /// Max light-path length over all labels (≤ ceil(log2 m)).
    pub fn max_light_depth(&self) -> u32 {
        self.nodes.iter().map(|r| r.light_depth).max().unwrap_or(0)
    }

    /// Storage bits of `µ(T,t)` for one node.
    pub fn local_bits(&self, t: TreeIx) -> u64 {
        let b = bits_for_node(self.size());
        // dfs_in + dfs_out + heavy option (2 interval ends + port) + light depth.
        let heavy = 1 + if self.nodes[t as usize].heavy != u32::MAX { 3 * b } else { 0 };
        2 * b + heavy + b
    }

    /// Storage bits of `λ(T,t)`.
    pub fn label_bits(&self, t: TreeIx) -> u64 {
        let b = bits_for_node(self.size());
        let hops = self.nodes[t as usize].light_depth as u64;
        b + hops * 2 * b + b // dfs + hops + length field
    }
}

impl LabeledRead for LabeledTree {
    type Row<'a> = &'a NodeRec;

    #[inline]
    fn size(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    fn row(&self, t: TreeIx) -> Option<&NodeRec> {
        self.nodes.get(t as usize)
    }

    #[inline]
    fn hop(&self, i: u32) -> Option<LightHop> {
        self.light_hops.get(i as usize).copied()
    }
}

/// One forwarding decision at `at` toward `label` — uses only `µ(T,at)`
/// and the label (plus physical ports). An out-of-range position
/// (corrupt caller state) is "not in this tree", not a panic.
#[inline]
pub fn step_toward<S: LabeledRead + ?Sized>(s: &S, at: TreeIx, label: impl LabelRead) -> Step {
    let Some(row) = s.row(at) else {
        return Step::NotInTree;
    };
    let row = row.borrow();
    let me = row.local();
    let dfs = label.dfs();
    if dfs == me.dfs_in {
        return Step::Deliver;
    }
    if dfs < me.dfs_in || dfs >= me.dfs_out {
        // Destination outside my subtree: go up.
        return match row.parent() {
            Some(p) => Step::Forward(p),
            None => Step::NotInTree,
        };
    }
    if let Some((hi, ho, hc)) = me.heavy {
        if dfs >= hi && dfs < ho {
            return Step::Forward(hc);
        }
    }
    // Destination is in one of my light subtrees; the light path
    // entry at index `light_depth` is the edge leaving me.
    match label.hop(me.light_depth) {
        Some(hop) if hop.child_dfs > me.dfs_in && hop.child_dfs < me.dfs_out => {
            Step::Forward(hop.child)
        }
        _ => Step::NotInTree,
    }
}

/// Route from `from` to the node carrying `label`, appending every node
/// entered after `from` to `path`. Returns the node reached and the
/// walk's cost, or `None` — with `path` restored — for a label that
/// does not route here. A walk never revisits a node, so `size() + 1`
/// steps, or a step between non-adjacent nodes, means the label or the
/// store is corrupt: undeliverable, never a panic or an endless walk.
pub fn route_into<S: LabeledRead + ?Sized>(
    s: &S,
    from: TreeIx,
    label: impl LabelRead,
    path: &mut Vec<TreeIx>,
) -> Option<(TreeIx, Cost)> {
    let mark = path.len();
    let mut at = from;
    let mut cost: Cost = 0;
    for _ in 0..=s.size() {
        match step_toward(s, at, label) {
            Step::Deliver => return Some((at, cost)),
            Step::NotInTree => break,
            Step::Forward(next) => {
                let Some(w) = edge_weight_of(s, at, next) else { break };
                cost = cost.saturating_add(w);
                at = next;
                path.push(at);
            }
        }
    }
    path.truncate(mark);
    None
}

/// Weight of the tree edge between `a` and `b`, if they are adjacent.
#[inline]
pub(crate) fn edge_weight_of<S: LabeledRead + ?Sized>(
    s: &S,
    a: TreeIx,
    b: TreeIx,
) -> Option<Weight> {
    if s.parent_of(a) == Some(b) {
        Some(s.parent_weight_of(a))
    } else if s.parent_of(b) == Some(a) {
        Some(s.parent_weight_of(b))
    } else {
        None
    }
}

/// A [`LabeledTree`] record ([`LabeledTree::to_wire`]) read in place:
/// the rows and the hop arena stay in the record bytes, and a row read
/// is one [`NodeRec::from_le_bytes`]. Routing over a view runs the same
/// algorithms as over an owned [`LabeledTree`].
#[derive(Clone, Copy, Debug)]
pub struct LabeledView<'a> {
    rows: &'a [[u8; ROW_BYTES]],
    hops: PairView<'a>,
}

impl<'a> LabeledView<'a> {
    /// Borrow the record at the reader's position, leaving the reader
    /// just past it. O(1) in the tree size; [`LabeledView::validate`]
    /// checks contents. Errors are static reasons, so rejecting a record
    /// never allocates.
    pub fn read(r: &mut Reader<'a>) -> Result<Self, &'static str> {
        let (Ok(rows), Ok(hops)) = (r.array(), r.pair_view()) else {
            return Err("truncated labeled tree record");
        };
        if rows.is_empty() {
            return Err("empty tree record");
        }
        Ok(LabeledView { rows, hops })
    }

    /// Every check [`LabeledTree::from_wire`] makes, row by row and
    /// without allocating once `seen` (the scratch of the DFS
    /// permutation check) has grown to the tree size:
    ///
    /// * node 0 is the root and every other parent is a node with a
    ///   smaller `dfs_in` — with `dfs_in` a permutation this proves
    ///   every node reaches the root;
    /// * `dfs_in` is a permutation of `0..m`, and every subtree
    ///   interval `[dfs_in, dfs_out)` is non-empty and inside `0..m`;
    /// * heavy children and light-hop children are in range;
    /// * every label run lies inside the hop arena.
    pub fn validate(&self, seen: &mut Vec<u64>) -> Result<(), &'static str> {
        let m = self.rows.len();
        clear_marks(seen, m);
        for (t, bytes) in self.rows.iter().enumerate() {
            let r = NodeRec::from_le_bytes(bytes);
            if r.dfs_out <= r.dfs_in || r.dfs_out as usize > m {
                return Err("labeled tree subtree interval out of range");
            }
            if !mark(seen, m, r.dfs_in) {
                return Err("labeled tree DFS numbers are not a permutation");
            }
            let parent_ok = match r.parent() {
                None => t == 0,
                Some(p) => t != 0 && self.row(p).is_some_and(|pr| pr.dfs_in < r.dfs_in),
            };
            if !parent_ok {
                return Err("parent relation is not a tree rooted at node 0 in DFS order");
            }
            if r.heavy != u32::MAX && r.heavy as usize >= m {
                return Err("labeled tree heavy child out of range");
            }
            if r.label_range().is_none_or(|(_, hi)| hi as usize > self.hops.len()) {
                return Err("labeled tree label outside the hop arena");
            }
        }
        if self.hops.iter().any(|(_, child)| child as usize >= m) {
            return Err("labeled tree light hop out of range");
        }
        Ok(())
    }
}

impl LabeledRead for LabeledView<'_> {
    type Row<'a>
        = NodeRec
    where
        Self: 'a;

    #[inline]
    fn size(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn row(&self, t: TreeIx) -> Option<NodeRec> {
        self.rows.get(t as usize).map(NodeRec::from_le_bytes)
    }

    #[inline]
    fn hop(&self, i: u32) -> Option<LightHop> {
        self.hops.get(i as usize).map(|(child_dfs, child)| LightHop { child_dfs, child })
    }
}

impl StorageCost for RouteLabel {
    fn storage_bits(&self) -> u64 {
        // Conservative: 32-bit fields; schemes that know their tree size
        // should prefer `LabeledTree::label_bits`.
        32 + self.light_path.len() as u64 * 64
    }
}

/// Iterative post-order (children before parents).
fn post_order(tree: &Tree) -> Vec<TreeIx> {
    let m = tree.size();
    let mut order = Vec::with_capacity(m);
    let mut stack = vec![tree.root()];
    while let Some(t) = stack.pop() {
        order.push(t);
        stack.extend_from_slice(tree.children(t));
    }
    order.reverse(); // reverse preorder = valid post-order for size sums
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::{self, WeightDist};
    use graphkit::{dijkstra, Graph, NodeId, Tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spanning_tree(g: &Graph, root: NodeId) -> Tree {
        let sp = dijkstra::dijkstra(g, root);
        Tree::from_sssp(g, &sp, g.nodes())
    }

    fn check_all_pairs(lt: &LabeledTree) {
        let tree = lt.to_tree();
        let m = lt.size() as u32;
        for s in 0..m {
            for t in 0..m {
                let (path, cost) = lt.route(s, lt.label(t)).expect("in-tree label must route");
                assert_eq!(*path.first().unwrap(), s);
                assert_eq!(*path.last().unwrap(), t);
                // Optimality: cost equals the unique tree distance.
                assert_eq!(cost, tree.tree_distance(s, t), "suboptimal {s}->{t}");
                // Path length equals tree path length (no detours).
                assert_eq!(path.len(), tree.tree_path(s, t).len());
            }
        }
    }

    #[test]
    fn path_tree_routes_exactly() {
        let g = gen::path(10, 3);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        check_all_pairs(&lt);
    }

    #[test]
    fn star_routes_exactly() {
        let g = gen::star(12, 2);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        check_all_pairs(&lt);
    }

    #[test]
    fn balanced_tree_routes_exactly() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = gen::balanced_tree(3, 3, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        check_all_pairs(&lt);
    }

    #[test]
    fn random_trees_route_exactly() {
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::random_tree(60, WeightDist::UniformInt { lo: 1, hi: 20 }, &mut rng);
            // Root somewhere non-trivial.
            let lt = LabeledTree::new(spanning_tree(&g, NodeId(7)));
            check_all_pairs(&lt);
        }
    }

    #[test]
    fn caterpillar_routes_exactly() {
        let mut rng = SmallRng::seed_from_u64(32);
        let g = gen::caterpillar(8, 4, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        check_all_pairs(&lt);
    }

    #[test]
    fn dfs_numbers_are_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(33);
        let g = gen::random_tree(100, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        let mut seen = [false; 100];
        let order = lt.order_by(|r| r.dfs_in);
        for t in 0..100u32 {
            let d = lt.local(t).dfs_in as usize;
            assert!(!seen[d]);
            seen[d] = true;
            assert_eq!(order[d], t);
        }
    }

    #[test]
    fn subtree_intervals_nest() {
        let mut rng = SmallRng::seed_from_u64(34);
        let g = gen::random_tree(80, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        let tree = lt.to_tree();
        for t in 0..80u32 {
            let me = lt.local(t);
            assert!(me.dfs_in < me.dfs_out);
            for &c in tree.children(t) {
                let ch = lt.local(c);
                assert!(me.dfs_in < ch.dfs_in && ch.dfs_out <= me.dfs_out);
            }
            if let Some((hi, ho, hc)) = me.heavy {
                assert_eq!(hi, me.dfs_in + 1, "heavy child must be visited first");
                assert_eq!(lt.local(hc).dfs_in, hi);
                assert_eq!(lt.local(hc).dfs_out, ho);
            }
        }
    }

    #[test]
    fn light_depth_is_logarithmic() {
        let mut rng = SmallRng::seed_from_u64(35);
        let g = gen::random_tree(512, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        // Heavy-path decomposition: light depth <= log2(m).
        assert!(lt.max_light_depth() <= 9, "light depth {}", lt.max_light_depth());
    }

    #[test]
    fn foreign_label_rejected() {
        let g1 = gen::path(6, 1);
        let lt1 = LabeledTree::new(spanning_tree(&g1, NodeId(0)));
        // A label with a DFS number past the tree size cannot route.
        let bogus = RouteLabel { dfs: 99, light_path: vec![] };
        assert_eq!(lt1.route(3, bogus.as_ref()), None);
    }

    #[test]
    fn singleton_tree_delivers_immediately() {
        let t = Tree::from_parents(vec![0], vec![u32::MAX], vec![0]);
        let lt = LabeledTree::new(t);
        let (path, cost) = lt.route(0, lt.label(0)).unwrap();
        assert_eq!(path, vec![0]);
        assert_eq!(cost, 0);
    }

    #[test]
    fn store_wire_roundtrip_routes_identically() {
        let mut rng = SmallRng::seed_from_u64(37);
        let g = gen::random_tree(90, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        let mut w = graphkit::wire::Writer::new();
        lt.to_wire(&mut w);
        let bytes = w.into_bytes();
        let lt2 = LabeledTree::from_wire(&mut graphkit::wire::Reader::new(&bytes)).unwrap();
        for s in 0..lt.size() as u32 {
            for t in 0..lt.size() as u32 {
                assert_eq!(lt2.route(s, lt2.label(t)), lt.route(s, lt.label(t)));
            }
        }
        // Truncations error rather than panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LabeledTree::from_wire(&mut graphkit::wire::Reader::new(&bytes[..cut])).is_err()
            );
        }
    }

    #[test]
    fn storage_bits_reasonable() {
        let mut rng = SmallRng::seed_from_u64(36);
        let g = gen::random_tree(256, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        let b = graphkit::bits::bits_for_node(256); // 8
        for t in 0..256u32 {
            // µ is O(log m): at most 6 node-id fields + flag.
            assert!(lt.local_bits(t) <= 6 * b + 1);
            // λ is O(log^2 m): light depth * 2 ids + 2 ids.
            assert!(lt.label_bits(t) <= (2 * lt.max_light_depth() as u64 + 2) * b + 64);
        }
    }
}
