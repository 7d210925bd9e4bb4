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

use graphkit::bits::{bits_for_node, StorageCost};
use graphkit::wire::{self, PairView, Reader, U32View, U64View, Writer};
use graphkit::{Cost, NodeId, Tree, TreeIx, Weight};
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

/// Read access to a labeled tree's arenas: the one surface the routing
/// algorithms ([`step_toward`], [`route_into`]) run against.
/// [`LabeledTree`] implements it over its decoded store and
/// [`LabeledView`] over record bytes read in place, so both route
/// through the same code. Every accessor is total: an index out of
/// range is `None` (or weight 0), never a panic.
pub trait LabeledRead {
    /// The label type [`LabeledRead::label_of`] hands out.
    type Label<'a>: LabelRead
    where
        Self: 'a;
    /// Number of tree nodes.
    fn size(&self) -> usize;
    /// Host-graph id of tree node `t`.
    fn host_of(&self, t: TreeIx) -> Option<NodeId>;
    /// Parent of `t` (`None` at the root).
    fn parent_of(&self, t: TreeIx) -> Option<TreeIx>;
    /// Weight of the edge from `t` to its parent.
    fn parent_weight_of(&self, t: TreeIx) -> Weight;
    /// Routing info `µ(T,t)`.
    fn local_at(&self, t: TreeIx) -> Option<NodeLocal>;
    /// Label `λ(T,t)`.
    fn label_of(&self, t: TreeIx) -> Option<Self::Label<'_>>;
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

/// One tree node's routing record: everything the labeled walk, the
/// climb to the root and the Lemma-4 search read at a node, packed
/// into one 64-byte cache line. A hop therefore touches one line per
/// node instead of one per column. The directory ranges (`nc`, `hd`)
/// and the distance rank are filled by the Lemma-4 store
/// ([`crate::laing::ErtStore`]); other trees leave them zero.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct NodeRec {
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

const _: () =
    assert!(std::mem::size_of::<NodeRec>() == 64 && std::mem::align_of::<NodeRec>() == 64);

impl NodeRec {
    /// Routing info `µ(T,u)` of this node.
    #[inline]
    fn local(&self) -> NodeLocal {
        NodeLocal {
            dfs_in: self.dfs_in,
            dfs_out: self.dfs_out,
            heavy: (self.heavy != u32::MAX).then_some((self.heavy_in, self.heavy_out, self.heavy)),
            light_depth: self.light_depth,
        }
    }
}

/// The plain-old-data half of a [`LabeledTree`]: one [`NodeRec`] per
/// tree node, in tree-index order, plus the shared label-hop arena.
/// The records carry the physical tree too (host id, parent, weight),
/// so a store keeps no separate [`Tree`]; [`LabeledTree::to_tree`]
/// rebuilds one for the few callers off the route path that need it.
///
/// Labels are stored flat: one hop arena (`light_hops`) in tree-index
/// order, each node's label a contiguous run starting at its record's
/// `light_off` — two allocations per tree regardless of size, and a
/// node's label is a 16-byte [`LabelRef`] view.
#[derive(Clone, Debug)]
pub struct LabeledStore {
    nodes: Vec<NodeRec>,
    light_hops: Vec<LightHop>,
}

impl LabeledStore {
    /// Serialize as flat arrays: the tree's host ids, parents and
    /// weights, then the routing info structure-of-arrays (`u32::MAX`
    /// heavy-child sentinel for leaves), the light-path offsets and
    /// hops, and the DFS order. The layout is the one the records
    /// replaced, so [`LabeledView`] reads it in place.
    pub fn to_wire(&self, w: &mut Writer) {
        let column = |f: fn(&NodeRec) -> u32| -> Vec<u32> { self.nodes.iter().map(f).collect() };
        w.slice_u32(&column(|r| r.host));
        w.slice_u32(&column(|r| r.parent));
        let weights: Vec<u64> = self.nodes.iter().map(|r| r.weight).collect();
        w.slice_u64(&weights);
        w.slice_u32(&column(|r| r.dfs_in));
        w.slice_u32(&column(|r| r.dfs_out));
        w.slice_u32(&column(|r| r.light_depth));
        let heavy: Vec<u32> =
            self.nodes.iter().flat_map(|r| [r.heavy_in, r.heavy_out, r.heavy]).collect();
        w.slice_u32(&heavy);
        let mut light_off = column(|r| r.light_off);
        light_off.push(self.light_hops.len() as u32);
        w.slice_u32(&light_off);
        let hops: Vec<(u32, u32)> =
            self.light_hops.iter().map(|h| (h.child_dfs, h.child)).collect();
        w.slice_pairs(&hops);
        w.slice_u32(&self.dfs_order());
    }

    /// Inverse of [`LabeledStore::to_wire`]: the record is read in
    /// place and validated ([`LabeledView::validate_tree`]) before a
    /// single record is built, so a corrupt record errors instead of
    /// leaving out-of-bounds indices for the read path to trip over.
    pub fn from_wire(r: &mut Reader) -> io::Result<Self> {
        let view = LabeledView::new(r).map_err(wire::invalid)?;
        view.validate_tree().map_err(wire::invalid)?;
        view.to_store()
    }

    /// `dfs_order[d]` = tree index of the node with DFS number `d`.
    pub(crate) fn dfs_order(&self) -> Vec<TreeIx> {
        let mut order = vec![0 as TreeIx; self.nodes.len()];
        for (t, r) in self.nodes.iter().enumerate() {
            if let Some(slot) = order.get_mut(r.dfs_in as usize) {
                *slot = t as TreeIx;
            }
        }
        order
    }

    /// The node records, for the Lemma-4 store to fill its fields.
    pub(crate) fn nodes(&self) -> &[NodeRec] {
        &self.nodes
    }

    /// Mutable node records (see [`LabeledStore::nodes`]).
    pub(crate) fn nodes_mut(&mut self) -> &mut [NodeRec] {
        &mut self.nodes
    }
}

/// A tree equipped with the labeled routing scheme: the thin read-path
/// half over a [`LabeledStore`]. [`LabeledTree::new`] preprocesses a
/// fresh tree; [`LabeledTree::from_store`] wraps a deserialized store
/// with zero rebuild — the same routing code serves both.
#[derive(Clone, Debug)]
pub struct LabeledTree {
    store: LabeledStore,
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
        LabeledTree { store: LabeledStore { nodes, light_hops } }
    }

    /// Wrap an already-built (typically snapshot-loaded) store. No
    /// preprocessing happens here — the store *is* the routing state.
    pub fn from_store(store: LabeledStore) -> Self {
        LabeledTree { store }
    }

    /// The plain-old-data half (for serialization).
    pub fn store(&self) -> &LabeledStore {
        &self.store
    }

    /// Mutable store, for the Lemma-4 store to fill its record fields.
    pub(crate) fn store_mut(&mut self) -> &mut LabeledStore {
        &mut self.store
    }

    /// Rebuild the physical tree from the records. O(m) and allocating:
    /// for analysis and tests, never the route path.
    pub fn to_tree(&self) -> Tree {
        let nodes = &self.store.nodes;
        Tree::from_parents(
            nodes.iter().map(|r| r.host).collect(),
            nodes.iter().map(|r| r.parent).collect(),
            nodes.iter().map(|r| r.weight).collect(),
        )
    }

    /// Number of tree nodes.
    #[inline]
    pub fn size(&self) -> usize {
        self.store.nodes.len()
    }

    /// Host-graph id of tree node `t`.
    pub fn graph_id(&self, t: TreeIx) -> NodeId {
        NodeId(self.store.nodes[t as usize].host)
    }

    /// Label of tree node `t`: a zero-copy view into the hop arena.
    pub fn label(&self, t: TreeIx) -> LabelRef<'_> {
        let r = &self.store.nodes[t as usize];
        let a = r.light_off as usize;
        LabelRef {
            dfs: r.dfs_in,
            light_path: &self.store.light_hops[a..a + r.light_depth as usize],
        }
    }

    /// Local routing info of tree node `t`.
    pub fn local(&self, t: TreeIx) -> NodeLocal {
        self.store.nodes[t as usize].local()
    }

    /// One forwarding decision at `at` toward `label` — uses only
    /// `µ(T,at)` and the label (plus physical ports).
    pub fn route_step(&self, at: TreeIx, label: LabelRef<'_>) -> Step {
        step_toward(self, at, label)
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
        self.store.nodes.iter().map(|r| r.light_depth).max().unwrap_or(0)
    }

    /// Storage bits of `µ(T,t)` for one node.
    pub fn local_bits(&self, t: TreeIx) -> u64 {
        let b = bits_for_node(self.size());
        // dfs_in + dfs_out + heavy option (2 interval ends + port) + light depth.
        let heavy = 1 + if self.store.nodes[t as usize].heavy != u32::MAX { 3 * b } else { 0 };
        2 * b + heavy + b
    }

    /// Storage bits of `λ(T,t)`.
    pub fn label_bits(&self, t: TreeIx) -> u64 {
        let b = bits_for_node(self.size());
        let hops = self.store.nodes[t as usize].light_depth as u64;
        b + hops * 2 * b + b // dfs + hops + length field
    }
}

impl LabeledRead for LabeledTree {
    type Label<'a> = LabelRef<'a>;

    #[inline]
    fn size(&self) -> usize {
        self.store.nodes.len()
    }

    #[inline]
    fn host_of(&self, t: TreeIx) -> Option<NodeId> {
        self.store.nodes.get(t as usize).map(|r| NodeId(r.host))
    }

    #[inline]
    fn parent_of(&self, t: TreeIx) -> Option<TreeIx> {
        self.store.nodes.get(t as usize).map(|r| r.parent).filter(|&p| p != u32::MAX)
    }

    #[inline]
    fn parent_weight_of(&self, t: TreeIx) -> Weight {
        self.store.nodes.get(t as usize).map_or(0, |r| r.weight)
    }

    #[inline]
    fn local_at(&self, t: TreeIx) -> Option<NodeLocal> {
        self.store.nodes.get(t as usize).map(NodeRec::local)
    }

    #[inline]
    fn label_of(&self, t: TreeIx) -> Option<LabelRef<'_>> {
        let r = self.store.nodes.get(t as usize)?;
        let a = r.light_off as usize;
        let light_path = self.store.light_hops.get(a..a + r.light_depth as usize)?;
        Some(LabelRef { dfs: r.dfs_in, light_path })
    }
}

/// One forwarding decision at `at` toward `label` — uses only `µ(T,at)`
/// and the label (plus physical ports). An out-of-range position
/// (corrupt caller state) is "not in this tree", not a panic.
#[inline]
pub fn step_toward<S: LabeledRead + ?Sized>(s: &S, at: TreeIx, label: impl LabelRead) -> Step {
    let Some(me) = s.local_at(at) else {
        return Step::NotInTree;
    };
    let dfs = label.dfs();
    if dfs == me.dfs_in {
        return Step::Deliver;
    }
    if dfs < me.dfs_in || dfs >= me.dfs_out {
        // Destination outside my subtree: go up.
        return match s.parent_of(at) {
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
fn edge_weight_of<S: LabeledRead + ?Sized>(s: &S, a: TreeIx, b: TreeIx) -> Option<Weight> {
    if s.parent_of(a) == Some(b) {
        Some(s.parent_weight_of(a))
    } else if s.parent_of(b) == Some(a) {
        Some(s.parent_weight_of(b))
    } else {
        None
    }
}

/// A [`LabeledStore`] record ([`LabeledStore::to_wire`]) read in place:
/// every array stays in the record bytes, and every read is a checked
/// little-endian word read. Routing over a view runs the same
/// algorithms as over a decoded [`LabeledTree`].
#[derive(Clone, Copy, Debug)]
pub struct LabeledView<'a> {
    graph_ids: U32View<'a>,
    parents: U32View<'a>,
    weights: U64View<'a>,
    dfs_in: U32View<'a>,
    dfs_out: U32View<'a>,
    light_depth: U32View<'a>,
    /// `(dfs_in, dfs_out, tree index)` of each node's heavy child,
    /// `u32::MAX` index at leaves.
    heavy: U32View<'a>,
    light_off: U32View<'a>,
    light_hops: PairView<'a>,
    dfs_order: U32View<'a>,
}

impl<'a> LabeledView<'a> {
    /// Borrow the record at the reader's position: walk its length
    /// prefixes and check every array's length against the tree size.
    /// O(1) in the tree size; [`LabeledView::validate_tree`] checks contents.
    /// Errors are static reasons, so rejecting a record never allocates.
    pub fn new(r: &mut Reader<'a>) -> Result<Self, &'static str> {
        let arrays = |r: &mut Reader<'a>| -> io::Result<Self> {
            Ok(LabeledView {
                graph_ids: r.u32_view()?,
                parents: r.u32_view()?,
                weights: r.u64_view()?,
                dfs_in: r.u32_view()?,
                dfs_out: r.u32_view()?,
                light_depth: r.u32_view()?,
                heavy: r.u32_view()?,
                light_off: r.u32_view()?,
                light_hops: r.pair_view()?,
                dfs_order: r.u32_view()?,
            })
        };
        let v = arrays(r).map_err(|_| "truncated labeled store record")?;
        let m = v.graph_ids.len();
        if m == 0 || v.parents.len() != m || v.weights.len() != m {
            return Err("inconsistent tree record");
        }
        if v.dfs_in.len() != m
            || v.dfs_out.len() != m
            || v.light_depth.len() != m
            || v.heavy.len() != 3 * m
            || v.light_off.len() != m + 1
            || v.dfs_order.len() != m
        {
            return Err("labeled store arrays have mismatched lengths");
        }
        Ok(v)
    }

    /// Every check [`LabeledStore::from_wire`] (and the tree decode
    /// beneath it) makes, run in place without allocating. Acyclicity
    /// is checked as `dfs_in[parent[t]] < dfs_in[t]` for every `t ≠ 0`:
    /// parents precede children in the heavy-first DFS, and with
    /// `dfs_in` a permutation this also proves every node reaches the
    /// root — stronger than the decoder's visit count, which accepts a
    /// tree whose DFS numbering ignores its parents.
    pub fn validate_tree(&self) -> Result<(), &'static str> {
        let m = self.size();
        for (t, d) in self.dfs_in.iter().enumerate() {
            if self.dfs_order.get(d as usize) != Some(t as u32) {
                return Err("labeled store DFS order is not a permutation");
            }
        }
        if self.parents.get(0) != Some(u32::MAX) {
            return Err("node 0 must be the root");
        }
        for (p, d) in self.parents.iter().zip(self.dfs_in.iter()).skip(1) {
            if (p as usize) >= m {
                return Err("bad parent in tree record");
            }
            if self.dfs_in.get(p as usize).is_none_or(|pd| pd >= d) {
                return Err("parent relation is not a tree in DFS order");
            }
        }
        if self.light_off.get(0) != Some(0)
            || self.light_off.get(m) != Some(self.light_hops.len() as u32)
        {
            return Err("labeled store light-path arena bounds");
        }
        let per_node = self
            .dfs_in
            .iter()
            .zip(self.dfs_out.iter())
            .zip(self.light_depth.iter())
            .zip(self.light_off.iter().zip(self.light_off.iter().skip(1)))
            .zip(self.heavy.iter().skip(2).step_by(3));
        for ((((din, dout), ld), (off, next)), hc) in per_node {
            if dout <= din || dout as usize > m {
                return Err("labeled store subtree interval out of range");
            }
            if next < off || next - off != ld {
                return Err("labeled store light offsets disagree with depths");
            }
            if hc != u32::MAX && hc as usize >= m {
                return Err("labeled store heavy child out of range");
            }
        }
        if self.light_hops.iter().any(|(_, child)| child as usize >= m) {
            return Err("labeled store light hop out of range");
        }
        Ok(())
    }

    /// Copy a validated view out into an owned store: one record per
    /// node, built straight from the checked arrays.
    pub(crate) fn to_store(self) -> io::Result<LabeledStore> {
        let record = |t: TreeIx| -> Option<NodeRec> {
            let local = self.local_at(t)?;
            let (heavy_in, heavy_out, heavy) = local.heavy.unwrap_or((0, 0, u32::MAX));
            Some(NodeRec {
                weight: self.weights.get(t as usize)?,
                host: self.graph_ids.get(t as usize)?,
                parent: self.parents.get(t as usize)?,
                dfs_in: local.dfs_in,
                dfs_out: local.dfs_out,
                heavy_in,
                heavy_out,
                heavy,
                light_depth: local.light_depth,
                light_off: self.light_off.get(t as usize)?,
                ..NodeRec::default()
            })
        };
        // Exact capacity: resident loads keep every tree's records.
        let mut nodes = Vec::with_capacity(self.size());
        for t in 0..self.size() as TreeIx {
            nodes
                .push(record(t).ok_or_else(|| {
                    wire::invalid("labeled store arrays have mismatched lengths")
                })?);
        }
        let light_hops = self
            .light_hops
            .iter()
            .map(|(child_dfs, child)| LightHop { child_dfs, child })
            .collect();
        Ok(LabeledStore { nodes, light_hops })
    }
}

/// A label read in place from a [`LabeledView`].
#[derive(Clone, Copy, Debug)]
pub struct ViewLabel<'a> {
    dfs: u32,
    hops: PairView<'a>,
}

impl LabelRead for ViewLabel<'_> {
    #[inline]
    fn dfs(&self) -> u32 {
        self.dfs
    }

    #[inline]
    fn hop(&self, i: u32) -> Option<LightHop> {
        self.hops.get(i as usize).map(|(child_dfs, child)| LightHop { child_dfs, child })
    }
}

impl<'a> LabeledRead for LabeledView<'a> {
    type Label<'b>
        = ViewLabel<'a>
    where
        Self: 'b;

    #[inline]
    fn size(&self) -> usize {
        self.graph_ids.len()
    }

    #[inline]
    fn host_of(&self, t: TreeIx) -> Option<NodeId> {
        self.graph_ids.get(t as usize).map(NodeId)
    }

    #[inline]
    fn parent_of(&self, t: TreeIx) -> Option<TreeIx> {
        self.parents.get(t as usize).filter(|&p| p != u32::MAX)
    }

    #[inline]
    fn parent_weight_of(&self, t: TreeIx) -> Weight {
        self.weights.get(t as usize).unwrap_or(0)
    }

    #[inline]
    fn local_at(&self, t: TreeIx) -> Option<NodeLocal> {
        let t = t as usize;
        let hc = self.heavy.get(3 * t + 2)?;
        let heavy = if hc == u32::MAX {
            None
        } else {
            Some((self.heavy.get(3 * t)?, self.heavy.get(3 * t + 1)?, hc))
        };
        Some(NodeLocal {
            dfs_in: self.dfs_in.get(t)?,
            dfs_out: self.dfs_out.get(t)?,
            heavy,
            light_depth: self.light_depth.get(t)?,
        })
    }

    #[inline]
    fn label_of(&self, t: TreeIx) -> Option<ViewLabel<'a>> {
        let t = t as usize;
        let (a, b) = (self.light_off.get(t)? as usize, self.light_off.get(t + 1)? as usize);
        Some(ViewLabel { dfs: self.dfs_in.get(t)?, hops: self.light_hops.range(a, b)? })
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
        let order = lt.store().dfs_order();
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
        lt.store().to_wire(&mut w);
        let bytes = w.into_bytes();
        let store = LabeledStore::from_wire(&mut graphkit::wire::Reader::new(&bytes)).unwrap();
        let lt2 = LabeledTree::from_store(store);
        for s in 0..lt.size() as u32 {
            for t in 0..lt.size() as u32 {
                assert_eq!(lt2.route(s, lt2.label(t)), lt.route(s, lt.label(t)));
            }
        }
        // Truncations error rather than panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LabeledStore::from_wire(&mut graphkit::wire::Reader::new(&bytes[..cut])).is_err()
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
