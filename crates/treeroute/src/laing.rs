//! Name-independent **error-reporting** tree routing — the paper's
//! Lemma 4 (an enhancement of Laing's scheme \[21\]).
//!
//! On a rooted weighted tree with `m` nodes and alphabet
//! `Σ = {0, …, σ−1}`:
//!
//! * nodes are *primary-named* by distance rank from the root
//!   ([`crate::names::Naming`]): the root is ε, the next σ nodes get
//!   1-digit names, the next σ² get 2-digit names, …;
//! * a Θ(log n)-wise independent hash ([`crate::hashing::PolyHash`])
//!   maps arbitrary network ids to digit strings in Σ^k;
//! * the node named `(x₁…x_j)` stores (1) its labeled-routing info
//!   `µ(T,u)`, (2) the labels of all nodes named `(x₁…x_j, y)`, and
//!   (3) a directory with the labels of the `σ·log n` closest-to-root
//!   nodes whose hash starts with `(x₁…x_j)`.
//!
//! A *j-bounded search* from the root follows the target's hash digits
//! through at most `j−1` named hops; Lemma 4 guarantees it finds any
//! node of `V_j` (the `Σ_{t≤j} σ^t` closest nodes) with stretch
//! `2j−1`, and otherwise reports failure back to the root at cost
//! `(2j−2)·max{d(root,v) : v ∈ V_{j−1}}`. Both bounds are asserted by
//! the test-suite and re-measured by experiment L4.
//!
//! ## Storage layout
//!
//! The table `τ(T,u)` of a node is its [`NodeRec`] row — `µ(T,u)`, its
//! distance rank, and its row `[lo, hi)` in each of the two directory
//! arenas — plus those two arena rows. Arena rows follow distance
//! rank, and every entry refers to its target by tree index (the label
//! itself stays in the shared hop arena). A record on disk is the same
//! thing as the tree in memory: a header (k, σ, the hash-verified flag,
//! the hash coefficients), the labeled record (node rows and hop
//! arena), then the name-children and hash-directory arenas. Name
//! lookups use pure rank arithmetic ([`Naming::child_rank`] /
//! [`Naming::rank_of_name`] on a borrowed digit slice) — no
//! `Vec<u32>`-keyed hash maps anywhere, so building a tree's
//! directories performs O(1) allocations total.

use graphkit::bits::{bits_for_node, StorageCost};
use graphkit::ids::ceil_log2;
use graphkit::wire::{self, PairView, Reader, U64View, Writer};
use graphkit::{Cost, NodeId, Tree, TreeIx};
use std::borrow::Borrow;
use std::io;

use crate::hashing::{digit_at, eval_coeffs, PolyHash, FIELD_P};
use crate::labeled::{
    clear_marks, mark, route_into, LabeledRead, LabeledTree, LabeledView, NodeRec,
};
use crate::names::Naming;

/// Outcome of a j-bounded search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// Target reached; `cost` is the total weighted path cost from the
    /// root, `delivered_at` the tree index of the target.
    Found {
        /// Total weighted cost of the search walk.
        cost: Cost,
        /// Tree index of the target.
        delivered_at: TreeIx,
    },
    /// Target not found within the bound; the search returned to the
    /// root having paid `cost` in total (the closed-path cost).
    NotFound {
        /// Total cost of the closed path back to the root.
        cost: Cost,
    },
}

impl SearchOutcome {
    /// Total cost paid, found or not.
    pub fn cost(&self) -> Cost {
        match *self {
            SearchOutcome::Found { cost, .. } => cost,
            SearchOutcome::NotFound { cost } => cost,
        }
    }

    /// Did the search deliver?
    pub fn is_found(&self) -> bool {
        matches!(self, SearchOutcome::Found { .. })
    }
}

/// A tree equipped with the Lemma 4 name-independent error-reporting
/// scheme: the labeled tree (whose rows also carry each node's rank and
/// directory rows), the two directory arenas, the hash, and the
/// (cheaply re-derivable) naming plan. It serializes as its arenas
/// verbatim and deserializes in one pass — no re-running of naming,
/// labeling, or directory assembly — which is what makes spill reloads
/// and snapshot loads cheap.
#[derive(Clone, Debug)]
pub struct ErrorReportingTree {
    labeled: LabeledTree,
    hash: PolyHash,
    k: usize,
    sigma: u64,
    max_load: usize,
    /// Item (2), rows in rank order: `(digit y, name-child tree ix)`.
    nc: Vec<(u32, TreeIx)>,
    /// Item (3), rows in rank order: `(target graph id, target tree ix)`.
    hd: Vec<(u32, TreeIx)>,
    /// Whether the hash verification succeeded within the retry budget.
    hash_verified: bool,
    naming: Naming,
}

impl ErrorReportingTree {
    /// Build with `σ = ⌈m^{1/k}⌉` (the paper's choice uses the *graph*
    /// size; pass it explicitly via [`ErrorReportingTree::with_sigma`]).
    pub fn new(tree: Tree, k: usize, seed: u64) -> Self {
        let sigma = graphkit::ids::nth_root_ceil(tree.size() as u64, k as u32).max(2);
        Self::with_sigma(tree, k, sigma, seed)
    }

    /// Build with an explicit alphabet size.
    pub fn with_sigma(tree: Tree, k: usize, sigma: u64, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(sigma >= 1);
        let m = tree.size();
        let order = tree.nodes_by_depth();
        let naming = Naming::new(m, sigma);
        let labeled = LabeledTree::new(tree);
        // Hash selection with verification + reseeding.
        let max_load = Self::load_budget(m, sigma);
        let degree = PolyHash::degree_for(m);
        let mut chosen: Option<PolyHash> = None;
        let mut best: Option<(usize, PolyHash)> = None;
        let mut verified = false;
        for attempt in 0..32u64 {
            let h = PolyHash::new(degree, seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9)));
            let load = Self::max_prefix_load(&h, &labeled, &order, &naming, k, sigma);
            if load <= max_load {
                chosen = Some(h);
                verified = true;
                break;
            }
            if best.as_ref().is_none_or(|(bl, _)| load < *bl) {
                best = Some((load, h));
            }
        }
        // 32 attempts guarantee `best` when nothing verified; the
        // final fallback (fresh seed-0 hash) is unreachable but keeps
        // this total — an over-budget hash costs search time, not a
        // panic.
        let hash = chosen.or(best.map(|(_, h)| h)).unwrap_or_else(|| PolyHash::new(degree, seed));
        Self::assemble(labeled, naming, order, k, sigma, hash, verified)
    }

    /// Deterministically rebuild the full scheme from its irreducible
    /// parts: the physical tree plus the already-selected hash. This is
    /// the spill-file read path — everything else (naming, labels,
    /// directories) is a pure function of these and is reconstructed
    /// bit-identically.
    pub fn from_parts(tree: Tree, k: usize, sigma: u64, hash: PolyHash, verified: bool) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(sigma >= 1);
        let order = tree.nodes_by_depth();
        let naming = Naming::new(tree.size(), sigma);
        let labeled = LabeledTree::new(tree);
        Self::assemble(labeled, naming, order, k, sigma, hash, verified)
    }

    /// σ·log n directory budget (≥ σ + 2 so tiny trees stay correct).
    /// Saturating, so a corrupt σ read from a record cannot overflow.
    fn load_budget(m: usize, sigma: u64) -> usize {
        let sigma = sigma as usize;
        sigma
            .saturating_mul((ceil_log2(m.max(2) as u64) as usize).max(1))
            .max(sigma.saturating_add(2))
    }

    fn assemble(
        mut labeled: LabeledTree,
        naming: Naming,
        node_of_rank: Vec<TreeIx>,
        k: usize,
        sigma: u64,
        hash: PolyHash,
        hash_verified: bool,
    ) -> Self {
        let m = labeled.size();
        let max_load = Self::load_budget(m, sigma);
        // Item (2): name-children. Child names of rank r are contiguous
        // ranks at the next level, so this is a straight append in
        // (rank, digit) order; each node's record keeps its row.
        let nodes = &mut labeled.nodes;
        let mut nc: Vec<(u32, TreeIx)> = Vec::new();
        for (rank, &t) in node_of_rank.iter().enumerate() {
            let lo = nc.len() as u32;
            if naming.level_of_rank(rank) < k {
                for y in 0..sigma as u32 {
                    match naming.child_rank(rank, y) {
                        Some(cr) => nc.push((y, node_of_rank[cr])),
                        // Child ranks grow with y; past capacity, all
                        // larger digits are absent too.
                        None => break,
                    }
                }
            }
            let rec = &mut nodes[t as usize];
            (rec.rank, rec.nc_lo, rec.nc_hi) = (rank as u32, lo, nc.len() as u32);
        }
        // Item (3): hash directories. Collect (owner rank, target rank)
        // pairs — a target's prefix of length j is owned by the node
        // whose *name* equals those j digits — sort, and keep the first
        // `max_load` targets (closest-to-root first) per owner.
        let mut digits = vec![0u32; k];
        let mut pairs: Vec<u64> = Vec::new();
        for (rank, &tix) in node_of_rank.iter().enumerate() {
            let gid = nodes[tix as usize].host as u64;
            hash.digits_into(gid, sigma, &mut digits);
            for plen in 0..k {
                if let Some(owner) = naming.rank_of_name(&digits[..plen]) {
                    pairs.push((owner as u64) << 32 | rank as u64);
                }
            }
        }
        pairs.sort_unstable();
        let mut hd: Vec<(u32, TreeIx)> = Vec::new();
        let mut p = 0usize;
        for (owner, &owner_ix) in node_of_rank.iter().enumerate() {
            let start = p;
            while p < pairs.len() && (pairs[p] >> 32) as usize == owner {
                p += 1;
            }
            let lo = hd.len() as u32;
            for &pair in &pairs[start..(start + max_load).min(p)] {
                let t = node_of_rank[(pair & 0xFFFF_FFFF) as usize];
                hd.push((nodes[t as usize].host, t));
            }
            let rec = &mut nodes[owner_ix as usize];
            (rec.hd_lo, rec.hd_hi) = (lo, hd.len() as u32);
        }
        ErrorReportingTree { labeled, hash, k, sigma, max_load, nc, hd, hash_verified, naming }
    }

    /// Worst prefix load of `h` over all levels (the quantity the paper
    /// bounds by `σ·log n` w.h.p.). Prefixes are interned as base-σ
    /// codes (σ^k ≤ p < 2^64 by the hashing contract), so each level is
    /// a sort + run-length scan over a reused `u64` buffer.
    fn max_prefix_load(
        h: &PolyHash,
        labeled: &LabeledTree,
        order: &[TreeIx],
        naming: &Naming,
        k: usize,
        sigma: u64,
    ) -> usize {
        let levels = k.min(naming.max_level() + 1);
        let v_max = naming.level_capacity(levels);
        let mut digits = vec![0u32; v_max * k];
        for (i, &t) in order.iter().take(v_max).enumerate() {
            let gid = labeled.graph_id(t).0 as u64;
            h.digits_into(gid, sigma, &mut digits[i * k..(i + 1) * k]);
        }
        let mut worst = 0usize;
        let mut codes: Vec<u64> = Vec::with_capacity(v_max);
        for plen in 0..levels {
            let vj = naming.level_capacity(plen + 1);
            codes.clear();
            for i in 0..vj {
                codes.push(
                    digits[i * k..i * k + plen].iter().fold(0u64, |a, &d| a * sigma + d as u64),
                );
            }
            codes.sort_unstable();
            let mut run = 1usize;
            let mut best = 1usize;
            for w in codes.windows(2) {
                if w[0] == w[1] {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 1;
                }
            }
            worst = worst.max(best);
        }
        worst
    }

    /// The naming plan.
    pub fn naming(&self) -> &Naming {
        &self.naming
    }

    /// Directory budget σ·log n.
    pub fn max_load(&self) -> usize {
        self.max_load
    }

    /// Did the hash pass the prefix-load verification?
    pub fn hash_verified(&self) -> bool {
        self.hash_verified
    }

    /// Distance rank of tree node `t` (0 = root).
    pub fn rank(&self, t: TreeIx) -> u32 {
        self.labeled.row(t).map_or(u32::MAX, |r| r.rank)
    }

    /// Tree nodes in distance-rank order: `order[r]` has rank `r`.
    pub fn rank_order(&self) -> Vec<TreeIx> {
        self.labeled.order_by(|r| r.rank)
    }

    /// Depth of the farthest node in `V_j` (used by the Lemma 4 cost
    /// bound on negative responses). Rebuilds the tree: O(m), off the
    /// route path.
    pub fn max_depth_in_level(&self, j: usize) -> Cost {
        let cap = self.naming.level_capacity(j);
        let tree = self.labeled.to_tree();
        (0..tree.size() as TreeIx)
            .filter(|&t| (self.rank(t) as usize) < cap)
            .map(|t| tree.depth(t))
            .max()
            .unwrap_or(0)
    }

    /// Smallest `j` such that a j-bounded search finds every node in
    /// `members` (tree indices). This is the paper's `b(u,i)` quantity:
    /// the level that covers a given set. Computed structurally (the
    /// level of the deepest-ranked member's *hash discovery round*).
    pub fn level_covering(&self, members: impl IntoIterator<Item = TreeIx>) -> usize {
        let mut j = 1usize;
        for t in members {
            let rank = self.rank(t) as usize;
            j = j.max(self.naming.level_of_rank(rank).max(1));
        }
        j.min(self.k)
    }

    /// Execute a `j`-bounded search from the root for the node whose
    /// network id is `target` (see [`search_bounded`]).
    pub fn search(&self, target: NodeId, j: usize) -> (SearchOutcome, Vec<TreeIx>) {
        search_bounded(self, target, j)
    }

    /// Storage bits of tree node `t` under this scheme: µ(T,t) + the two
    /// directories + the hash description (τ(T,t) in the paper's
    /// notation).
    pub fn node_bits(&self, t: TreeIx) -> u64 {
        let labeled = &self.labeled;
        let id_bits = bits_for_node(labeled.size());
        let mut bits = labeled.local_bits(t) + self.hash.storage_bits();
        for (_, child) in self.name_entries(t) {
            bits += ceil_log2(self.sigma) as u64 + labeled.label_bits(child);
        }
        for (_, ix) in self.hash_entries(t) {
            bits += id_bits + labeled.label_bits(ix);
        }
        bits
    }

    /// Total storage over all nodes.
    pub fn total_bits(&self) -> u64 {
        (0..self.labeled.size() as u32).map(|t| self.node_bits(t)).sum()
    }

    /// Serialize the tree as its record: the header (k, σ, the
    /// hash-verified flag, the hash coefficients), the labeled record
    /// ([`LabeledTree::to_wire`]: node rows and hop arena), then the
    /// name-children and hash-directory arenas — every array verbatim,
    /// so [`ErrorReportingTree::from_wire`] is a row copy with no
    /// reassembly, and a snapshot copies a spilled record without
    /// decoding it.
    pub fn to_wire(&self, w: &mut Writer) {
        w.u64(self.k as u64);
        w.u64(self.sigma);
        w.u8(self.hash_verified as u8);
        w.slice_u64(self.hash.coeffs());
        self.labeled.to_wire(w);
        w.slice_pairs(&self.nc);
        w.slice_pairs(&self.hd);
    }

    /// Inverse of [`ErrorReportingTree::to_wire`]: the record is read in
    /// place ([`ErtView::read`]) and validated ([`ErtView::validate`])
    /// before a single row is copied out, so corrupt bytes are an
    /// [`io::Error`], never a panic or a latent out-of-bounds index.
    pub fn from_wire(r: &mut Reader) -> io::Result<Self> {
        let view = ErtView::read(r).map_err(wire::invalid)?;
        view.validate(&mut Vec::new()).map_err(wire::invalid)?;
        let hash = PolyHash::try_from_coeffs(view.coeffs.iter().collect())
            .ok_or_else(|| wire::invalid("bad ERT record header"))?;
        let labeled = LabeledTree::from_view(view.labeled);
        let m = labeled.size();
        Ok(ErrorReportingTree {
            naming: Naming::new(m, view.sigma),
            labeled,
            hash,
            k: view.k,
            sigma: view.sigma,
            max_load: Self::load_budget(m, view.sigma),
            nc: view.nc.iter().collect(),
            hd: view.hd.iter().collect(),
            hash_verified: view.hash_verified,
        })
    }
}

/// One of the two Lemma-4 directory arenas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Item (2): `(digit, name-child tree index)`.
    NameChildren,
    /// Item (3): `(target graph id, target tree index)`.
    HashDir,
}

impl NodeRec {
    /// This node's row `[lo, hi)` in directory `dir`.
    #[inline]
    fn dir_row(&self, dir: Dir) -> (u32, u32) {
        match dir {
            Dir::NameChildren => (self.nc_lo, self.nc_hi),
            Dir::HashDir => (self.hd_lo, self.hd_hi),
        }
    }
}

/// Read access to a Lemma-4 tree: the surface [`search_bounded`] runs
/// against. [`ErrorReportingTree`] implements it over its owned arenas
/// and [`ErtView`] over record bytes read in place; the per-node
/// directory rows are provided methods over one arena accessor.
pub trait ErtRead {
    /// The labeled tree underneath.
    type Tree: LabeledRead + ?Sized;
    /// The labeled tree underneath (and its physical tree).
    fn labeled(&self) -> &Self::Tree;
    /// Search depth bound k.
    fn k(&self) -> usize;
    /// Alphabet size σ.
    fn sigma(&self) -> u64;
    /// The hash polynomial evaluated at `x`.
    fn hash_eval(&self, x: u64) -> u64;
    /// Entries `lo..hi` of directory arena `dir`, in order; none when
    /// the run leaves the arena.
    fn dir_entries(&self, dir: Dir, lo: u32, hi: u32) -> impl Iterator<Item = (u32, TreeIx)> + '_;

    /// Item (2) of node `t`: `(digit, name-child tree index)`.
    #[inline]
    fn name_entries(&self, t: TreeIx) -> impl Iterator<Item = (u32, TreeIx)> + '_ {
        let (lo, hi) = dir_row_of(self, Dir::NameChildren, t);
        self.dir_entries(Dir::NameChildren, lo, hi)
    }

    /// Item (3) of node `t`: `(target graph id, tree index)`.
    #[inline]
    fn hash_entries(&self, t: TreeIx) -> impl Iterator<Item = (u32, TreeIx)> + '_ {
        let (lo, hi) = dir_row_of(self, Dir::HashDir, t);
        self.dir_entries(Dir::HashDir, lo, hi)
    }
}

/// Node `t`'s row `[lo, hi)` of directory `dir`; empty for a node out
/// of range.
#[inline]
fn dir_row_of<S: ErtRead + ?Sized>(s: &S, dir: Dir, t: TreeIx) -> (u32, u32) {
    s.labeled().row(t).map_or((0, 0), |r| r.borrow().dir_row(dir))
}

impl ErtRead for ErrorReportingTree {
    type Tree = LabeledTree;

    #[inline]
    fn labeled(&self) -> &LabeledTree {
        &self.labeled
    }

    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn sigma(&self) -> u64 {
        self.sigma
    }

    #[inline]
    fn hash_eval(&self, x: u64) -> u64 {
        self.hash.eval(x)
    }

    #[inline]
    fn dir_entries(&self, dir: Dir, lo: u32, hi: u32) -> impl Iterator<Item = (u32, TreeIx)> + '_ {
        let arena = match dir {
            Dir::NameChildren => &self.nc,
            Dir::HashDir => &self.hd,
        };
        arena.get(lo as usize..hi as usize).unwrap_or_default().iter().copied()
    }
}

/// Execute a `j`-bounded search from the root for the node whose network
/// id is `target`. Pure simulation: every decision uses only the
/// current node's stored directories. Returns the outcome and the
/// sequence of tree nodes visited. `j` is clamped to `1..=k`.
pub fn search_bounded<S: ErtRead + ?Sized>(
    s: &S,
    target: NodeId,
    j: usize,
) -> (SearchOutcome, Vec<TreeIx>) {
    let (k, sigma) = (s.k(), s.sigma());
    let j = j.min(k).max(1);
    let y = s.hash_eval(target.0 as u64);
    let labeled = s.labeled();
    let root: TreeIx = 0;
    let mut current = root;
    let mut cost: Cost = 0;
    // lint:allow(no-alloc-in-route): the returned search owns its visited path; one Vec per search is the API
    let mut visited = vec![root];
    let mut round = 1usize;
    // Every stored label below routes inside this tree by construction;
    // a label that no longer routes means a corrupt store, and the
    // search degrades to a failure from where it stands — never a
    // panicked serving thread.
    let walk = |from: TreeIx, to: TreeIx, visited: &mut Vec<TreeIx>| {
        labeled.label_of(to).and_then(|label| route_into(labeled, from, label, visited))
    };
    loop {
        // Does `current` know the target?
        if let Some(tix) = lookup_at(s, current, target) {
            let Some((delivered_at, c)) = walk(current, tix, &mut visited) else {
                return (SearchOutcome::NotFound { cost }, visited);
            };
            cost = cost.saturating_add(c);
            return (SearchOutcome::Found { cost, delivered_at }, visited);
        }
        if round >= j {
            // Bounded out: report failure back to the root.
            if let Some((_, c)) = walk(current, root, &mut visited) {
                cost = cost.saturating_add(c);
            }
            return (SearchOutcome::NotFound { cost }, visited);
        }
        // Move to the node named (y_1 … y_round); round < j ≤ k, so the
        // digit exists.
        let digit = digit_at(y, sigma, k, round - 1);
        match s.name_entries(current).find(|&(d, _)| d == digit) {
            Some((_, child)) => {
                let Some((at, c)) = walk(current, child, &mut visited) else {
                    return (SearchOutcome::NotFound { cost }, visited);
                };
                cost = cost.saturating_add(c);
                current = at;
                round += 1;
            }
            None => {
                // The name does not exist ⇒ the target is not in the
                // tree at all (names fill rank-by-rank; see module
                // docs). Report failure.
                if let Some((_, c)) = walk(current, root, &mut visited) {
                    cost = cost.saturating_add(c);
                }
                return (SearchOutcome::NotFound { cost }, visited);
            }
        }
    }
}

/// Local lookup: does tree node `t` store the target's label? The
/// returned tree index resolves to a label via the shared arena. A
/// directory entry whose tree index does not host the target (a corrupt
/// record) is a miss, never a delivery to the wrong node.
fn lookup_at<S: ErtRead + ?Sized>(s: &S, t: TreeIx, target: NodeId) -> Option<TreeIx> {
    let labeled = s.labeled();
    if labeled.host_of(t) == Some(target) {
        return Some(t);
    }
    let (_, ix) = s.hash_entries(t).find(|&(gid, _)| gid == target.0)?;
    (labeled.host_of(ix) == Some(target)).then_some(ix)
}

/// An [`ErrorReportingTree`] record ([`ErrorReportingTree::to_wire`])
/// read in place, with no decode: [`ErtView::read`] walks the record's
/// length prefixes once to find each array, and every later read is a
/// checked little-endian read from the record bytes. Searches over a
/// view run the same [`search_bounded`] as over an owned tree and
/// return the same walks.
///
/// [`ErtView::new`] checks only the layout; run [`ErtView::validate`]
/// before routing over bytes that came from outside the process. An
/// unvalidated view still cannot panic or loop, but may route wrongly.
#[derive(Clone, Copy, Debug)]
pub struct ErtView<'a> {
    k: usize,
    sigma: u64,
    hash_verified: bool,
    coeffs: U64View<'a>,
    labeled: LabeledView<'a>,
    nc: PairView<'a>,
    hd: PairView<'a>,
}

impl<'a> ErtView<'a> {
    /// Borrow `record`: read the header, locate every array, and check
    /// that the record ends where its last array does. O(1) in the tree
    /// size. Errors are static reasons, so rejecting a record never
    /// allocates.
    pub fn new(record: &'a [u8]) -> Result<Self, &'static str> {
        let mut r = Reader::new(record);
        let v = Self::read(&mut r)?;
        if !r.is_empty() {
            return Err("trailing bytes after ERT record");
        }
        Ok(v)
    }

    /// [`ErtView::new`] over the record at the reader's position,
    /// leaving the reader just past it.
    pub fn read(r: &mut Reader<'a>) -> Result<Self, &'static str> {
        const TRUNCATED: &str = "truncated ERT record";
        let header = |r: &mut Reader<'a>| -> io::Result<(u64, u64, u8, U64View<'a>)> {
            Ok((r.u64()?, r.u64()?, r.u8()?, r.u64_view()?))
        };
        let (k, sigma, verified, coeffs) = header(r).map_err(|_| TRUNCATED)?;
        if k == 0 || sigma == 0 || coeffs.is_empty() {
            return Err("bad ERT record header");
        }
        let labeled = LabeledView::read(r)?;
        let (Ok(nc), Ok(hd)) = (r.pair_view(), r.pair_view()) else {
            return Err(TRUNCATED);
        };
        Ok(ErtView { k: k as usize, sigma, hash_verified: verified != 0, coeffs, labeled, nc, hd })
    }

    /// Every check [`ErrorReportingTree::from_wire`] makes, row by row
    /// and without allocating once `seen` — the scratch of the
    /// permutation checks — has grown to the tree size (see
    /// [`LabeledView::validate`] for the tree checks): coefficients are
    /// in GF(p), ranks are a permutation, every directory row lies
    /// inside its arena, and every entry names a node of the tree. A
    /// record that passes routes without out-of-range reads.
    pub fn validate(&self, seen: &mut Vec<u64>) -> Result<(), &'static str> {
        if self.coeffs.iter().any(|c| c >= FIELD_P) {
            return Err("bad ERT record header");
        }
        self.labeled.validate(seen)?;
        let m = self.labeled.size();
        clear_marks(seen, m);
        for t in 0..m as TreeIx {
            let Some(r) = self.labeled.row(t) else { break };
            if !mark(seen, m, r.rank) {
                return Err("ERT ranks are not a permutation");
            }
            for (dir, arena) in [(Dir::NameChildren, self.nc), (Dir::HashDir, self.hd)] {
                let (lo, hi) = r.dir_row(dir);
                if lo > hi || hi as usize > arena.len() {
                    return Err("ERT directory row outside its arena");
                }
            }
        }
        if self.nc.iter().chain(self.hd.iter()).any(|(_, ix)| ix as usize >= m) {
            return Err("ERT directory entry out of range");
        }
        Ok(())
    }
}

impl<'a> ErtRead for ErtView<'a> {
    type Tree = LabeledView<'a>;

    #[inline]
    fn labeled(&self) -> &LabeledView<'a> {
        &self.labeled
    }

    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn sigma(&self) -> u64 {
        self.sigma
    }

    #[inline]
    fn hash_eval(&self, x: u64) -> u64 {
        eval_coeffs(self.coeffs.iter(), x)
    }

    #[inline]
    fn dir_entries(&self, dir: Dir, lo: u32, hi: u32) -> impl Iterator<Item = (u32, TreeIx)> + '_ {
        let arena = match dir {
            Dir::NameChildren => self.nc,
            Dir::HashDir => self.hd,
        };
        arena.range(lo as usize, hi as usize).unwrap_or_default().iter()
    }
}

impl StorageCost for ErrorReportingTree {
    fn storage_bits(&self) -> u64 {
        self.total_bits()
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

    fn build(g: &Graph, root: NodeId, k: usize, seed: u64) -> ErrorReportingTree {
        ErrorReportingTree::new(spanning_tree(g, root), k, seed)
    }

    /// Lemma 4(a): every node of V_j is found by a j-bounded search with
    /// stretch ≤ 2j−1 (w.r.t. its tree depth), for every j.
    fn check_hit_guarantee(s: &ErrorReportingTree) {
        let tree = s.labeled().to_tree();
        for (rank, &t) in s.rank_order().iter().enumerate() {
            let target = tree.graph_id(t);
            let level = s.naming().level_of_rank(rank).max(1);
            for j in level..=s.k() {
                let (outcome, _) = s.search(target, j);
                match outcome {
                    SearchOutcome::Found { cost, delivered_at } => {
                        assert_eq!(delivered_at, t, "delivered to wrong node");
                        let depth = tree.depth(t);
                        let bound = (2 * level as u64).saturating_sub(1) * depth;
                        if depth > 0 {
                            assert!(
                                cost <= bound.max(depth),
                                "stretch violated: rank={rank} level={level} j={j} \
                                 cost={cost} depth={depth}"
                            );
                        } else {
                            assert_eq!(cost, 0);
                        }
                    }
                    SearchOutcome::NotFound { .. } => {
                        panic!("rank {rank} in V_{j} not found by {j}-bounded search")
                    }
                }
            }
        }
    }

    /// Lemma 4(b): a j-bounded search that misses costs at most
    /// (2j−2)·max{d(r,v) : v ∈ V_{j−1}} and ends back at the root.
    fn check_miss_guarantee(s: &ErrorReportingTree, absent: &[u32]) {
        for &gid in absent {
            for j in 1..=s.k() {
                let (outcome, visited) = s.search(NodeId(gid), j);
                match outcome {
                    SearchOutcome::Found { .. } => panic!("found a node not in the tree"),
                    SearchOutcome::NotFound { cost } => {
                        assert_eq!(
                            *visited.last().unwrap(),
                            0,
                            "negative response must return to the root"
                        );
                        let bound = (2 * j as u64).saturating_sub(2)
                            * s.max_depth_in_level(j.saturating_sub(1)).max(1);
                        assert!(
                            cost <= bound,
                            "miss cost {cost} exceeds (2j-2)*maxdepth bound {bound} (j={j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn path_tree_searches() {
        let g = gen::path(30, 2);
        let s = build(&g, NodeId(0), 3, 1);
        check_hit_guarantee(&s);
        check_miss_guarantee(&s, &[1000, 2000]);
    }

    #[test]
    fn star_tree_searches() {
        let g = gen::star(40, 3);
        let s = build(&g, NodeId(0), 2, 2);
        check_hit_guarantee(&s);
        check_miss_guarantee(&s, &[999]);
    }

    #[test]
    fn random_tree_searches_k3() {
        let mut rng = SmallRng::seed_from_u64(40);
        let g = gen::random_tree(120, WeightDist::UniformInt { lo: 1, hi: 12 }, &mut rng);
        let s = build(&g, NodeId(0), 3, 3);
        assert!(s.hash_verified());
        check_hit_guarantee(&s);
        check_miss_guarantee(&s, &[5000, 5001, 5002]);
    }

    #[test]
    fn random_tree_searches_k1() {
        // k = 1: the root stores everything; stretch 1.
        let mut rng = SmallRng::seed_from_u64(41);
        let g = gen::random_tree(50, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 1, 4);
        check_hit_guarantee(&s);
        let tree = s.labeled().to_tree();
        for t in s.rank_order() {
            let (outcome, _) = s.search(tree.graph_id(t), 1);
            // 1-bounded: found exactly at optimal cost from the root.
            assert_eq!(outcome.cost(), tree.depth(t));
        }
    }

    #[test]
    fn caterpillar_searches_k4() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = gen::caterpillar(12, 5, WeightDist::UniformInt { lo: 1, hi: 4 }, &mut rng);
        let s = build(&g, NodeId(3), 4, 5);
        check_hit_guarantee(&s);
        check_miss_guarantee(&s, &[77777]);
    }

    #[test]
    fn bounded_search_misses_deep_nodes() {
        // With k = 3 and sigma = ceil(100^{1/3}) = 5, V_1 holds 6 nodes:
        // a 1-bounded search must miss nodes of rank >= 6.
        let mut rng = SmallRng::seed_from_u64(43);
        let g = gen::random_tree(100, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 3, 6);
        let cap1 = s.naming().level_capacity(1);
        let mut missed = 0;
        for &t in &s.rank_order()[cap1..] {
            let (outcome, _) = s.search(s.labeled().graph_id(t), 1);
            if !outcome.is_found() {
                missed += 1;
            }
        }
        // Nodes outside V_1 may still be found via the root's hash
        // directory, but far-ranked ones must eventually be missed.
        assert!(missed > 0, "1-bounded search implausibly found every node");
    }

    #[test]
    fn rank_order_is_depth_order() {
        let mut rng = SmallRng::seed_from_u64(44);
        let g = gen::random_tree(60, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let s = build(&g, NodeId(0), 3, 7);
        let tree = s.labeled().to_tree();
        let mut prev = 0;
        for t in s.rank_order() {
            let d = tree.depth(t);
            assert!(d >= prev);
            prev = d;
        }
        assert_eq!(s.rank(tree.root()), 0);
    }

    #[test]
    fn level_covering_bounds() {
        let mut rng = SmallRng::seed_from_u64(45);
        let g = gen::random_tree(80, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 3, 8);
        // Root alone is covered by level 1.
        assert_eq!(s.level_covering([0]), 1);
        // Everything is covered by at most k.
        let all: Vec<TreeIx> = (0..80u32).collect();
        assert!(s.level_covering(all) <= 3);
    }

    #[test]
    fn storage_within_lemma_bound() {
        // Lemma 4: O(k · n^{1/k} · log² n) bits per node. Check against
        // the explicit constant-free form with a generous constant.
        let mut rng = SmallRng::seed_from_u64(46);
        let g = gen::random_tree(200, WeightDist::Unit, &mut rng);
        let k = 3;
        let s = build(&g, NodeId(0), k, 9);
        let m = 200u64;
        let sigma = s.sigma();
        let log = ceil_log2(m) as u64;
        let bound = 64 * (k as u64) * sigma * log * log;
        for t in 0..200u32 {
            assert!(
                s.node_bits(t) <= bound,
                "node {t} stores {} bits > bound {bound}",
                s.node_bits(t)
            );
        }
    }

    #[test]
    fn directory_budget_respected() {
        let mut rng = SmallRng::seed_from_u64(47);
        let g = gen::random_tree(300, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 3, 10);
        for t in 0..300u32 {
            assert!(s.hash_entries(t).count() <= s.max_load());
            assert!(s.name_entries(t).count() <= s.sigma() as usize);
        }
    }

    #[test]
    fn searches_deterministic() {
        let mut rng = SmallRng::seed_from_u64(48);
        let g = gen::random_tree(70, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 3, 11);
        for gid in [0u32, 10, 42, 9999] {
            let a = s.search(NodeId(gid), 3);
            let b = s.search(NodeId(gid), 3);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn wire_roundtrip_preserves_behavior() {
        let mut rng = SmallRng::seed_from_u64(49);
        let g = gen::random_tree(150, WeightDist::UniformInt { lo: 1, hi: 7 }, &mut rng);
        let s = build(&g, NodeId(0), 3, 12);
        let mut w = wire::Writer::new();
        s.to_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = wire::Reader::new(&bytes);
        let s2 = ErrorReportingTree::from_wire(&mut r).unwrap();
        assert!(r.is_empty(), "record fully consumed");
        assert_eq!(s2.sigma(), s.sigma());
        assert_eq!(s2.max_load(), s.max_load());
        assert_eq!(s2.hash_verified(), s.hash_verified());
        for t in 0..150u32 {
            assert_eq!(s2.rank(t), s.rank(t));
            assert_eq!(s2.node_bits(t), s.node_bits(t));
            assert!(s2.name_entries(t).eq(s.name_entries(t)));
            assert!(s2.hash_entries(t).eq(s.hash_entries(t)));
        }
        for gid in [0u32, 7, 42, 149, 5000] {
            for j in 1..=3 {
                assert_eq!(s2.search(NodeId(gid), j), s.search(NodeId(gid), j));
            }
        }
    }

    fn record_of(s: &ErrorReportingTree) -> Vec<u8> {
        let mut w = wire::Writer::new();
        s.to_wire(&mut w);
        w.into_bytes()
    }

    fn view_of(bytes: &[u8]) -> Result<ErtView<'_>, &'static str> {
        let v = ErtView::new(bytes)?;
        v.validate(&mut Vec::new())?;
        Ok(v)
    }

    #[test]
    fn view_searches_like_the_decoded_tree() {
        for (seed, k) in [(60u64, 1usize), (61, 2), (62, 3), (63, 4)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::random_tree(140, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
            let s = build(&g, NodeId(3), k, seed);
            let bytes = record_of(&s);
            let view = view_of(&bytes).expect("an intact record validates");
            let lt = s.labeled();
            let lv = view.labeled();
            assert_eq!(lv.size(), lt.size());
            for gid in (0..150u32).chain([9_999, u32::MAX]) {
                for j in 1..=k + 1 {
                    assert_eq!(search_bounded(&view, NodeId(gid), j), s.search(NodeId(gid), j));
                }
            }
            for a in (0..140u32).step_by(7) {
                for b in 0..140u32 {
                    let mut path = vec![a];
                    let walked = route_into(lv, a, lv.label_of(b).unwrap(), &mut path)
                        .map(|(_, c)| (path, c));
                    assert_eq!(walked, lt.route(a, lt.label(b)), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn corrupt_records_are_rejected_or_search_safely() {
        let mut rng = SmallRng::seed_from_u64(64);
        let g = gen::random_tree(40, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let s = build(&g, NodeId(0), 3, 13);
        let bytes = record_of(&s);
        assert!(view_of(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(view_of(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        let mut rejected = 0;
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= mask;
                let decoded = ErrorReportingTree::from_wire(&mut wire::Reader::new(&bad));
                let view = view_of(&bad);
                if decoded.is_err() {
                    assert!(view.is_err(), "flip {mask:#x} at byte {i} passed the view only");
                    rejected += 1;
                }
                // Whatever passes must still search without panicking.
                if let Ok(v) = view {
                    for gid in [0u32, 17, 39, 4_000] {
                        let _ = search_bounded(&v, NodeId(gid), 3);
                    }
                }
            }
        }
        assert!(rejected > bytes.len(), "the flips exercise the checks ({rejected} rejected)");
    }

    /// The outcome of searching for `gid` on a corrupt tree that passed
    /// validation must be a miss or a delivery at a node hosting `gid`.
    fn assert_miss_or_host<S: ErtRead + ?Sized>(s: &S, gid: u32, j: usize, what: &str) {
        if let (SearchOutcome::Found { delivered_at, .. }, _) = search_bounded(s, NodeId(gid), j) {
            assert_eq!(
                s.labeled().host_of(delivered_at),
                Some(NodeId(gid)),
                "{what}: search for {gid} (j={j}) delivered at {delivered_at}"
            );
        }
    }

    #[test]
    fn rewritten_fields_are_rejected_missed_or_delivered_at_the_host() {
        // Structure-aware corruption: rewrite one row field or one arena
        // entry at a time to values that keep most records plausible
        // (in-range neighbours, boundaries, sentinels). Each rewritten
        // tree is saved and loaded; whatever loads must answer every
        // search with a miss or a delivery at the target's host — never
        // a panic, never a wrong node.
        let mut rng = SmallRng::seed_from_u64(65);
        let g = gen::random_tree(40, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let s = build(&g, NodeId(0), 3, 14);
        let m = s.labeled().size() as u32;
        let candidates =
            |x: u32| [0, 1, x.wrapping_sub(1), x.wrapping_add(1), x ^ 7, m - 1, m, u32::MAX];
        type Edit = Box<dyn Fn(&mut ErrorReportingTree)>;
        let mut edits: Vec<(String, Edit)> = Vec::new();
        type Field = fn(&mut NodeRec) -> &mut u32;
        let fields: [(&str, Field); 13] = [
            ("parent", |r| &mut r.parent),
            ("dfs_in", |r| &mut r.dfs_in),
            ("dfs_out", |r| &mut r.dfs_out),
            ("heavy_in", |r| &mut r.heavy_in),
            ("heavy_out", |r| &mut r.heavy_out),
            ("heavy", |r| &mut r.heavy),
            ("light_depth", |r| &mut r.light_depth),
            ("light_off", |r| &mut r.light_off),
            ("nc_lo", |r| &mut r.nc_lo),
            ("nc_hi", |r| &mut r.nc_hi),
            ("hd_lo", |r| &mut r.hd_lo),
            ("hd_hi", |r| &mut r.hd_hi),
            ("rank", |r| &mut r.rank),
        ];
        for t in (0..m as usize).step_by(3) {
            for (name, field) in fields {
                let mut row = s.labeled.nodes[t];
                let old = *field(&mut row);
                for v in candidates(old).into_iter().filter(|&v| v != old) {
                    edits.push((
                        format!("row {t} {name} = {v}"),
                        Box::new(move |s: &mut ErrorReportingTree| {
                            *field(&mut s.labeled.nodes[t]) = v
                        }),
                    ));
                }
            }
        }
        for i in 0..s.hd.len() {
            let (gid, ix) = s.hd[i];
            for v in candidates(ix).into_iter().filter(|&v| v != ix) {
                edits.push((format!("hd[{i}] = ({gid}, {v})"), Box::new(move |s| s.hd[i].1 = v)));
            }
        }
        for i in 0..s.nc.len() {
            let ix = s.nc[i].1;
            for v in candidates(ix).into_iter().filter(|&v| v != ix) {
                edits.push((format!("nc[{i}] -> {v}"), Box::new(move |s| s.nc[i].1 = v)));
            }
        }
        for i in 0..s.labeled.light_hops.len() {
            let hop = s.labeled.light_hops[i];
            for v in candidates(hop.child).into_iter().filter(|&v| v != hop.child) {
                edits.push((
                    format!("hop[{i}].child = {v}"),
                    Box::new(move |s| s.labeled.light_hops[i].child = v),
                ));
            }
        }
        let (mut accepted, mut accepted_hd) = (0, 0);
        for (what, edit) in &edits {
            let mut bad = s.clone();
            edit(&mut bad);
            let bytes = record_of(&bad);
            let decoded = ErrorReportingTree::from_wire(&mut wire::Reader::new(&bytes));
            let view = view_of(&bytes);
            assert_eq!(decoded.is_ok(), view.is_ok(), "{what}: decode and view disagree");
            let (Ok(decoded), Ok(view)) = (decoded, view) else { continue };
            accepted += 1;
            accepted_hd += what.starts_with("hd[") as usize;
            for gid in (0..g.n() as u32).chain([4_000]) {
                for j in 1..=3 {
                    assert_miss_or_host(&decoded, gid, j, what);
                    assert_miss_or_host(&view, gid, j, what);
                }
            }
        }
        assert!(accepted_hd > 0, "some directory rewrites must pass validation");
        assert!(accepted < edits.len(), "some rewrites must be rejected");
    }

    #[test]
    fn prefix_load_matches_reference_counting() {
        // The interned-code fast path must agree with a naive
        // HashMap-of-name-vectors count (the shape of the code it
        // replaced).
        use std::collections::HashMap;
        let mut rng = SmallRng::seed_from_u64(50);
        let g = gen::random_tree(90, WeightDist::Unit, &mut rng);
        let tree = spanning_tree(&g, NodeId(0));
        let order = tree.nodes_by_depth();
        let k = 3usize;
        let sigma = 5u64;
        let naming = Naming::new(tree.size(), sigma);
        let labeled = LabeledTree::new(tree);
        for seed in 0..4u64 {
            let h = PolyHash::new(PolyHash::degree_for(90), seed);
            let fast = ErrorReportingTree::max_prefix_load(&h, &labeled, &order, &naming, k, sigma);
            let mut slow = 0usize;
            for plen in 0..k.min(naming.max_level() + 1) {
                let vj = naming.level_capacity(plen + 1);
                let mut counts: HashMap<Vec<u32>, usize> = HashMap::new();
                for &t in order.iter().take(vj) {
                    let gid = labeled.graph_id(t).0 as u64;
                    let digits = h.digits(gid, sigma, k);
                    *counts.entry(digits[..plen].to_vec()).or_insert(0) += 1;
                }
                slow = slow.max(counts.values().copied().max().unwrap_or(0));
            }
            assert_eq!(fast, slow, "seed={seed}");
        }
    }
}
