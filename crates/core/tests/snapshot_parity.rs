//! Snapshot parity: a scheme saved to a versioned snapshot and loaded
//! back — by what is conceptually another process — must route every
//! pair with byte-identical next-hop decisions, account identical
//! storage, and report identical build stats; and a corrupted or
//! truncated snapshot must surface as an `Err`, never a panic.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::assert_same_scheme;
use graphkit::gen::Family;
use graphkit::metrics::apsp;
use graphkit::NodeId;
use proptest::prelude::*;
use routing_core::{Scheme, SchemeParams};
use sim::{pairs, Router};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique path in the system temp dir; removed by `TempPath::drop`.
struct TempPath(PathBuf);

impl TempPath {
    fn new() -> Self {
        let seq = SEQ.fetch_add(1, Ordering::SeqCst);
        TempPath(
            std::env::temp_dir()
                .join(format!("agm-snapshot-test-{}-{seq}.bin", std::process::id())),
        )
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn saved_scheme_loads_and_routes_identically() {
    for (fam, k) in [
        (Family::Geometric, 2usize),
        (Family::ExpRing, 3),
        (Family::PrefAttach, 2),
        (Family::Grid, 1),
    ] {
        let g = fam.generate(110, 0x54AD);
        let d = apsp(&g);
        let scheme = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(k, 0x54AD));
        let path = TempPath::new();
        scheme.save(&path.0).expect("save");
        let resident = Scheme::load(&path.0).expect("load");
        let lazy = Scheme::load_lazy(&path.0).expect("load_lazy");
        let tag = format!("{} k={k}", fam.label());
        assert_same_scheme(&format!("{tag} resident"), &resident, &scheme, 300, 0x51AB);
        assert_same_scheme(&format!("{tag} lazy"), &lazy, &scheme, 300, 0x51AB);
        assert_eq!(resident.params().k, k);
        assert_eq!(resident.params().seed, 0x54AD);
    }
}

#[test]
fn spilled_build_saves_by_raw_copy_and_loads_identically() {
    // A spilled scheme's save path copies spill records verbatim into
    // the snapshot; the loaded scheme must still match the resident
    // build bit for bit.
    let g = Family::Geometric.generate(120, 0x54AE);
    let d = apsp(&g);
    let params = SchemeParams::new(2, 0x54AE);
    let resident = Scheme::build_with_matrix(g.clone(), &d, params);
    let spilled = Scheme::build_with_matrix(g.clone(), &d, params.with_spill());
    let path = TempPath::new();
    spilled.save(&path.0).expect("save");
    let loaded = Scheme::load(&path.0).expect("load");
    assert_same_scheme("spilled->snapshot->resident", &loaded, &resident, 300, 0x51AB);
}

#[test]
fn snapshot_of_on_demand_build_round_trips() {
    let g = Family::ExpTree.generate(100, 0x54AF);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 0x54AF));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let loaded = Scheme::load(&path.0).expect("load");
    assert_same_scheme("on-demand", &loaded, &scheme, 300, 0x51AB);
}

#[test]
fn truncated_snapshots_error_instead_of_panicking() {
    let g = Family::Geometric.generate(70, 0x54B0);
    let d = apsp(&g);
    let scheme = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(2, 0x54B0));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read back");
    let full = Scheme::load(&path.0).expect("intact snapshot must load");
    drop(full);
    // Every short prefix (subsampled beyond the header region) must
    // fail cleanly through the Err path.
    let cut = TempPath::new();
    let mut lens: Vec<usize> = (0..bytes.len().min(64)).collect();
    lens.extend((64..bytes.len()).step_by(89));
    for len in lens {
        std::fs::write(&cut.0, &bytes[..len]).expect("write truncated");
        assert!(Scheme::load(&cut.0).is_err(), "prefix of {len} bytes must not load");
    }
}

#[test]
fn corrupted_snapshots_error_instead_of_panicking() {
    let g = Family::Geometric.generate(70, 0x54B1);
    let d = apsp(&g);
    let scheme = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(2, 0x54B1));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read back");
    // Single-byte flips, subsampled across the file (the resident
    // loader checksums every section, so any payload flip must be
    // caught; header/table flips are caught structurally).
    let bad = TempPath::new();
    let mut offsets: Vec<usize> = (0..bytes.len().min(64)).collect();
    offsets.extend((64..bytes.len()).step_by(97));
    for off in offsets {
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0x20;
        std::fs::write(&bad.0, &corrupt).expect("write corrupt");
        assert!(Scheme::load(&bad.0).is_err(), "flip at byte {off} must not load");
    }
}

#[test]
fn save_is_byte_deterministic() {
    let g = Family::PrefAttach.generate(90, 0x54B2);
    let d = apsp(&g);
    let scheme = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(2, 0x54B2));
    let a = TempPath::new();
    let b = TempPath::new();
    scheme.save(&a.0).expect("save a");
    scheme.save(&b.0).expect("save b");
    assert_eq!(std::fs::read(&a.0).unwrap(), std::fs::read(&b.0).unwrap());
    // And resaving a *loaded* scheme reproduces the same bytes — the
    // decode/encode pair is lossless.
    let loaded = Scheme::load(&a.0).expect("load");
    let c = TempPath::new();
    loaded.save(&c.0).expect("save c");
    assert_eq!(std::fs::read(&a.0).unwrap(), std::fs::read(&c.0).unwrap());
}

/// Snapshot section ids of the center directory and the center-tree
/// records (stable across snapshot versions; see `snapshot.rs`).
const SEC_CENTER_DIR: u32 = 7;
const SEC_CENTER_TREES: u32 = 8;

/// `(center, absolute offset, byte length)` of every center-tree record.
fn center_records(path: &std::path::Path) -> Vec<(u32, usize, usize)> {
    let sr = graphkit::wire::SnapshotReader::open(path).expect("open");
    let dir = sr.section(SEC_CENTER_DIR).expect("center dir");
    let (base, _) = sr.section_range(SEC_CENTER_TREES).expect("center trees");
    let mut r = graphkit::wire::Reader::new(&dir);
    (0..r.len().unwrap())
        .map(|_| {
            let (c, off, len) = (r.u32().unwrap(), r.u64().unwrap(), r.u32().unwrap());
            (c, (base + off) as usize, len as usize)
        })
        .collect()
}

/// `(length-prefix offset, payload offset, words, word width)` of each
/// of a center-tree record's 5 arrays, in wire order: hash
/// coefficients; the 64-byte node rows; the light-hop arena; the
/// name-child and hash-directory arenas.
fn record_arrays(rec: &[u8]) -> Vec<(usize, usize, usize, usize)> {
    const WIDTHS: [usize; 5] = [8, 64, 8, 8, 8];
    let mut at = 17; // k, sigma, hash-verified flag
    WIDTHS
        .iter()
        .map(|&w| {
            let n = u64::from_le_bytes(rec[at..at + 8].try_into().unwrap()) as usize;
            let array = (at, at + 8, n, w);
            at += 8 + n * w;
            array
        })
        .collect()
}

/// Byte offsets, within a node row, of its parent, dfs_in, dfs_out,
/// heavy child, label offset, and name-child and hash-directory row
/// bounds (`NodeRec::to_le_bytes`: a u64 weight, then u32 fields).
const ROW_FIELDS: [usize; 9] = [12, 16, 20, 32, 40, 44, 48, 52, 56];

/// Is this record rejected by the full decoder, and by the in-place
/// view's checks?
fn rejections(rec: &[u8]) -> (bool, bool) {
    use treeroute::laing::{ErrorReportingTree, ErtView};
    let decoded = ErrorReportingTree::from_wire(&mut graphkit::wire::Reader::new(rec));
    let viewed = ErtView::new(rec).and_then(|v| v.validate(&mut Vec::new()));
    (decoded.is_err(), viewed.is_err())
}

#[test]
fn corrupt_lazy_records_degrade_instead_of_panicking() {
    // load_lazy skips the center-trees checksum, so the per-record
    // check on fetch is the only guard. Flip bytes in the length
    // prefixes, and in the parents, DFS intervals, heavy children,
    // label offsets and directory rows of node rows, of records inside
    // a lazily loaded snapshot: every route must still return.
    let g = Family::Geometric.generate(80, 0x54B3);
    let d = apsp(&g);
    let scheme = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(2, 0x54B3));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read back");
    let records = center_records(&path.0);
    assert!(records.len() >= 3, "need center trees to corrupt");
    // Differential, intact side: every record passes both checks.
    for &(c, off, len) in &records {
        assert_eq!(rejections(&bytes[off..off + len]), (false, false), "intact center {c}");
    }
    let queries = pairs::sample(g.n(), 120, 0x54B4);
    let intact = Scheme::load_lazy(&path.0).expect("intact lazy load");
    for &(s, t) in &queries {
        assert!(intact.route(s, t).delivered, "intact {s}->{t}");
    }
    drop(intact);

    let bad = TempPath::new();
    let routes = |bytes: &[u8]| -> Vec<(bool, u64, Vec<NodeId>)> {
        std::fs::write(&bad.0, bytes).expect("write corrupt");
        let lazy = Scheme::load_lazy(&bad.0).expect("lazy load skips the tree section");
        queries
            .iter()
            .map(|&(s, t)| {
                let trace = lazy.route(s, t);
                assert_eq!(trace.path.first(), Some(&s), "{s}->{t}");
                (trace.delivered, trace.cost, trace.path)
            })
            .collect()
    };
    let (mut flips, mut rejected) = (0usize, 0usize);
    for &(c, off, len) in records.iter().step_by(records.len() / 3) {
        // The reference for a rejected record: the same record with
        // k = 0, which fails on its header — routes must degrade
        // exactly as if the tree were missing.
        let mut missing = bytes.clone();
        missing[off..off + 8].fill(0);
        let without_tree = routes(&missing);
        let arrays = record_arrays(&bytes[off..off + len]);
        let mut targets: Vec<(usize, u8)> = Vec::new();
        for &(prefix, _, _, _) in &arrays {
            targets.extend([(prefix, 0x01), (prefix + 7, 0x80)]);
        }
        let (_, rows, m, w) = arrays[1];
        for row in [1, m / 2, m - 1] {
            for field in ROW_FIELDS {
                let at = rows + row * w + field;
                targets.extend([(at, 0x01), (at + 3, 0x80)]);
            }
        }
        for (at, mask) in targets {
            let mut corrupt = bytes.clone();
            corrupt[off + at] ^= mask;
            let (by_decode, by_view) = rejections(&corrupt[off..off + len]);
            assert!(!by_decode || by_view, "center {c}: flip at {at} passed the view only");
            flips += 1;
            rejected += by_view as usize;
            let got = routes(&corrupt);
            if by_view {
                assert!(got == without_tree, "center {c}: rejected flip at {at} was routed over");
            }
        }
    }
    assert!(rejected * 2 > flips, "most flips must be caught ({rejected} of {flips})");
}

/// Snapshot section id of the level plans (see `snapshot.rs`).
const SEC_PLANS: u32 = 5;

/// Recompute section `id`'s checksum in the table of the snapshot
/// `bytes`, so an edited payload reaches the decoder instead of
/// failing the checksum.
fn reseal_section(bytes: &mut [u8], id: u32) {
    let word = |b: &[u8], at: usize, w: usize| -> u64 {
        b[at..at + w].iter().rev().fold(0u64, |acc, &x| acc << 8 | x as u64)
    };
    let table = word(bytes, 12, 8) as usize;
    for e in 0..word(bytes, table, 4) as usize {
        let at = table + 4 + e * 28;
        if word(bytes, at, 4) == id as u64 {
            let (off, len) = (word(bytes, at + 4, 8) as usize, word(bytes, at + 12, 8) as usize);
            let sum = graphkit::wire::fnv1a64(&bytes[off..off + len]);
            bytes[at + 20..at + 28].copy_from_slice(&sum.to_le_bytes());
        }
    }
}

/// `(absolute payload offset, word count)` of the PLANS section's
/// source-index column: n, k, then dense flags, ranges, centers,
/// search bounds and source indices, each length-prefixed.
fn plan_ix_column(path: &std::path::Path) -> (usize, usize) {
    let sr = graphkit::wire::SnapshotReader::open(path).expect("open");
    let plans = sr.section(SEC_PLANS).expect("plans");
    let (base, _) = sr.section_range(SEC_PLANS).expect("plans range");
    let mut r = graphkit::wire::Reader::new(&plans);
    let (n, k) = (r.u64().unwrap() as usize, r.u64().unwrap() as usize);
    r.slice_u8().unwrap();
    r.slice_u32().unwrap();
    r.slice_u32().unwrap();
    r.slice_u8().unwrap();
    let words = r.len().unwrap();
    assert_eq!(words, n * k, "one source index per (node, level)");
    (base as usize + r.position(), words)
}

#[test]
fn corrupt_plan_source_indices_miss_instead_of_misrouting() {
    // Every route reads its source's tree index from the plan and
    // checks it against the tree before use. Point every index out of
    // range, or at another node of the same tree: a resident load may
    // refuse the snapshot, and whatever loads must report each level
    // as a miss — no panic, no delivery to the wrong node.
    let g = Family::Geometric.generate(90, 0x54B5);
    let d = apsp(&g);
    let scheme = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(2, 0x54B5));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read back");
    let (at, words) = plan_ix_column(&path.0);
    let queries = pairs::sample(g.n(), 200, 0x54B6);
    let bad = TempPath::new();
    type Edit = fn(u32) -> u32;
    let edits: [(&str, Edit); 3] = [
        ("out of range", |_| u32::MAX - 1),
        ("past the tree", |ix| ix.wrapping_add(1 << 20)),
        ("another host", |ix| if ix == 0 { 1 } else { ix - 1 }),
    ];
    for (what, edit) in edits {
        let mut corrupt = bytes.clone();
        for w in 0..words {
            let word = &mut corrupt[at + 4 * w..at + 4 * w + 4];
            let ix = u32::from_le_bytes(word.try_into().unwrap());
            word.copy_from_slice(&edit(ix).to_le_bytes());
        }
        reseal_section(&mut corrupt, SEC_PLANS);
        std::fs::write(&bad.0, &corrupt).expect("write corrupt");
        let loads = [("resident", Scheme::load(&bad.0)), ("lazy", Scheme::load_lazy(&bad.0))];
        for (mode, loaded) in loads {
            let Ok(loaded) = loaded else {
                assert_eq!(mode, "resident", "{what}: a lazy load reads plans like a resident one");
                continue;
            };
            for &(s, t) in &queries {
                let trace = loaded.route(s, t);
                assert_eq!(trace.path.first(), Some(&s), "{what} {mode} {s}->{t}");
                assert!(!trace.delivered || s == t, "{what} {mode} {s}->{t} delivered");
                assert_eq!(trace.path.last(), Some(&s), "{what} {mode} {s}->{t} left the source");
            }
        }
    }
}

#[test]
fn version_1_snapshots_are_rejected() {
    // Version 2 added the plans' source-index column and version 3
    // wrote tree records as their 64-byte node rows; an older file must
    // fail to open rather than be misparsed.
    let g = Family::Geometric.generate(60, 0x54B7);
    let d = apsp(&g);
    let scheme = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(2, 0x54B7));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let mut bytes = std::fs::read(&path.0).expect("read back");
    assert_eq!(bytes[8..12], 3u32.to_le_bytes());
    assert_eq!(bytes[8..12], graphkit::wire::SNAPSHOT_VERSION.to_le_bytes());
    for old in [1u32, 2] {
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&path.0, &bytes).expect("write old version");
        assert!(Scheme::load(&path.0).is_err(), "resident load of a version-{old} snapshot");
        assert!(Scheme::load_lazy(&path.0).is_err(), "lazy load of a version-{old} snapshot");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The acceptance criterion across random (family, n, k, seed):
    /// save → load → route is bit-identical on sampled pairs.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        fam_ix in 0usize..5,
        n in 60usize..120,
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let fam = [
            Family::Geometric,
            Family::ErdosRenyi,
            Family::Grid,
            Family::ExpRing,
            Family::PrefAttach,
        ][fam_ix];
        let g = fam.generate(n, seed);
        let d = apsp(&g);
        let scheme = Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(k, seed));
        let path = TempPath::new();
        scheme.save(&path.0).expect("save");
        let loaded = Scheme::load(&path.0).expect("load");
        for (s, t) in pairs::sample(g.n(), 150, seed ^ 0x5AB) {
            let ta = scheme.route(s, t);
            let tb = loaded.route(s, t);
            prop_assert_eq!(ta.delivered, tb.delivered, "{}->{}", s, t);
            prop_assert_eq!(ta.cost, tb.cost, "{}->{}", s, t);
            prop_assert_eq!(&ta.path, &tb.path, "{}->{}", s, t);
        }
    }
}
