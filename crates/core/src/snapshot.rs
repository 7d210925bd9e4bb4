//! Versioned on-disk [`Scheme`] snapshots: build once, serve anywhere.
//!
//! A snapshot is a [`graphkit::wire`] container (magic, format
//! version, checksummed section table) holding every routing-time
//! structure of a scheme in its flat-arena wire form:
//!
//! | section | contents |
//! |---|---|
//! | `META` | construction params, build stats, header accounting |
//! | `GRAPH` | the host graph's CSR arenas |
//! | `DECOMPOSITION` | ranges `a(u, i)` + `⌈log₂Δ⌉` |
//! | `HIERARCHY` | landmark levels `C_0 … C_{k−1}` |
//! | `PLANS` | per-(node, level) plans, SoA, with the source's tree index |
//! | `LANDMARK_BITS` | per-node landmark storage accounting |
//! | `CENTER_DIR` | center id → extent into `CENTER_TREES` |
//! | `CENTER_TREES` | concatenated Lemma-4 tree records |
//! | `SCALE_COVERS` | per dense scale: home map + Lemma-7 trees |
//!
//! A tree record is the tree's 64-byte node rows plus its flat arenas
//! — the layout the tree has in memory (format version 3) — so loading
//! is validation plus a row copy into the same trees routing uses — no
//! Dijkstras, no tree construction, no hashing re-derivation — and a
//! scheme saved by one process and loaded by another routes
//! bit-identically (asserted by `tests/snapshot_parity.rs`).
//!
//! [`Scheme::load`] materializes every center tree in memory;
//! [`Scheme::load_lazy`] leaves the (dominant) center-tree section on
//! disk and serves records through the spill store, which preads each
//! record a route needs into a per-thread buffer and searches it in
//! place without decoding — the spill substrate and the snapshot
//! format share their per-record layout, so a spilled build saves by
//! copying record bytes verbatim. Lazy mode trades the one-time
//! section checksum for not reading the section at all; every record
//! fetch is still validated structurally before a route uses it.

use std::io;
use std::path::Path;
use std::sync::Arc;

use decomposition::Decomposition;
use graphkit::wire::{self, Reader, SnapshotReader, SnapshotWriter, Writer};
use graphkit::Graph;
use landmarks::LandmarkHierarchy;
use treeroute::cover_router::CoverTreeRouter;
use treeroute::laing::ErrorReportingTree;

use crate::center_store::{CenterStore, SpillStore};
use crate::scheme::{
    scale_cover, BuildStats, CoverEntry, ForceMode, HierarchySource, LevelPlan, SBudgetMode,
    ScaleCover, Scheme, SchemeParams,
};

/// Section ids (stable across snapshot versions; never reuse).
const SEC_META: u32 = 1;
const SEC_GRAPH: u32 = 2;
const SEC_DECOMPOSITION: u32 = 3;
const SEC_HIERARCHY: u32 = 4;
const SEC_PLANS: u32 = 5;
const SEC_LANDMARK_BITS: u32 = 6;
const SEC_CENTER_DIR: u32 = 7;
const SEC_CENTER_TREES: u32 = 8;
const SEC_SCALE_COVERS: u32 = 9;

impl Scheme {
    /// Write the scheme to `path` as a versioned snapshot. The output
    /// is byte-deterministic: every keyed collection is serialized in
    /// sorted key order.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut sw = SnapshotWriter::create(path)?;

        sw.section(SEC_META, &self.encode_meta())?;

        let mut w = Writer::new();
        self.g.to_wire(&mut w);
        sw.section(SEC_GRAPH, &w.into_bytes())?;

        let mut w = Writer::new();
        self.dec.to_wire(&mut w);
        sw.section(SEC_DECOMPOSITION, &w.into_bytes())?;

        let mut w = Writer::new();
        w.u64(self.hier.n() as u64);
        w.u64(self.hier.k() as u64);
        for level in self.hier.levels() {
            w.slice_u32(level);
        }
        sw.section(SEC_HIERARCHY, &w.into_bytes())?;

        sw.section(SEC_PLANS, &self.encode_plans())?;

        let mut w = Writer::new();
        w.slice_u64(&self.landmark_bits);
        sw.section(SEC_LANDMARK_BITS, &w.into_bytes())?;

        // Center trees: streamed payload-by-payload (a spilled store
        // copies record bytes straight from the spill file), with the
        // directory accumulated alongside and written as its own
        // section.
        let centers = self.center_store.centers();
        let mut dir = Writer::new();
        dir.len(centers.len());
        let mut off = 0u64;
        sw.begin_section(SEC_CENTER_TREES);
        for &c in &centers {
            let payload = self.center_store.payload(c)?;
            sw.write(&payload)?;
            dir.u32(c);
            dir.u64(off);
            dir.u32(payload.len() as u32);
            off += payload.len() as u64;
        }
        sw.end_section();
        sw.section(SEC_CENTER_DIR, &dir.into_bytes())?;

        let mut w = Writer::new();
        w.len(self.scale_covers.len());
        for sc in &self.scale_covers {
            w.u32(sc.scale);
            w.slice_u32(&sc.home);
            w.len(sc.routers.len());
            for entry in &sc.routers {
                entry.router.to_wire(&mut w);
            }
        }
        sw.section(SEC_SCALE_COVERS, &w.into_bytes())?;

        sw.finish()
    }

    /// Load a snapshot with every center tree resident in memory (the
    /// serving default: no disk reads on the route path). Every
    /// section is checksum-verified before decoding; center trees
    /// decode in parallel.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Scheme> {
        Self::load_impl(path, false)
    }

    /// Load a snapshot leaving the center-tree records on disk: the
    /// snapshot file itself becomes the spill store's backing file,
    /// and routing reads records in place from it. Peak memory
    /// excludes the Õ(n^{1+1/k}) tree state, exactly as a spilled
    /// build does. The center-trees section's checksum is *not*
    /// verified (that would require reading it whole); every other
    /// section is.
    pub fn load_lazy(path: impl AsRef<Path>) -> io::Result<Scheme> {
        Self::load_impl(path, true)
    }

    fn load_impl(path: impl AsRef<Path>, lazy: bool) -> io::Result<Scheme> {
        let sr = SnapshotReader::open(path)?;

        let meta_bytes = sr.section(SEC_META)?;
        let (params, stats, max_center_label_bits) = decode_meta(&mut Reader::new(&meta_bytes))?;
        let k = params.k;

        let graph_bytes = sr.section(SEC_GRAPH)?;
        let g = Graph::from_wire(&mut Reader::new(&graph_bytes))?;
        let n = g.n();

        let dec_bytes = sr.section(SEC_DECOMPOSITION)?;
        let dec = Decomposition::from_wire(&mut Reader::new(&dec_bytes))?;
        if dec.k() != k || dec.n() != n {
            return Err(wire::invalid("decomposition does not match the graph"));
        }

        let hier_bytes = sr.section(SEC_HIERARCHY)?;
        let hier = decode_hierarchy(&mut Reader::new(&hier_bytes), n, k)?;

        let plan_bytes = sr.section(SEC_PLANS)?;
        let plans = decode_plans(&mut Reader::new(&plan_bytes), n, k)?;

        let lb_bytes = sr.section(SEC_LANDMARK_BITS)?;
        let landmark_bits = Reader::new(&lb_bytes).slice_u64()?;
        if landmark_bits.len() != n {
            return Err(wire::invalid("landmark-bits table has wrong length"));
        }

        let dir_bytes = sr.section(SEC_CENTER_DIR)?;
        let dir = decode_center_dir(&mut Reader::new(&dir_bytes))?;
        for row in &plans {
            for p in row {
                if !p.dense && dir.binary_search_by_key(&p.center, |e| e.0).is_err() {
                    return Err(wire::invalid("plan references a center with no tree"));
                }
            }
        }

        let covers_bytes = sr.section(SEC_SCALE_COVERS)?;
        let scale_covers = decode_scale_covers(&mut Reader::new(&covers_bytes), n)?;
        for row in &plans {
            for p in row {
                if p.dense && scale_cover(&scale_covers, p.a).is_none() {
                    return Err(wire::invalid("plan references a scale with no cover"));
                }
            }
        }

        let center_store = if lazy {
            let (sec_off, sec_len) = sr.section_range(SEC_CENTER_TREES)?;
            let mut index = Vec::with_capacity(dir.len());
            for &(c, off, len) in &dir {
                if off.checked_add(len as u64).is_none_or(|end| end > sec_len) {
                    return Err(wire::invalid("center record extends past its section"));
                }
                index.push((c, sec_off + off, len));
            }
            // CENTER_DIR is strictly ascending (decode_center_dir), so
            // the index is already sorted for the store's binary search.
            CenterStore::Spilled(SpillStore::from_file_index(sr.into_file(), index))
        } else {
            let bytes = sr.section(SEC_CENTER_TREES)?;
            CenterStore::resident(n, decode_center_trees(&bytes, &dir)?)
        };

        Ok(Scheme {
            g,
            params,
            dec,
            hier,
            plans,
            center_store,
            landmark_bits,
            max_center_label_bits,
            scale_covers,
            stats,
            repair_state: None,
        })
    }

    fn encode_meta(&self) -> Vec<u8> {
        let p = &self.params;
        let mut w = Writer::new();
        w.u64(p.k as u64);
        w.u64(p.seed);
        w.u32(p.landmark_attempts);
        w.u64(p.s_margin as u64);
        w.u8(match p.force_mode {
            None => 0,
            Some(ForceMode::AllSparse) => 1,
            Some(ForceMode::AllDense) => 2,
        });
        w.u8(match p.hierarchy {
            HierarchySource::SampledVerified => 0,
            HierarchySource::Greedy => 1,
        });
        w.u8(match p.s_budget_mode {
            SBudgetMode::Global => 0,
            SBudgetMode::PerNode => 1,
        });
        w.u8(p.spill as u8);
        w.u64(self.max_center_label_bits);
        let st = &self.stats;
        w.u64(st.lemma3_violations as u64);
        w.u64(st.lemma3_checked as u64);
        w.u64(st.num_center_trees as u64);
        w.u64(st.num_scales as u64);
        w.u64(st.num_cover_trees as u64);
        w.u64(st.total_members as u64);
        let budgets: Vec<u64> = st.s_budgets.iter().map(|&b| b as u64).collect();
        w.slice_u64(&budgets);
        w.len(st.phase_seconds.len());
        for (name, secs) in &st.phase_seconds {
            w.str(name);
            w.f64(*secs);
        }
        w.into_bytes()
    }

    fn encode_plans(&self) -> Vec<u8> {
        let n = self.g.n();
        let k = self.params.k;
        let mut dense = Vec::with_capacity(n * k);
        let mut a = Vec::with_capacity(n * k);
        let mut center = Vec::with_capacity(n * k);
        let mut b = Vec::with_capacity(n * k);
        let mut ix = Vec::with_capacity(n * k);
        for row in &self.plans {
            for p in row {
                dense.push(p.dense as u8);
                a.push(p.a);
                center.push(p.center);
                b.push(p.b);
                ix.push(p.ix);
            }
        }
        let mut w = Writer::new();
        w.u64(n as u64);
        w.u64(k as u64);
        w.slice_u8(&dense);
        w.slice_u32(&a);
        w.slice_u32(&center);
        w.slice_u8(&b);
        w.slice_u32(&ix);
        w.into_bytes()
    }
}

fn decode_meta(r: &mut Reader<'_>) -> io::Result<(SchemeParams, BuildStats, u64)> {
    let k = r.u64()? as usize;
    let seed = r.u64()?;
    let landmark_attempts = r.u32()?;
    let s_margin = r.u64()? as usize;
    let force_mode = match r.u8()? {
        0 => None,
        1 => Some(ForceMode::AllSparse),
        2 => Some(ForceMode::AllDense),
        _ => return Err(wire::invalid("bad force-mode tag")),
    };
    let hierarchy = match r.u8()? {
        0 => HierarchySource::SampledVerified,
        1 => HierarchySource::Greedy,
        _ => return Err(wire::invalid("bad hierarchy tag")),
    };
    let s_budget_mode = match r.u8()? {
        0 => SBudgetMode::Global,
        1 => SBudgetMode::PerNode,
        _ => return Err(wire::invalid("bad budget-mode tag")),
    };
    let spill = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(wire::invalid("bad spill tag")),
    };
    if k < 1 {
        return Err(wire::invalid("k must be at least 1"));
    }
    let max_center_label_bits = r.u64()?;
    let mut stats = BuildStats {
        lemma3_violations: r.u64()? as usize,
        lemma3_checked: r.u64()? as usize,
        num_center_trees: r.u64()? as usize,
        num_scales: r.u64()? as usize,
        num_cover_trees: r.u64()? as usize,
        total_members: r.u64()? as usize,
        ..BuildStats::default()
    };
    stats.s_budgets = r.slice_u64()?.into_iter().map(|b| b as usize).collect();
    let phases = r.len()?;
    stats.phase_seconds = (0..phases)
        .map(|_| Ok((r.str()?, r.f64()?)))
        .collect::<io::Result<Vec<(String, f64)>>>()?;
    let params = SchemeParams {
        k,
        seed,
        landmark_attempts,
        s_margin,
        force_mode,
        hierarchy,
        s_budget_mode,
        spill,
        // Repair state is build-time-only and never serialized; a
        // loaded scheme's first repair() falls back to a full rebuild.
        repairable: false,
    };
    Ok((params, stats, max_center_label_bits))
}

fn decode_hierarchy(r: &mut Reader<'_>, n: usize, k: usize) -> io::Result<LandmarkHierarchy> {
    if r.u64()? as usize != n || r.u64()? as usize != k {
        return Err(wire::invalid("hierarchy does not match the graph"));
    }
    let levels = (0..k).map(|_| r.slice_u32()).collect::<io::Result<Vec<Vec<u32>>>>()?;
    LandmarkHierarchy::try_from_levels(n, k, levels).map_err(|msg| wire::invalid(&msg))
}

fn decode_plans(r: &mut Reader<'_>, n: usize, k: usize) -> io::Result<Vec<Vec<LevelPlan>>> {
    if r.u64()? as usize != n || r.u64()? as usize != k {
        return Err(wire::invalid("plan table does not match the graph"));
    }
    let dense = r.slice_u8()?;
    let a = r.slice_u32()?;
    let center = r.slice_u32()?;
    let b = r.slice_u8()?;
    // The source's tree index is checked against the tree at route
    // time (a mismatch is a miss), so any value decodes.
    let ix = r.slice_u32()?;
    if [dense.len(), a.len(), center.len(), b.len(), ix.len()].iter().any(|&len| len != n * k) {
        return Err(wire::invalid("plan table has wrong length"));
    }
    let mut cells = dense.into_iter().zip(a).zip(center).zip(b).zip(ix);
    let mut plans = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(k);
        for ((((dense, a), center), b), ix) in cells.by_ref().take(k) {
            let dense = match dense {
                0 => false,
                1 => true,
                _ => return Err(wire::invalid("bad dense flag")),
            };
            if !dense && center as usize >= n {
                return Err(wire::invalid("plan center out of range"));
            }
            if b < 1 || b as usize > k {
                return Err(wire::invalid("plan search bound out of range"));
            }
            row.push(LevelPlan { dense, a, center, b, ix });
        }
        plans.push(row);
    }
    Ok(plans)
}

/// `(center, offset-within-section, byte length)`, ascending by center.
fn decode_center_dir(r: &mut Reader<'_>) -> io::Result<Vec<(u32, u64, u32)>> {
    let count = r.len()?;
    let mut dir = Vec::with_capacity(count);
    for _ in 0..count {
        dir.push((r.u32()?, r.u64()?, r.u32()?));
    }
    // lint:allow(panic-free-serve): windows(2) yields exactly-2-element slices, so p[0]/p[1] are in bounds
    if dir.windows(2).any(|p| p[0].0 >= p[1].0) {
        return Err(wire::invalid("center directory is not sorted"));
    }
    Ok(dir)
}

fn decode_center_trees(
    bytes: &[u8],
    dir: &[(u32, u64, u32)],
) -> io::Result<Vec<(u32, Arc<ErrorReportingTree>)>> {
    for &(_, off, len) in dir {
        if off.checked_add(len as u64).is_none_or(|end| end > bytes.len() as u64) {
            return Err(wire::invalid("center record extends past its section"));
        }
    }
    // merge: one shard per chunk of directory rows, extended into the map in chunk order.
    let shards = graphkit::metrics::par_chunks(dir.len(), |range| {
        range
            .map(|di| {
                // lint:allow(panic-free-serve): di ranges over 0..dir.len() by construction of par_chunks
                let (c, off, len) = dir[di];
                // lint:allow(panic-free-serve): every (off, len) was bounds-checked against the section above
                let record = &bytes[off as usize..off as usize + len as usize];
                let ert = ErrorReportingTree::from_wire(&mut Reader::new(record))?;
                Ok((c, Arc::new(ert)))
            })
            .collect::<io::Result<Vec<(u32, Arc<ErrorReportingTree>)>>>()
    });
    let mut out = Vec::with_capacity(dir.len());
    for shard in shards {
        out.extend(shard?);
    }
    Ok(out)
}

/// Scale covers, ascending by scale.
fn decode_scale_covers(r: &mut Reader<'_>, n: usize) -> io::Result<Vec<ScaleCover>> {
    let count = r.len()?;
    let mut out = Vec::with_capacity(count);
    let mut prev: Option<u32> = None;
    for _ in 0..count {
        let s = r.u32()?;
        if prev.is_some_and(|p| p >= s) {
            return Err(wire::invalid("scale covers are not sorted"));
        }
        prev = Some(s);
        let home = r.slice_u32()?;
        if home.len() != n {
            return Err(wire::invalid("cover home map has wrong length"));
        }
        let routers = r.len()?;
        let routers = (0..routers)
            .map(|_| Ok(CoverEntry::from_router(CoverTreeRouter::from_wire(r)?)))
            .collect::<io::Result<Vec<CoverEntry>>>()?;
        if home.iter().any(|&h| h != u32::MAX && h as usize >= routers.len()) {
            return Err(wire::invalid("cover home map points past its routers"));
        }
        out.push(ScaleCover { scale: s, routers, home });
    }
    Ok(out)
}
