//! The lifecycle benchmark of the scale-free name-independent routing
//! scheme (Abraham–Gavoille–Malkhi, SPAA 2006, Theorem 1).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the whole lifecycle through the library's
//! public API on a pref-attach graph with n = 3000, k = 2: build →
//! save → load (in a separate serving process) → serve → mutate →
//! repair → re-serve. The workloads differ in where the measured
//! window goes:
//!
//! * `serve-resident` — the serving process loads the snapshot with
//!   `Scheme::load` and serves uniform random pairs for `--seconds`;
//! * `serve-lazy` — the same, opened with `Scheme::load_lazy`, so the
//!   center-tree store reads and decodes records on demand;
//! * `churn-repair` — a fixed number of mutation epochs (one per
//!   [`CHURN_EPOCH_SECONDS`] of `--seconds`, at least two): each
//!   applies a seeded edge-only delta batch, times `Scheme::repair`,
//!   and re-serves on the mutated graph; the re-serve windows together
//!   last `--seconds`.
//!
//! The graph and the scheme's own seed are the fixed reference
//! instance of the repository's `serve` and `churn` experiments;
//! `--seed` draws everything else (query lists, the checked sample,
//! the mutation schedule). Every route of the checked sample is
//! validated on the current graph (see [`check`]); a wrong route makes
//! the run print `"correct": false` and exit 1.
//!
//! The last stdout line is one JSON object. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` makes the extra calls that split
//! them by layer and reports the per-layer metrics instead. The layer
//! timings are taken around public calls, from this package only.

#![forbid(unsafe_code)]

mod check;
mod serving;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use decomposition::Decomposition;
use graphkit::gen::{self, WeightDist};
use graphkit::wire::{fnv1a64, Reader, SnapshotReader};
use graphkit::{apply_deltas, delta_impact, Graph, NodeId};
use landmarks::LandmarkHierarchy;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_core::churn::{ChurnConfig, ChurnPlan};
use routing_core::{RepairOutcome, Scheme, SchemeParams};
use sim::pairs;

use check::{store_walks, Gate};
use serving::{Window, QUERY_LIST};

/// Graph size and scheme parameter of every workload.
const N: usize = 3_000;
const K: usize = 2;
/// Edges per arriving node of the pref-attach generator.
const ATTACH: usize = 3;
/// The checked sample: sources × targets per source, per check.
const SAMPLE_SOURCES: usize = 256;
const SAMPLE_TARGETS: usize = 16;
/// Stretch is measured on a fixed pair set per workload (sources ×
/// targets per source), so that its tail does not move with `--seed`:
/// the maximum over a seeded sample of 50 000 uniform pairs ranged
/// from 6.2 to 10 on the serving graph.
const STRETCH_SOURCES: usize = 512;
const STRETCH_TARGETS: usize = 40;
const STRETCH_SEED: u64 = 0x57E7;
/// Leading routes of the checked sample the serving process must
/// reproduce exactly.
const SNAPSHOT_CHECK: usize = 1_024;
/// `setup_s` is the median of batches of input generations, each
/// running for this many seconds, taken at five points spread through
/// the run. One generation takes 12–20 ms, and a shared host switches
/// between its fast and slow speed every few hundred milliseconds.
const SETUP_BATCH_SECONDS: f64 = 0.2;
/// `churn-repair` runs one epoch per this many seconds of `--seconds`,
/// and at least [`CHURN_MIN_EPOCHS`]; each epoch fails and reweights
/// this many edges.
const CHURN_EPOCH_SECONDS: u32 = 5;
const CHURN_MIN_EPOCHS: usize = 2;
const CHURN_FAILS: usize = 3;
const CHURN_REWEIGHTS: usize = 3;
/// Serving window of the serving process on `churn-repair`, whose
/// measured window is the re-serve after each repair.
const CHURN_SERVE_SECONDS: f64 = 3.0;
/// Where a run keeps its snapshot, relative to the working directory.
const WORK_DIR: &str = ".bench_work";
/// Snapshot sections: wire id and metric suffix.
const SECTIONS: [(u32, &str); 9] = [
    (1, "meta"),
    (2, "graph"),
    (3, "decomposition"),
    (4, "hierarchy"),
    (5, "plans"),
    (6, "landmark_bits"),
    (7, "center_dir"),
    (8, "center_trees"),
    (9, "scale_covers"),
];
const SECTION_GRAPH: u32 = 2;
const SECTION_CENTER_TREES: u32 = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeResident,
    ServeLazy,
    ChurnRepair,
}

impl Workload {
    fn named(name: &str) -> Result<Self, String> {
        match name {
            "serve-resident" => Ok(Workload::ServeResident),
            "serve-lazy" => Ok(Workload::ServeLazy),
            "churn-repair" => Ok(Workload::ChurnRepair),
            _ => Err(format!("unknown workload {name:?}")),
        }
    }

    /// Generator weights and seeds of the reference instance: the
    /// `serve` experiment's for the serving workloads, the `churn`
    /// experiment's for `churn-repair`.
    fn max_exp(self) -> u32 {
        if self == Workload::ChurnRepair {
            30
        } else {
            20
        }
    }

    fn scheme_seed(self) -> u64 {
        if self == Workload::ChurnRepair {
            0xC4A0
        } else {
            0x5EB0
        }
    }

    fn graph_seed(self) -> u64 {
        self.scheme_seed() + N as u64
    }

    /// Mutation epochs of a run: one after the window on the serving
    /// workloads, a number fixed by `seconds` on `churn-repair`.
    fn epochs(self, seconds: u32) -> usize {
        if self == Workload::ChurnRepair {
            ((seconds / CHURN_EPOCH_SECONDS) as usize).max(CHURN_MIN_EPOCHS)
        } else {
            1
        }
    }
}

/// `--key value` command-line options.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn from_pairs(raw: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for pair in raw.chunks(2) {
            match pair {
                [k, v] if k.starts_with("--") => {
                    map.insert(k[2..].to_string(), v.clone());
                }
                _ => return Err(format!("expected --key value, got {pair:?}")),
            }
        }
        Ok(Args(map))
    }

    pub fn text(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.text(key)?;
        v.parse().map_err(|_| format!("--{key}: not a number: {v:?}"))
    }
}

/// A seed for one purpose (`salt`) derived from the run's `--seed`
/// (splitmix64 finalizer).
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Call `f` until `seconds` are spent (at least once); returns the mean
/// seconds per call and the last call's result.
pub fn mean_call_seconds<T>(seconds: f64, mut f: impl FnMut() -> T) -> (f64, T) {
    let started = Instant::now();
    let mut calls = 0;
    loop {
        let out = f();
        calls += 1;
        let spent = started.elapsed().as_secs_f64();
        if spent >= seconds {
            return (spent / calls as f64, out);
        }
    }
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    graphkit::metrics::peak_rss_kib().unwrap_or(0) as f64 / 1024.0
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`; 0 when
/// empty.
pub fn nearest_rank(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Everything a run derives from `--seed`, plus the reference graph
/// and the stretch pairs.
struct Inputs {
    g: Graph,
    sample: Vec<(NodeId, NodeId)>,
    stretch_pairs: Vec<(NodeId, NodeId)>,
    plan: ChurnPlan,
}

impl Inputs {
    fn draw(wl: Workload, seed: u64, seconds: u32) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(wl.graph_seed());
        let weights = WeightDist::PowerOfTwo { max_exp: wl.max_exp() };
        let g = gen::preferential_attachment(N, ATTACH, weights, &mut rng);
        let sample = pairs::sample_grouped(N, SAMPLE_SOURCES, SAMPLE_TARGETS, sub_seed(seed, 1));
        let cfg = ChurnConfig::edges_only(
            sub_seed(seed, 2),
            wl.epochs(seconds),
            CHURN_FAILS,
            CHURN_REWEIGHTS,
        );
        let plan = ChurnPlan::generate(&g, &cfg);
        let stretch_pairs =
            pairs::sample_grouped(N, STRETCH_SOURCES, STRETCH_TARGETS, STRETCH_SEED);
        Inputs { g, sample, stretch_pairs, plan }
    }
}

/// Metric name, value, unit — in report order.
type Metrics = Vec<(String, f64, &'static str)>;

/// What one run measured.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    /// Latency samples and segments behind `route_p50_us` and
    /// `route_p99_us`.
    latency_samples: usize,
    latency_segments: usize,
}

/// The serving process's `key value` report.
struct ServeReport(BTreeMap<String, f64>);

impl ServeReport {
    fn reported(&self, key: &str) -> Result<f64, String> {
        self.0.get(key).copied().ok_or_else(|| format!("serving process did not report {key}"))
    }
}

fn spawn_serving(
    snapshot: &Path,
    walks: &Path,
    lazy: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ServeReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("serve")
        .args(["--snapshot", &snapshot.display().to_string()])
        .args(["--walks", &walks.display().to_string()])
        .args(["--lazy", if lazy { "1" } else { "0" }])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("serving process: {e}"))?;
    if !output.status.success() {
        return Err(format!("serving process failed: {}", output.status));
    }
    let mut map = BTreeMap::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some((k, v)) = line.split_once(' ') {
            let v: f64 = v.parse().map_err(|_| format!("serving process: bad line {line:?}"))?;
            map.insert(k.to_string(), v);
        }
    }
    Ok(ServeReport(map))
}

/// Per-epoch repair numbers.
#[derive(Default)]
struct Epochs {
    repair_s: Vec<f64>,
    apply_deltas_s: Vec<f64>,
    delta_impact_s: Vec<f64>,
    dirty_nodes: Vec<f64>,
    trees_rebuilt: Vec<f64>,
    trees_reused: Vec<f64>,
    scales_rebuilt: Vec<f64>,
    b_recomputed: Vec<f64>,
    reuse_frac: Vec<f64>,
    /// Routes re-served after the repairs (`churn-repair`).
    reserve: Window,
}

/// Run one workload's lifecycle; the run's temporary files are removed
/// however it ends.
fn lifecycle(wl: Workload, seed: u64, seconds: u32, trace: bool) -> Result<Outcome, String> {
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    // The pid in the names lets run.py remove the files of a run it
    // had to kill.
    let tag = format!("{}-{}", std::process::id(), seed);
    let snap = work.join(format!("scheme-{tag}.snap"));
    let walks = work.join(format!("walks-{tag}.txt"));
    let outcome = lifecycle_in(wl, seed, seconds, trace, &snap, &walks);
    for p in [&snap, &walks] {
        let _ = std::fs::remove_file(p);
    }
    outcome
}

fn lifecycle_in(
    wl: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
    snap: &Path,
    walks_path: &Path,
) -> Result<Outcome, String> {
    // ---- set-up: the inputs, timed here and at four later points ----
    let mut setup = Vec::new();
    let time_setup = |setup: &mut Vec<f64>| {
        let (s, inputs) =
            mean_call_seconds(SETUP_BATCH_SECONDS, || black_box(Inputs::draw(wl, seed, seconds)));
        setup.push(s);
        inputs
    };
    let Inputs { g, sample, stretch_pairs, plan } = time_setup(&mut setup);

    // ---- build ------------------------------------------------------
    let params = SchemeParams::new(K, wl.scheme_seed()).with_repair();
    let t = Instant::now();
    let mut scheme = Scheme::build_on_demand(g.clone(), params);
    let build_s = t.elapsed().as_secs_f64();
    let build_peak_rss_mib = peak_rss_mib();
    let build_stats = scheme.stats().clone();
    let bits_max = (0..N as u32).map(|v| scheme.storage_bits(NodeId(v))).max().unwrap_or(0);
    time_setup(&mut setup);

    let mut gate = Gate::default();
    let walks = gate.validate_sample(&scheme, &g, &sample);
    let mut stretch: Vec<f64> = gate
        .validate_sample(&scheme, &g, &stretch_pairs)
        .iter()
        .filter_map(|w| w.stretch)
        .collect();
    stretch.sort_by(f64::total_cmp);

    // ---- save -------------------------------------------------------
    let t = Instant::now();
    scheme.save(snap).map_err(|e| format!("save: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(snap).map_err(|e| e.to_string())?.len();
    store_walks(walks_path, &walks[..SNAPSHOT_CHECK.min(walks.len())])
        .map_err(|e| format!("{}: {e}", walks_path.display()))?;
    time_setup(&mut setup);

    // ---- layer splits of build and load (traced runs) ---------------
    let mut layers: Metrics = Vec::new();
    let mut reads = SectionReads::default();
    if trace {
        layers.extend(build_layers(&g, &params, build_s, &build_stats));
        layers.extend(section_layers(snap, &mut reads)?);
    }

    // ---- load + serve, in a process that never built a scheme ------
    let lazy = wl == Workload::ServeLazy;
    let serve_seconds =
        if wl == Workload::ChurnRepair { CHURN_SERVE_SECONDS } else { f64::from(seconds) };
    let served = spawn_serving(snap, walks_path, lazy, seed, serve_seconds, trace)?;
    time_setup(&mut setup);

    // ---- mutate → repair → re-serve ---------------------------------
    let mut ep = Epochs::default();
    let reserve_seconds = f64::from(seconds) / plan.epochs.len().max(1) as f64;
    let mut g_now = g;
    for (e, batch) in plan.epochs.iter().enumerate() {
        let t = Instant::now();
        let g_next = apply_deltas(&g_now, &batch.deltas);
        ep.apply_deltas_s.push(t.elapsed().as_secs_f64());
        if trace {
            let t = Instant::now();
            let impact = delta_impact(&g_now, &g_next, &batch.deltas);
            ep.delta_impact_s.push(t.elapsed().as_secs_f64());
            ep.dirty_nodes.push(impact.dirty_nodes.len() as f64);
        }
        let t = Instant::now();
        let outcome = scheme.repair(&batch.deltas);
        ep.repair_s.push(t.elapsed().as_secs_f64());
        let (rebuilt, reused, scales, b) = match outcome {
            RepairOutcome::Repaired(r) => {
                (r.trees_rebuilt, r.trees_reused, r.scales_rebuilt, r.b_recomputed)
            }
            RepairOutcome::RebuiltFull { reason, .. } => {
                eprintln!("perfbench: epoch {e} rebuilt in full ({reason:?})");
                let s = scheme.stats();
                (s.num_center_trees, 0, s.num_scales, 0)
            }
            RepairOutcome::Deferred { reason } => {
                return Err(format!("epoch {e}: repair deferred ({reason:?})"));
            }
        };
        ep.trees_rebuilt.push(rebuilt as f64);
        ep.trees_reused.push(reused as f64);
        ep.scales_rebuilt.push(scales as f64);
        ep.b_recomputed.push(b as f64);
        ep.reuse_frac.push(reused as f64 / (reused + rebuilt).max(1) as f64);
        g_now = g_next;

        let sample = pairs::sample_grouped(
            N,
            SAMPLE_SOURCES,
            SAMPLE_TARGETS,
            sub_seed(seed, 100 + e as u64),
        );
        gate.validate_sample(&scheme, &g_now, &sample);
        if wl == Workload::ChurnRepair {
            let list = pairs::sample(N, QUERY_LIST, sub_seed(seed, 200 + e as u64));
            ep.reserve.measure(&scheme, &list, reserve_seconds, false);
        }
    }
    time_setup(&mut setup);
    for m in &gate.messages {
        eprintln!("perfbench: wrong route: {m}");
    }

    // ---- report -----------------------------------------------------
    let mut attempted = gate.routes + ep.reserve.routes;
    let mut failed = gate.undelivered + ep.reserve.routes - ep.reserve.delivered;
    attempted += (served.reported("checked")? + served.reported("routes")?) as usize;
    failed += (served.reported("checked_undelivered")? + served.reported("undelivered")?) as usize;
    let correct = gate.wrong == 0 && served.reported("wrong")? == 0.0;
    let repair_s = median(&ep.repair_s);

    let (latency_samples, latency_segments) = if wl == Workload::ChurnRepair {
        (ep.reserve.latency_samples, ep.reserve.p50s.len())
    } else {
        (
            served.reported("latency_samples")? as usize,
            served.reported("latency_segments")? as usize,
        )
    };
    let metrics = if trace {
        layers.push(("core.load.unattributed_s".into(), reads.load_residual(lazy, &served)?, "s"));
        for (key, unit) in [
            ("core.route.ns_per_route", "ns"),
            ("core.route.hops_per_route", "hops"),
            ("core.route.ns_per_hop", "ns"),
            ("core.center_store.ns_per_route", "ns"),
            ("core.center_store.grouped_speedup", "ratio"),
        ] {
            layers.push((key.into(), served.reported(key)?, unit));
        }
        for (key, xs, unit) in [
            ("graphkit.apply_deltas_s", &ep.apply_deltas_s, "s"),
            ("graphkit.delta_impact_s", &ep.delta_impact_s, "s"),
            ("graphkit.delta_impact.dirty_nodes", &ep.dirty_nodes, "count"),
            ("core.repair.trees_rebuilt", &ep.trees_rebuilt, "count"),
            ("core.repair.trees_reused", &ep.trees_reused, "count"),
            ("core.repair.scales_rebuilt", &ep.scales_rebuilt, "count"),
            ("core.repair.b_recomputed", &ep.b_recomputed, "count"),
            ("core.repair.tree_reuse_frac", &ep.reuse_frac, "ratio"),
        ] {
            layers.push((key.into(), median(xs), unit));
        }
        layers.push(("core.repair.vs_build".into(), repair_s / build_s, "ratio"));
        for (key, unit) in [
            ("baselines.sp_tables.ns_per_route", "ns"),
            ("baselines.sp_tables.ns_per_hop", "ns"),
            ("trace_overhead_frac", "ratio"),
        ] {
            layers.push((key.into(), served.reported(key)?, unit));
        }
        layers
    } else {
        let (rate, p50, p99, delivered_frac) = if wl == Workload::ChurnRepair {
            ep.reserve.medians()
        } else {
            let routes = served.reported("routes")?;
            (
                served.reported("routes_per_s")?,
                served.reported("route_p50_us")?,
                served.reported("route_p99_us")?,
                (routes - served.reported("undelivered")?) / routes.max(1.0),
            )
        };
        vec![
            ("routes_per_s".into(), rate, "1/s"),
            ("route_p50_us".into(), p50, "us"),
            ("route_p99_us".into(), p99, "us"),
            ("delivered_frac".into(), delivered_frac, "ratio"),
            ("stretch_p99".into(), nearest_rank(&stretch, 99), "ratio"),
            ("stretch_max".into(), stretch.last().copied().unwrap_or(0.0), "ratio"),
            ("node_storage_bits_max".into(), bits_max as f64, "bits"),
            ("setup_s".into(), median(&setup), "s"),
            ("build_s".into(), build_s, "s"),
            ("save_s".into(), save_s, "s"),
            ("load_s".into(), served.reported("load_s")?, "s"),
            ("snapshot_mib".into(), mib(snapshot_bytes), "MiB"),
            ("build_peak_rss_mib".into(), build_peak_rss_mib, "MiB"),
            ("serve_peak_rss_mib".into(), served.reported("serve_peak_rss_mib")?, "MiB"),
            ("repair_s".into(), repair_s, "s"),
        ]
    };
    Ok(Outcome { correct, attempted, failed, metrics, latency_samples, latency_segments })
}

/// The build split by layer: the pre-assembly calls, timed one by one
/// on the same graph, then the assembly phases from `Scheme::stats`,
/// and the residual that neither accounts for.
fn build_layers(
    g: &Graph,
    params: &SchemeParams,
    build_s: f64,
    stats: &routing_core::BuildStats,
) -> Metrics {
    let t = Instant::now();
    let diameter = graphkit::diameter_matrix_free(g);
    let diameter_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(Decomposition::build_on_demand_with_diameter(g, K, diameter));
    let decomposition_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(LandmarkHierarchy::sample_verified_on_demand(
        g,
        K,
        params.seed,
        params.landmark_attempts,
        diameter,
    ));
    let landmarks_s = t.elapsed().as_secs_f64();

    let mut out: Metrics = vec![
        ("graphkit.diameter_s".into(), diameter_s, "s"),
        ("decomposition.build_s".into(), decomposition_s, "s"),
        ("landmarks.sample_verified_s".into(), landmarks_s, "s"),
    ];
    let mut attributed = diameter_s + decomposition_s + landmarks_s;
    for phase in ["plans", "budgets", "members", "center_trees", "b_levels", "covers"] {
        let s: f64 =
            stats.phase_seconds.iter().filter(|(name, _)| name == phase).map(|(_, s)| s).sum();
        attributed += s;
        out.push((format!("core.build.phase.{phase}_s"), s, "s"));
    }
    out.extend([
        ("core.build.unattributed_s".into(), build_s - attributed, "s"),
        ("core.build.center_trees".into(), stats.num_center_trees as f64, "count"),
        ("core.build.total_members".into(), stats.total_members as f64, "count"),
    ]);
    out
}

/// Summed snapshot-read times of a traced run, seconds.
#[derive(Default)]
struct SectionReads {
    /// `SnapshotReader::section` on the center-tree section.
    trees: f64,
    /// The same on every other section.
    others: f64,
    /// `Graph::from_wire` on the graph section.
    graph_decode: f64,
}

impl SectionReads {
    /// The load residual: the serving process's load time minus the
    /// section reads that load performs (a lazy load skips the tree
    /// section) and the graph decode.
    fn load_residual(&self, lazy: bool, served: &ServeReport) -> Result<f64, String> {
        let reads = if lazy { self.others } else { self.others + self.trees };
        Ok(served.reported("load_s")? - reads - self.graph_decode)
    }
}

/// Snapshot reads by section: `SnapshotReader::section` (read and
/// checksum verify) per section, `fnv1a64` alone over the same bytes,
/// and `Graph::from_wire` on the graph section.
fn section_layers(snap: &Path, reads: &mut SectionReads) -> Result<Metrics, String> {
    let sr = SnapshotReader::open(snap).map_err(|e| format!("{}: {e}", snap.display()))?;
    let mut ids = sr.section_ids();
    ids.sort_unstable();
    if ids != SECTIONS.map(|(id, _)| id) {
        return Err(format!("snapshot sections {ids:?} differ from the benchmark's table"));
    }
    let mut out = Metrics::new();
    let mut checksum_s = 0.0;
    for (id, name) in SECTIONS {
        let t = Instant::now();
        let bytes = sr.section(id).map_err(|e| format!("section {name}: {e}"))?;
        let read_s = t.elapsed().as_secs_f64();
        if id == SECTION_CENTER_TREES {
            reads.trees += read_s;
        } else {
            reads.others += read_s;
        }
        let t = Instant::now();
        black_box(fnv1a64(&bytes));
        checksum_s += t.elapsed().as_secs_f64();
        if id == SECTION_GRAPH {
            let t = Instant::now();
            let g = Graph::from_wire(&mut Reader::new(&bytes));
            reads.graph_decode += t.elapsed().as_secs_f64();
            g.map_err(|e| format!("graph section: {e}"))?;
        }
        out.push((format!("graphkit.wire.section_read_s.{name}"), read_s, "s"));
        out.push((format!("graphkit.wire.section_bytes.{name}"), bytes.len() as f64, "bytes"));
    }
    out.push(("graphkit.wire.checksum_s".into(), checksum_s, "s"));
    out.push(("graphkit.graph.from_wire_s".into(), reads.graph_decode, "s"));
    Ok(out)
}

/// One JSON number: Rust's shortest round-trip form, never exponent
/// notation for finite values.
fn json_number(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!("non-finite value {x}"))
    }
}

fn json_report(o: &Outcome) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, value, unit) in &o.metrics {
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)?
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("serve") => Args::from_pairs(&raw[1..])
            .and_then(|a| serving::ServeArgs::from_args(&a))
            .and_then(|a| serving::serving_process(&a))
            .map(|lines| {
                for (k, v) in lines {
                    println!("{k} {v}");
                }
                true
            }),
        _ => run_workload(&raw),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload and print its report; `Ok(false)` when a route
/// was wrong.
fn run_workload(raw: &[String]) -> Result<bool, String> {
    let args = Args::from_pairs(raw)?;
    let wl = Workload::named(args.text("workload")?)?;
    let seed: u64 = args.number("seed")?;
    let seconds: u32 = args.number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match args.text("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let started = Instant::now();
    let outcome = lifecycle(wl, seed, seconds, trace)?;
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "# route latency: median over {} segments of {} latency samples",
        outcome.latency_segments, outcome.latency_samples
    );
    println!(
        "# {} routes attempted, {} undelivered, run took {:.1} s",
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    println!("{}", json_report(&outcome)?);
    Ok(outcome.correct)
}
