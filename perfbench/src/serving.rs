//! Serving: the closed loop every workload measures routes with — one
//! client, one thread, each route issued when the previous returns —
//! and the serving process, which opens the snapshot in a process that
//! never built a scheme (so its peak RSS is serving memory alone),
//! proves it routes like the built scheme, and serves the window.
//!
//! The serving process prints `key value` lines that the parent folds
//! into its report.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use baselines::ShortestPathTables;
use graphkit::NodeId;
use routing_core::Scheme;
use sim::{pairs, Router};

use crate::check::{load_walks, Gate};
use crate::{mean_call_seconds, median, nearest_rank, peak_rss_mib, sub_seed, Args};

/// Length of the uniform query lists windows cycle through.
pub const QUERY_LIST: usize = 200_000;
/// Window segments: each statistic of a window is the median of its
/// per-segment values, so a burst of host load moves it less.
const SEGMENT: Duration = Duration::from_secs(1);
/// Unmeasured routing before each window, so caches are warm.
const WARMUP: Duration = Duration::from_millis(250);
/// `load_s` is the median of batches of loads, each running for this
/// many seconds (a resident load takes longer, so its batch is one
/// load). A lazy load takes milliseconds and a shared host switches
/// between its fast and slow speed every few hundred milliseconds, so
/// on a lazy store one batch is timed before the window and one after
/// each of `LOAD_BATCHES - 1` equal parts of it.
const LOAD_BATCH_SECONDS: f64 = 0.2;
const LOAD_BATCHES: usize = 5;
/// Identical-list comparisons: routes per list, by store, and rounds.
const COMPARE_RESIDENT: usize = 50_000;
const COMPARE_LAZY: usize = 1_000;
const COMPARE_ROUNDS: usize = 3;
/// Targets per source in the grouped list.
const GROUP: usize = 100;
/// Routes the shortest-path-table reference serves.
const SP_ROUTES: usize = 50_000;

/// Routes served in one closed-loop pass.
#[derive(Default)]
struct Pass {
    routes: usize,
    delivered: usize,
    hops: u64,
    seconds: f64,
    /// Summed time inside `Router::route` (traced passes only), ns.
    route_ns: f64,
}

impl Pass {
    fn ns_each(&self) -> f64 {
        self.seconds * 1e9 / self.routes.max(1) as f64
    }
    fn rate(&self) -> f64 {
        self.routes as f64 / self.seconds
    }
}

/// How a pass records each route besides counting it.
enum PerRoute<'a> {
    Nothing,
    /// Push its latency, ns.
    Latency(&'a mut Vec<f64>),
    /// Add its latency to [`Pass::route_ns`].
    Traced,
}

/// Drive `router` over `list` (cycled) from position `*next`, until
/// `budget` is spent or, without one, once through `list`.
fn closed_loop(
    router: &impl Router,
    list: &[(NodeId, NodeId)],
    next: &mut usize,
    budget: Option<Duration>,
    mut per_route: PerRoute,
) -> Pass {
    let count = if budget.is_some() { usize::MAX } else { list.len() };
    let started = Instant::now();
    let mut pass = Pass::default();
    while pass.routes < count {
        let (s, t) = list[*next % list.len()];
        *next += 1;
        let q0 = Instant::now();
        let trace = router.route(s, t);
        let q1 = Instant::now();
        let ns = q1.duration_since(q0).as_nanos() as f64;
        match &mut per_route {
            PerRoute::Nothing => {}
            PerRoute::Latency(lat) => lat.push(ns),
            PerRoute::Traced => pass.route_ns += ns,
        }
        pass.routes += 1;
        pass.delivered += usize::from(trace.delivered);
        pass.hops += trace.hops() as u64;
        if budget.is_some_and(|b| q1.duration_since(started) >= b) {
            break;
        }
    }
    pass.seconds = started.elapsed().as_secs_f64();
    pass
}

/// A measured serving window, possibly made of several calls to
/// [`Window::measure`].
#[derive(Default)]
pub struct Window {
    /// Routes/s of each untraced segment.
    plain_rates: Vec<f64>,
    /// Routes/s of each traced segment.
    traced_rates: Vec<f64>,
    /// p50 and p99 route latency of each untraced segment, ns.
    pub p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Routes of the untraced segments: the latency samples.
    pub latency_samples: usize,
    pub routes: usize,
    pub delivered: usize,
    /// Routes, hops and time inside `Router::route` (ns) of the traced
    /// segments.
    traced: Pass,
    /// Position in the query list, kept across calls.
    next: usize,
}

impl Window {
    /// Serve `list` on `router` for `seconds` in [`SEGMENT`]-long
    /// segments, after a [`WARMUP`]. With `traced`, every other segment
    /// is traced, so tracing overhead is measured on the same list in
    /// the same process.
    pub fn measure(
        &mut self,
        router: &impl Router,
        list: &[(NodeId, NodeId)],
        seconds: f64,
        traced: bool,
    ) {
        let mut next = self.next;
        closed_loop(router, list, &mut next, Some(WARMUP), PerRoute::Nothing);
        let segments = ((seconds / SEGMENT.as_secs_f64()).round() as usize).max(2);
        let mut latencies = Vec::new();
        for i in 0..segments {
            if traced && i % 2 == 1 {
                let pass = closed_loop(router, list, &mut next, Some(SEGMENT), PerRoute::Traced);
                self.traced_rates.push(pass.rate());
                self.tally(&pass);
                self.traced.routes += pass.routes;
                self.traced.hops += pass.hops;
                self.traced.route_ns += pass.route_ns;
            } else {
                latencies.clear();
                let pass = closed_loop(
                    router,
                    list,
                    &mut next,
                    Some(SEGMENT),
                    PerRoute::Latency(&mut latencies),
                );
                latencies.sort_by(f64::total_cmp);
                self.p50s.push(nearest_rank(&latencies, 50));
                self.p99s.push(nearest_rank(&latencies, 99));
                self.plain_rates.push(pass.rate());
                self.latency_samples += latencies.len();
                self.tally(&pass);
            }
        }
        self.next = next;
    }

    fn tally(&mut self, pass: &Pass) {
        self.routes += pass.routes;
        self.delivered += pass.delivered;
    }

    /// Median untraced-segment throughput, p50 and p99 latency (µs),
    /// delivered share.
    pub fn medians(&self) -> (f64, f64, f64, f64) {
        (
            median(&self.plain_rates),
            median(&self.p50s) / 1e3,
            median(&self.p99s) / 1e3,
            self.delivered as f64 / self.routes.max(1) as f64,
        )
    }
}

/// Options of the serving process.
pub struct ServeArgs {
    pub snapshot: PathBuf,
    pub walks: PathBuf,
    pub lazy: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl ServeArgs {
    pub fn from_args(args: &Args) -> Result<Self, String> {
        Ok(ServeArgs {
            snapshot: args.text("snapshot")?.into(),
            walks: args.text("walks")?.into(),
            lazy: args.text("lazy")? == "1",
            seed: args.number("seed")?,
            seconds: args.number("seconds")?,
            trace: args.text("trace")? == "1",
        })
    }
}

/// Run the serving process; returns its `key value` report.
pub fn serving_process(a: &ServeArgs) -> Result<Vec<(&'static str, f64)>, String> {
    let mut loads = Vec::new();
    let time_loads = |loads: &mut Vec<f64>| {
        let (s, scheme) = mean_call_seconds(LOAD_BATCH_SECONDS, || {
            if a.lazy {
                Scheme::load_lazy(&a.snapshot)
            } else {
                Scheme::load(&a.snapshot)
            }
        });
        loads.push(s);
        scheme.map_err(|e| format!("{}: {e}", a.snapshot.display()))
    };
    let scheme = time_loads(&mut loads)?;

    let mut gate = Gate::default();
    gate.compare_walks(&scheme, scheme.graph(), &load_walks(&a.walks)?);
    for m in &gate.messages {
        eprintln!("perfbench: wrong route: {m}");
    }

    let queries = pairs::sample(scheme.graph().n(), QUERY_LIST, sub_seed(a.seed, 10));
    let mut window = Window::default();
    let parts = if a.lazy { LOAD_BATCHES - 1 } else { 1 };
    for _ in 0..parts {
        window.measure(&scheme, &queries, a.seconds / parts as f64, a.trace);
        if a.lazy {
            time_loads(&mut loads)?;
        }
    }
    let (rate, p50, p99, _) = window.medians();
    let mut out = vec![
        ("load_s", median(&loads)),
        ("checked", gate.routes as f64),
        ("checked_undelivered", gate.undelivered as f64),
        ("wrong", gate.wrong as f64),
        ("routes", window.routes as f64),
        ("undelivered", (window.routes - window.delivered) as f64),
        ("routes_per_s", rate),
        ("route_p50_us", p50),
        ("route_p99_us", p99),
        ("latency_samples", window.latency_samples as f64),
        ("latency_segments", window.p50s.len() as f64),
        ("serve_peak_rss_mib", peak_rss_mib()),
    ];
    if a.trace {
        out.extend(route_layers(a, &scheme, &queries, &window)?);
    }
    Ok(out)
}

/// Per-layer numbers of the route path, from the traced segments and
/// from identical-list passes made after the window.
fn route_layers(
    a: &ServeArgs,
    scheme: &Scheme,
    queries: &[(NodeId, NodeId)],
    window: &Window,
) -> Result<Vec<(&'static str, f64)>, String> {
    let traced = window.traced.routes.max(1) as f64;
    let ns_per_route = window.traced.route_ns / traced;
    let hops_per_route = window.traced.hops as f64 / traced;

    // The center store's share: this workload's store against a
    // resident copy, alternating on one list. On a resident workload
    // the reference is the scheme itself, so the number measures noise.
    let resident;
    let reference = if a.lazy {
        resident = Scheme::load(&a.snapshot).map_err(|e| format!("{e}"))?;
        &resident
    } else {
        scheme
    };
    let len = if a.lazy { COMPARE_LAZY } else { COMPARE_RESIDENT };
    let uniform = &queries[..len];
    let n = scheme.graph().n();
    let grouped = pairs::sample_grouped(n, len / GROUP, GROUP, sub_seed(a.seed, 11));
    let once = |r: &Scheme, list: &[(NodeId, NodeId)]| {
        closed_loop(r, list, &mut 0, None, PerRoute::Nothing)
    };
    let (mut store_ns, mut store_rate, mut base_ns, mut group_rate) =
        (vec![], vec![], vec![], vec![]);
    for _ in 0..COMPARE_ROUNDS {
        let pass = once(scheme, uniform);
        store_ns.push(pass.ns_each());
        store_rate.push(pass.rate());
        base_ns.push(once(reference, uniform).ns_each());
        group_rate.push(once(scheme, &grouped).rate());
    }

    let tables = ShortestPathTables::build(scheme.graph().clone());
    let sp = closed_loop(&tables, &queries[..SP_ROUTES], &mut 0, None, PerRoute::Nothing);

    Ok(vec![
        ("core.route.ns_per_route", ns_per_route),
        ("core.route.hops_per_route", hops_per_route),
        ("core.route.ns_per_hop", ns_per_route / hops_per_route),
        ("core.center_store.ns_per_route", median(&store_ns) - median(&base_ns)),
        ("core.center_store.grouped_speedup", median(&group_rate) / median(&store_rate)),
        ("baselines.sp_tables.ns_per_route", sp.ns_each()),
        ("baselines.sp_tables.ns_per_hop", sp.seconds * 1e9 / sp.hops.max(1) as f64),
        ("trace_overhead_frac", median(&window.plain_rates) / median(&window.traced_rates) - 1.0),
    ])
}
