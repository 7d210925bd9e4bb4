//! The correctness gate. Every route of a sampled subset is walked on
//! the workload's current graph with `sim::validate_trace`, its cost
//! is checked against the exact distance from `graphkit::OnDemandTruth`
//! (the oracle, never inside a timed region), and its path is reduced
//! to a digest so that a process serving from the snapshot can prove
//! it routes exactly like the freshly built scheme.

use std::fmt::Write as _;
use std::path::Path;

use graphkit::wire::Fnv64;
use graphkit::{Graph, NodeId, OnDemandTruth};
use sim::{validate_trace, RouteTrace, Router};

/// Wrong routes kept verbatim for the error report.
const KEEP_MESSAGES: usize = 5;

/// What the gate has seen so far.
#[derive(Default)]
pub struct Gate {
    /// Routes checked.
    pub routes: usize,
    /// Checked routes that were not delivered (failed operations).
    pub undelivered: usize,
    /// Routes that were wrong: invalid walk, cost below the true
    /// distance, or a snapshot route differing from the built one.
    pub wrong: usize,
    /// The first few wrong routes, described.
    pub messages: Vec<String>,
}

/// One checked route as the freshly built scheme took it.
pub struct Walk {
    pub src: NodeId,
    pub dst: NodeId,
    pub delivered: bool,
    pub cost: u64,
    pub digest: u64,
    /// `cost / distance`, for a delivered and correct route.
    pub stretch: Option<f64>,
}

impl Gate {
    fn reject(&mut self, what: String) {
        self.wrong += 1;
        if self.messages.len() < KEEP_MESSAGES {
            self.messages.push(what);
        }
    }

    /// Route every pair of `sample` on `router`, validate each walk on
    /// `g`, compare its cost with the true distance, and return the
    /// routes as taken.
    pub fn validate_sample(
        &mut self,
        router: &impl Router,
        g: &Graph,
        sample: &[(NodeId, NodeId)],
    ) -> Vec<Walk> {
        let mut truth = OnDemandTruth::new(g);
        truth.prefetch_pairs(sample, 0);
        sample
            .iter()
            .map(|&(s, t)| {
                let trace = router.route(s, t);
                self.routes += 1;
                let mut stretch = None;
                if let Err(e) = validate_trace(g, s, t, &trace) {
                    self.reject(format!("route {}->{}: invalid walk: {e:?}", s.0, t.0));
                } else if !trace.delivered {
                    self.undelivered += 1;
                } else {
                    let d = truth.d(s, t);
                    if trace.cost < d || d == 0 {
                        self.reject(format!(
                            "route {}->{}: cost {} below distance {d}",
                            s.0, t.0, trace.cost
                        ));
                    } else {
                        stretch = Some(trace.cost as f64 / d as f64);
                    }
                }
                Walk {
                    src: s,
                    dst: t,
                    delivered: trace.delivered,
                    cost: trace.cost,
                    digest: walk_digest(&trace),
                    stretch,
                }
            })
            .collect()
    }

    /// Route every expected pair on `router` and require the identical
    /// walk; each walk is also validated on `g`.
    pub fn compare_walks(&mut self, router: &impl Router, g: &Graph, walks: &[Walk]) {
        for e in walks {
            let trace = router.route(e.src, e.dst);
            self.routes += 1;
            self.undelivered += usize::from(!trace.delivered);
            if let Err(err) = validate_trace(g, e.src, e.dst, &trace) {
                self.reject(format!("route {}->{}: invalid walk: {err:?}", e.src.0, e.dst.0));
            } else if (trace.delivered, trace.cost, walk_digest(&trace))
                != (e.delivered, e.cost, e.digest)
            {
                self.reject(format!(
                    "route {}->{}: snapshot route differs from the built scheme's",
                    e.src.0, e.dst.0
                ));
            }
        }
    }
}

/// FNV-1a over the visited node ids.
fn walk_digest(trace: &RouteTrace) -> u64 {
    let mut h = Fnv64::new();
    for v in &trace.path {
        h.update(&v.0.to_le_bytes());
    }
    h.digest()
}

/// Store `expected` at `path`, one route per line.
pub fn store_walks(path: &Path, walks: &[Walk]) -> std::io::Result<()> {
    let mut text = String::new();
    for e in walks {
        let _ = writeln!(
            text,
            "{} {} {} {} {}",
            e.src.0,
            e.dst.0,
            u8::from(e.delivered),
            e.cost,
            e.digest
        );
    }
    std::fs::write(path, text)
}

/// Read what [`store_walks`] stored.
pub fn load_walks(path: &Path) -> Result<Vec<Walk>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let f: Vec<u64> = line
                .split_whitespace()
                .map(|x| x.parse::<u64>().map_err(|e| format!("{line:?}: {e}")))
                .collect::<Result<_, _>>()?;
            match f[..] {
                [s, t, delivered, cost, digest] => Ok(Walk {
                    src: NodeId(s as u32),
                    dst: NodeId(t as u32),
                    delivered: delivered == 1,
                    cost,
                    digest,
                    stretch: None,
                }),
                _ => Err(format!("malformed expected route {line:?}")),
            }
        })
        .collect()
}
