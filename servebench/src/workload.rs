//! The three workloads: instance pools, request lines and request sequences,
//! all derived from the workload seed.  The server only ever receives the
//! rendered lines.

use std::fmt::Write as _;
use std::ops::Range;

use rand::prelude::*;
use rand::rngs::SplitMix64;
use stencil_grid::{Dims, NodeAllocation, Stencil};
use stencil_mapping::canonical::canonicalize;
use stencil_mapping::MappingProblem;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["hit_serve", "cold_viem", "routed_mixed"];

/// Open-loop arrival rate of `routed_mixed` in requests per second: about
/// half the capacity of the 2-core host the benchmark was calibrated on
/// (see README.md).  Recalibrating means editing this constant.
pub const ROUTED_RATE: f64 = 450.0;

/// Every `VIEM_EVERY`-th `routed_mixed` request is a fresh viem miss (2%).
const VIEM_EVERY: usize = 50;

/// Fresh `cold_viem` lines generated per second of the timed phase; far
/// above what one connection can complete, so the pool never runs dry.
const COLD_LINES_PER_SECOND: usize = 500;

/// `cold_viem` mappings per second of run time that count toward the
/// quality totals (two cycles of the viem shapes): a fixed prefix of the
/// request sequence, so the totals compare across runs whatever the
/// throughput.
const COLD_QUALITY_PER_SECOND: usize = 14;

/// Requests replayed per second of `--seconds` by the traced run of the
/// closed-loop workloads.
const TRACE_HITS_PER_SECOND: usize = 2000;
const TRACE_COLD_PER_SECOND: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilKind {
    NearestNeighbor,
    Hops,
    Component,
}

const STENCILS: [StencilKind; 3] = [
    StencilKind::NearestNeighbor,
    StencilKind::Hops,
    StencilKind::Component,
];

impl StencilKind {
    fn wire_name(self) -> &'static str {
        match self {
            StencilKind::NearestNeighbor => "nearest_neighbor",
            StencilKind::Hops => "hops",
            StencilKind::Component => "component",
        }
    }

    pub fn build(self, ndims: usize) -> Stencil {
        match self {
            StencilKind::NearestNeighbor => Stencil::nearest_neighbor(ndims),
            StencilKind::Hops => Stencil::nearest_neighbor_with_hops(ndims),
            StencilKind::Component => Stencil::component(ndims),
        }
    }
}

/// The rank-local mappers, by wire name.
pub const RANK_LOCAL: [&str; 5] = [
    "hyperplane",
    "kdtree",
    "stencil_strips",
    "nodecart",
    "blocked",
];

/// One mapping problem, i.e. one canonical cache key.
#[derive(Debug, Clone)]
pub struct Instance {
    pub dims: Vec<usize>,
    pub stencil: StencilKind,
    pub periodic: bool,
    pub nodes: usize,
    pub algorithm: &'static str,
    /// Sent only for viem, the one algorithm whose key includes the seed.
    pub seed: Option<u64>,
}

impl Instance {
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// The problem as a request with dimension order `dims` states it.
    pub fn problem(&self, dims: &[usize]) -> MappingProblem {
        MappingProblem::with_periodicity(
            Dims::from_slice(dims),
            self.stencil.build(dims.len()),
            NodeAllocation::homogeneous(self.nodes, self.volume() / self.nodes),
            self.periodic,
        )
        .expect("workload instances are consistent problems")
    }
}

/// The response form a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Verbose,
    Compact,
    CostOnly,
    Points,
}

/// One request object: a whole line, or one item of a batch line.
#[derive(Debug, Clone)]
pub struct Item {
    pub instance: usize,
    /// Dimension sizes in the order the request sends them.
    pub dims: Vec<usize>,
    pub shape: Shape,
    /// Queried positions of a `Points` item.
    pub ranks: Vec<usize>,
    /// The table-carrying item of the same instance and dimension order,
    /// which the oracle checks cost-only and point answers against (the
    /// item itself for table shapes).
    pub anchor: usize,
}

/// One request line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line as sent, newline included.
    pub wire: String,
    /// The items it carries (one unless `batch`).
    pub items: Vec<usize>,
    pub batch: bool,
}

impl Line {
    /// The line without its newline.
    pub fn text(&self) -> &str {
        &self.wire[..self.wire.len() - 1]
    }
}

/// How the timed phase picks the lines of a closed loop.
#[derive(Debug, Clone)]
pub enum Pick {
    /// Each connection draws uniformly from these lines with its own
    /// seeded stream.
    Uniform(Range<usize>),
    /// The connections consume these lines in order, each line once.
    Fresh(Range<usize>),
}

#[derive(Debug, Clone)]
pub enum Load {
    /// `conns` clients, each sending its next request when the previous
    /// answer arrived.
    Closed { conns: usize, pick: Pick },
    /// `sequence` sent at `rate` requests per second whether or not answers
    /// arrived, alternating over two connections.
    Open { rate: f64, sequence: Vec<usize> },
}

/// The server processes a workload runs against.
#[derive(Debug, Clone, Copy)]
pub enum Topology {
    /// One `stencil-serve --listen` process.
    Single { cache_capacity: usize },
    /// A `--route … --replicas 2` router over three backends, each with
    /// `--persist` and a cache smaller than the key working set.
    Routed { cache_capacity: usize },
}

impl Topology {
    pub fn cache_capacity(self) -> usize {
        match self {
            Topology::Single { cache_capacity } | Topology::Routed { cache_capacity } => {
                cache_capacity
            }
        }
    }
}

/// Backends and replicas of the routed topology.
pub const ROUTED_BACKENDS: usize = 3;
pub const ROUTED_REPLICAS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub instances: Vec<Instance>,
    pub items: Vec<Item>,
    pub lines: Vec<Line>,
    /// Lines sent, in order, by every set-up after the servers are ready.
    pub warm: Vec<usize>,
    pub load: Load,
    pub topology: Topology,
    /// How many times one run sets up (the reported `setup_s` is the median).
    pub setups: usize,
    /// With `Pick::Fresh`, only the first this-many fresh lines count toward
    /// the quality totals.
    pub quality_limit: Option<usize>,
    /// The highest latency percentile the run reports as its tail.
    pub tail: u32,
    /// The lines the traced run replays in process, in order.
    pub trace_sequence: Vec<usize>,
}

/// Per-connection line stream of a `Pick::Uniform` closed loop.
pub fn conn_rng(seed: u64, conn: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (0xC0FF_EE00 + conn as u64))
}

/// Accumulates instances, items and rendered lines.
struct Builder {
    rng: SplitMix64,
    instances: Vec<Instance>,
    items: Vec<Item>,
    lines: Vec<Line>,
}

impl Builder {
    fn new(seed: u64) -> Self {
        Builder {
            rng: SplitMix64::new(seed),
            instances: Vec::new(),
            items: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// A viem seed below 2^52, so it survives the JSON number round trip.
    fn viem_seed(&mut self) -> u64 {
        self.rng.next_u64() >> 12
    }

    fn instance(&mut self, inst: Instance) -> usize {
        self.instances.push(inst);
        self.instances.len() - 1
    }

    /// The instance's dims with the axes its stencil treats alike shuffled,
    /// so every order names the same problem (the same canonical key).
    /// Orders the canonical form has to relabel are preferred, so every
    /// seed's requests pay the same restore work.
    fn permuted_dims(&mut self, instance: usize) -> Vec<usize> {
        let inst = &self.instances[instance];
        let mut dims = inst.dims.clone();
        let d = dims.len();
        // hops reach further along axis 0; component skips the last axis
        let alike = match inst.stencil {
            StencilKind::NearestNeighbor => 0..d,
            StencilKind::Hops => 1..d,
            StencilKind::Component => 0..d - 1,
        };
        let stencil = inst.stencil.build(d);
        for _ in 0..32 {
            dims[alike.clone()].shuffle(&mut self.rng);
            if !canonicalize(&Dims::from_slice(&dims), &stencil).is_identity_permutation() {
                break;
            }
        }
        dims
    }

    /// Adds a table item of `instance` with freshly permuted dims.
    fn table_item(&mut self, instance: usize, shape: Shape) -> usize {
        let dims = self.permuted_dims(instance);
        let idx = self.items.len();
        self.items.push(Item {
            instance,
            dims,
            shape,
            ranks: Vec::new(),
            anchor: idx,
        });
        idx
    }

    /// Adds a cost-only or point item answering from `anchor`'s table.
    fn derived_item(&mut self, anchor: usize, shape: Shape) -> usize {
        let a = &self.items[anchor];
        let (instance, dims) = (a.instance, a.dims.clone());
        let ranks = if shape == Shape::Points {
            let p = self.instances[instance].volume();
            (0..8).map(|_| self.rng.gen_range(0..p)).collect()
        } else {
            Vec::new()
        };
        self.items.push(Item {
            instance,
            dims,
            shape,
            ranks,
            anchor,
        });
        self.items.len() - 1
    }

    fn render_item(&self, item: usize, out: &mut String) {
        let it = &self.items[item];
        let inst = &self.instances[it.instance];
        let list = |xs: &[usize]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = write!(
            out,
            "{{\"id\":{item},\"dims\":[{}],\"stencil\":\"{}\",",
            list(&it.dims),
            inst.stencil.wire_name()
        );
        if inst.periodic {
            out.push_str("\"periodic\":true,");
        }
        let _ = write!(
            out,
            "\"nodes\":{},\"algorithm\":\"{}\"",
            inst.nodes, inst.algorithm
        );
        if let Some(seed) = inst.seed {
            let _ = write!(out, ",\"seed\":{seed}");
        }
        match it.shape {
            Shape::Verbose => {}
            Shape::Compact => out.push_str(",\"encoding\":\"compact\""),
            Shape::CostOnly => out.push_str(",\"want_mapping\":false"),
            Shape::Points => {
                let _ = write!(
                    out,
                    ",\"query\":\"new_rank_of\",\"ranks\":[{}]",
                    list(&it.ranks)
                );
            }
        }
        out.push('}');
    }

    fn line(&mut self, items: Vec<usize>, batch: bool) -> usize {
        let mut wire = String::new();
        if batch {
            wire.push_str("{\"batch\":[");
            for (i, &item) in items.iter().enumerate() {
                if i > 0 {
                    wire.push(',');
                }
                self.render_item(item, &mut wire);
            }
            wire.push_str("]}");
        } else {
            self.render_item(items[0], &mut wire);
        }
        wire.push('\n');
        self.lines.push(Line { wire, items, batch });
        self.lines.len() - 1
    }

    /// A fresh `algorithm:"viem"` p = 4800 compact line (a distinct key):
    /// the `k`-th of a cycle over [`VIEM_SHAPES`].
    fn fresh_viem_line(&mut self, k: usize) -> usize {
        let (dims, stencil) = VIEM_SHAPES[k % VIEM_SHAPES.len()];
        let seed = self.viem_seed();
        let instance = self.instance(Instance {
            dims: dims.to_vec(),
            stencil,
            periodic: false,
            nodes: 100,
            algorithm: "viem",
            seed: Some(seed),
        });
        let item = self.table_item(instance, Shape::Compact);
        self.line(vec![item], false)
    }
}

/// The viem miss shapes, p = 4800 = 100 nodes × 48: a 75×64 grid and a
/// 20×16×15 grid under each stencil.  The cycle has seven entries (the
/// first shape twice) so the latency median falls inside one shape's
/// cluster, not in the gap between two.
const VIEM_SHAPES: [(&[usize], StencilKind); 7] = [
    (&[75, 64], StencilKind::NearestNeighbor),
    (&[20, 16, 15], StencilKind::NearestNeighbor),
    (&[75, 64], StencilKind::Hops),
    (&[20, 16, 15], StencilKind::Hops),
    (&[75, 64], StencilKind::Component),
    (&[20, 16, 15], StencilKind::Component),
    (&[75, 64], StencilKind::NearestNeighbor),
];

/// Grid shapes and node counts of the `hit_serve` pool: p from 96 to 4800.
const HIT_SIZES: [(&[usize], usize); 8] = [
    (&[12, 8], 8),
    (&[24, 20], 10),
    (&[32, 30], 20),
    (&[16, 12, 8], 32),
    (&[60, 40], 50),
    (&[40, 30, 4], 100),
    (&[20, 16, 15], 100),
    (&[75, 64], 100),
];

/// Grid shapes and node counts of the `routed_mixed` pool: p from 1024 to
/// 19200, a 2-D and a 3-D grid per size class.
const ROUTED_SIZES: [(&[usize], usize); 16] = [
    (&[32, 32], 16),
    (&[16, 8, 8], 16),
    (&[64, 32], 32),
    (&[16, 16, 8], 32),
    (&[64, 64], 64),
    (&[16, 16, 16], 64),
    (&[96, 64], 96),
    (&[24, 16, 16], 96),
    (&[120, 80], 200),
    (&[24, 20, 20], 200),
    (&[128, 96], 192),
    (&[32, 24, 16], 192),
    (&[128, 128], 256),
    (&[32, 32, 16], 256),
    (&[160, 120], 400),
    (&[40, 24, 20], 400),
];

/// Backend cache capacity of `routed_mixed`: with two replicas over three
/// backends each backend owns about 160 of the 240 keys, and holds 128.
const ROUTED_CACHE_CAPACITY: usize = 128;

pub fn build(name: &str, seed: u64, seconds: u64) -> Result<Workload, String> {
    let seconds = seconds.max(1) as usize;
    match name {
        "hit_serve" => Ok(hit_serve(seed, seconds)),
        "cold_viem" => Ok(cold_viem(seed, seconds)),
        "routed_mixed" => Ok(routed_mixed(seed, seconds)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// 48 instances (all six algorithms × 8 sizes, the three stencils, some
/// periodic), three request variants each plus short batch lines; every line
/// is warmed in set-up, so the timed phase is all cache hits.  Instances
/// and viem seeds are fixed, so the quality totals do not depend on the
/// workload seed; the seed picks dimension orders, response shapes, batch
/// contents and the request order.
fn hit_serve(seed: u64, seconds: usize) -> Workload {
    const ALGORITHMS: [&str; 6] = [
        "hyperplane",
        "kdtree",
        "stencil_strips",
        "nodecart",
        "viem",
        "blocked",
    ];
    let mut b = Builder::new(seed);
    let mut singles = Vec::new();
    let mut derived = Vec::new();
    for (a, &algorithm) in ALGORITHMS.iter().enumerate() {
        for (s, &(dims, nodes)) in HIT_SIZES.iter().enumerate() {
            let instance = b.instance(Instance {
                dims: dims.to_vec(),
                stencil: STENCILS[(a + s) % 3],
                periodic: (s + 2 * a) % 5 == 0,
                nodes,
                algorithm,
                seed: (algorithm == "viem").then_some(1000 + s as u64),
            });
            // both table encodings of every instance, each in its own dims
            // order, plus one short answer: the response-size mix is the
            // same for every seed
            let anchor = b.table_item(instance, Shape::Verbose);
            let compact = b.table_item(instance, Shape::Compact);
            let short = if b.rng.gen_bool(0.5) {
                Shape::CostOnly
            } else {
                Shape::Points
            };
            let short = b.derived_item(anchor, short);
            derived.push(short);
            singles.extend([anchor, compact, short]);
        }
    }
    for &item in &singles {
        b.line(vec![item], false);
    }
    for _ in 0..6 {
        let n = b.rng.gen_range(2..4);
        let items = (0..n)
            .map(|_| {
                *derived
                    .as_slice()
                    .choose(&mut b.rng)
                    .expect("derived items")
            })
            .collect();
        b.line(items, true);
    }
    let mut warm: Vec<usize> = (0..b.lines.len()).collect();
    warm.shuffle(&mut b.rng);
    let pool = 0..b.lines.len();
    let mut trace_sequence = warm.clone();
    let mut rngs = [conn_rng(seed, 0), conn_rng(seed, 1)];
    for k in 0..TRACE_HITS_PER_SECOND * seconds {
        trace_sequence.push(rngs[k % 2].gen_range(pool.clone()));
    }
    Workload {
        name: "hit_serve",
        seed,
        instances: b.instances,
        items: b.items,
        lines: b.lines,
        warm,
        load: Load::Closed {
            conns: 2,
            pick: Pick::Uniform(pool),
        },
        topology: Topology::Single {
            cache_capacity: 1024,
        },
        setups: 5,
        quality_limit: None,
        tail: 99,
        trace_sequence,
    }
}

/// Distinct viem misses cycling over [`VIEM_SHAPES`], each with a fresh
/// seed drawn from the workload seed.  Three warm-up misses run in set-up;
/// the timed phase only sees keys the server has never computed.
fn cold_viem(seed: u64, seconds: usize) -> Workload {
    let mut b = Builder::new(seed);
    let warm: Vec<usize> = (0..3).map(|k| b.fresh_viem_line(k)).collect();
    let fresh_start = b.lines.len();
    for k in 0..COLD_LINES_PER_SECOND * seconds {
        b.fresh_viem_line(k);
    }
    let fresh = fresh_start..b.lines.len();
    let mut trace_sequence = warm.clone();
    trace_sequence.extend(fresh.clone().take(TRACE_COLD_PER_SECOND * seconds));
    Workload {
        name: "cold_viem",
        seed,
        instances: b.instances,
        items: b.items,
        lines: b.lines,
        warm,
        load: Load::Closed {
            conns: 1,
            pick: Pick::Fresh(fresh),
        },
        // every key is distinct, so the capacity only bounds memory
        topology: Topology::Single { cache_capacity: 64 },
        setups: 5,
        quality_limit: Some(COLD_QUALITY_PER_SECOND * seconds),
        // a 20 s run completes 900–1000 misses, where p99 (10 samples
        // beyond it from 1000 on) would come and go with the host's speed
        tail: 95,
        trace_sequence,
    }
}

/// Zipf-skewed traffic over 240 rank-local instances (5 mappers × 16 sizes ×
/// 3 stencils, two request variants each) plus a fresh viem p = 4800 miss
/// every 50th request, sent open loop at [`ROUTED_RATE`] through a router
/// with two replicas per key over three persisting backends whose caches
/// are smaller than the working set.
fn routed_mixed(seed: u64, seconds: usize) -> Workload {
    let rate = ROUTED_RATE;
    let mut b = Builder::new(seed);
    // classes[2c] / classes[2c + 1] = the table / short lines of size
    // class c
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); 2 * ROUTED_SIZES.len()];
    for (c, &(dims, nodes)) in ROUTED_SIZES.iter().enumerate() {
        for (a, &algorithm) in RANK_LOCAL.iter().enumerate() {
            for (s, &stencil) in STENCILS.iter().enumerate() {
                let instance = b.instance(Instance {
                    dims: dims.to_vec(),
                    stencil,
                    periodic: (c + a + s) % 4 == 0,
                    nodes,
                    algorithm,
                    seed: None,
                });
                // verbose tables up to p = 4096, compact beyond
                let table = if b.instances[instance].volume() <= 4096 {
                    Shape::Verbose
                } else {
                    Shape::Compact
                };
                let anchor = b.table_item(instance, table);
                let extra = if b.rng.gen_bool(0.5) {
                    Shape::CostOnly
                } else {
                    Shape::Points
                };
                let extra = b.derived_item(anchor, extra);
                classes[2 * c].push(b.line(vec![anchor], false));
                classes[2 * c + 1].push(b.line(vec![extra], false));
            }
        }
    }
    let pool = b.lines.len();
    // popularity rank r belongs to class r % 32, so every seed's hot set
    // has the same mix of sizes and answer kinds; the seed orders the lines
    // within a class
    for class in &mut classes {
        class.shuffle(&mut b.rng);
    }
    let by_rank: Vec<usize> = (0..pool)
        .map(|r| classes[r % classes.len()][r / classes.len()])
        .collect();
    // Zipf (s = 1) over the ranks
    let cdf: Vec<f64> = (1..=pool)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[pool - 1];

    let n = ((rate * seconds as f64).round() as usize).max(VIEM_EVERY);
    let mut sequence = vec![usize::MAX; n];
    let mut free: Vec<usize> = (0..n)
        .filter(|i| i % VIEM_EVERY != VIEM_EVERY / 2)
        .collect();
    free.shuffle(&mut b.rng);
    // every pool line appears at least once, so the set of distinct
    // mappings served (and the quality totals) is the same for every seed
    for (&slot, &line) in free.iter().zip(&by_rank) {
        sequence[slot] = line;
    }
    for (i, slot) in sequence.iter_mut().enumerate() {
        if i % VIEM_EVERY == VIEM_EVERY / 2 {
            *slot = b.fresh_viem_line(i / VIEM_EVERY);
        } else if *slot == usize::MAX {
            let u = b.rng.gen_range(0.0..total);
            *slot = by_rank[cdf.partition_point(|&c| c < u).min(pool - 1)];
        }
    }
    let mut warm: Vec<usize> = (0..pool).collect();
    warm.shuffle(&mut b.rng);
    let mut trace_sequence = warm.clone();
    trace_sequence.extend(&sequence);
    Workload {
        name: "routed_mixed",
        seed,
        instances: b.instances,
        items: b.items,
        lines: b.lines,
        warm,
        load: Load::Open { rate, sequence },
        topology: Topology::Routed {
            cache_capacity: ROUTED_CACHE_CAPACITY,
        },
        setups: 3,
        quality_limit: None,
        tail: 99,
        trace_sequence,
    }
}
