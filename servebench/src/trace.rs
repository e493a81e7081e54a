//! The traced run: replays a workload's request sequence in process and
//! times, from outside the program, the public entry point of each layer.
//!
//! * Phase A runs every line through a real [`MappingService`] (untraced)
//!   and through the *shadow pipeline* — this module calling the stage
//!   functions one by one with a clock around each — and requires the two
//!   answers to be byte-identical, so the stage times describe the program
//!   that serves.
//! * Phase B replays the lines through a persisting service, then reopens
//!   the log it left behind.
//! * Phase C forwards the lines through an in-process [`Router`] to three
//!   live backends with two replicas per key.

use std::sync::Arc;
use std::time::Instant;

use cluster_sim::stats;
use graph_partition::{partition, refine_kway_with, Graph, PartitionConfig, RefineConfig};
use stencil_grid::CartGraph;
use stencil_mapping::baselines::Blocked;
use stencil_mapping::canonical::{canonicalize, Canonical};
use stencil_mapping::hyperplane::Hyperplane;
use stencil_mapping::kdtree::KdTree;
use stencil_mapping::metrics::evaluate_streaming;
use stencil_mapping::nodecart::Nodecart;
use stencil_mapping::stencil_strips::StencilStrips;
use stencil_mapping::viem::GraphMapper;
use stencil_mapping::{MapError, Mapper, Mapping, MappingProblem};
use stencil_serve::json::{encode_nodes_compact, Value};
use stencil_serve::router::{fnv1a_64, Ring, Router, DEFAULT_ROUTE_TIMEOUT};
use stencil_serve::server::{Frame, LineFramer};
use stencil_serve::service::{entry_cost, CacheEntry, CacheKey, MappingService, ServiceConfig};
use stencil_serve::{
    Algorithm, Encoding, LineHandler, MapRequest, MapResponse, Payload, Query, ResponseBody,
    ShardedLru,
};

use crate::procs::{Cluster, RunDir};
use crate::workload::{Topology, Workload, ROUTED_REPLICAS};
use crate::Outcome;

/// The timed stages, in metric order.
#[derive(Clone, Copy)]
enum Stage {
    Frame,
    Parse,
    Request,
    Write,
    Canonicalize,
    Restore,
    Lookup,
    CartBuild,
    Csr,
    Partition,
    RefineKway,
    Hyperplane,
    KdTree,
    StencilStrips,
    Nodecart,
    Blocked,
    Evaluate,
    Hash,
}

const STAGES: usize = 18;

/// Metric name and whether it is reported in milliseconds (else
/// microseconds) per call, by stage.
const STAGE_METRICS: [(&str, bool); STAGES] = [
    ("server.frame_us", false),
    ("json.parse_us", false),
    ("protocol.request_us", false),
    ("protocol.write_us", false),
    ("canonical.canonicalize_us", false),
    ("canonical.restore_us", false),
    ("cache.lookup_us", false),
    ("grid.cart_build_ms", true),
    ("partition.csr_ms", true),
    ("partition.partition_ms", true),
    ("partition.refine_kway_ms", true),
    ("core.hyperplane_ms", true),
    ("core.kdtree_ms", true),
    ("core.stencil_strips_ms", true),
    ("core.nodecart_ms", true),
    ("core.blocked_ms", true),
    ("metrics.evaluate_ms", true),
    ("router.hash_us", false),
];

/// Rank-local mapper stages, by `Algorithm`.
fn mapper_stage(alg: Algorithm) -> Option<(Stage, Box<dyn Mapper>)> {
    Some(match alg {
        Algorithm::Hyperplane => (Stage::Hyperplane, Box::new(Hyperplane::default())),
        Algorithm::KdTree => (Stage::KdTree, Box::new(KdTree)),
        Algorithm::StencilStrips => (Stage::StencilStrips, Box::new(StencilStrips)),
        Algorithm::Nodecart => (Stage::Nodecart, Box::new(Nodecart)),
        Algorithm::Blocked => (Stage::Blocked, Box::new(Blocked)),
        Algorithm::Viem => return None,
    })
}

/// Accumulated time and calls per stage.
#[derive(Clone, Default)]
struct Clock {
    ns: [u64; STAGES],
    calls: [u64; STAGES],
}

impl Clock {
    fn add(&mut self, stage: Stage, since: Instant) {
        self.ns[stage as usize] += since.elapsed().as_nanos() as u64;
        self.calls[stage as usize] += 1;
    }
}

/// The shadow pipeline: `MappingService::handle_line_into` (without
/// admission budgets, degradation or admin commands, which no workload
/// sends) rebuilt from the public stage functions, on a shadow cache.
struct Shadow {
    cache: ShardedLru<CacheKey, Arc<CacheEntry>>,
    ring: Ring,
    clock: Clock,
    framer: LineFramer,
    /// Wall time inside the shadow `handle_line`, router hashing excluded.
    handle_ns: u64,
    response_bytes: u64,
    /// Sums over the `refine_kway_with` calls.
    cut: u64,
    swaps: u64,
}

impl Shadow {
    fn new(cfg: &ServiceConfig, ring: Ring) -> Shadow {
        Shadow {
            cache: ShardedLru::with_policy(cfg.cache_capacity, cfg.cache_shards, cfg.eviction),
            ring,
            clock: Clock::default(),
            framer: LineFramer::new(),
            handle_ns: 0,
            response_bytes: 0,
            cut: 0,
            swaps: 0,
        }
    }

    /// Frames `wire` (one newline-terminated line) and answers it into `out`.
    fn serve(&mut self, wire: &str, out: &mut String) -> Result<(), String> {
        let mut frames = Vec::with_capacity(1);
        let t = Instant::now();
        self.framer.push(wire.as_bytes(), &mut frames);
        self.clock.add(Stage::Frame, t);
        let [Frame::Line(line)] = frames.as_slice() else {
            return Err("a workload line did not frame as one line".to_string());
        };
        let hash_before = self.clock.ns[Stage::Hash as usize];
        let t = Instant::now();
        let written = out.len();
        self.handle_line(line, out)?;
        let hashed = self.clock.ns[Stage::Hash as usize] - hash_before;
        self.handle_ns += t.elapsed().as_nanos() as u64 - hashed;
        self.response_bytes += (out.len() - written) as u64;
        Ok(())
    }

    fn handle_line(&mut self, line: &str, out: &mut String) -> Result<(), String> {
        let t = Instant::now();
        let parsed = Value::parse(line);
        self.clock.add(Stage::Parse, t);
        let parsed = match parsed {
            Ok(v) => v,
            Err(e) => {
                let resp = MapResponse {
                    id: None,
                    body: ResponseBody::Error(format!("invalid JSON: {e}")),
                };
                self.write(&resp, out);
                return Ok(());
            }
        };
        if parsed.get("admin").is_some() {
            return Err("the shadow pipeline does not model admin commands".to_string());
        }
        if let Some(batch) = parsed.get("batch") {
            let Some(items) = batch.as_arr() else {
                let resp = MapResponse {
                    id: None,
                    body: ResponseBody::Error("\"batch\" must be an array".to_string()),
                };
                self.write(&resp, out);
                return Ok(());
            };
            out.push_str("{\"batch\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let resp = self.handle_value(item)?;
                self.write(&resp, out);
            }
            out.push_str("]}");
        } else {
            let resp = self.handle_value(&parsed)?;
            self.write(&resp, out);
        }
        Ok(())
    }

    fn write(&mut self, resp: &MapResponse, out: &mut String) {
        let t = Instant::now();
        resp.write_into(out);
        self.clock.add(Stage::Write, t);
    }

    fn handle_value(&mut self, v: &Value) -> Result<MapResponse, String> {
        let t = Instant::now();
        let req = MapRequest::from_value(v);
        self.clock.add(Stage::Request, t);
        match req {
            Ok(req) => self.handle_request(&req),
            Err(e) => Ok(MapResponse {
                id: v.get("id").cloned(),
                body: ResponseBody::Error(e),
            }),
        }
    }

    fn handle_request(&mut self, req: &MapRequest) -> Result<MapResponse, String> {
        if req.max_jsum.is_some() {
            return Err("the shadow pipeline does not model admission budgets".to_string());
        }
        let t = Instant::now();
        let canon = canonicalize(&req.dims, &req.stencil);
        self.clock.add(Stage::Canonicalize, t);

        let t = Instant::now();
        let key = CacheKey::of_canonical(req, &canon, req.algorithm, req.seed);
        let hit = self.cache.get(&key);
        self.clock.add(Stage::Lookup, t);

        // what the router would do with this key (not part of the service)
        let t = Instant::now();
        let owners = self
            .ring
            .replica_indices(fnv1a_64(&key.routing_bytes()), ROUTED_REPLICAS);
        std::hint::black_box(owners);
        self.clock.add(Stage::Hash, t);

        let (entry, cached) = match hit {
            Some(entry) => (entry, true),
            None => match self.compute(req, &canon, key) {
                Ok(entry) => (entry, false),
                Err(e) => {
                    return Ok(MapResponse {
                        id: req.id.clone(),
                        body: ResponseBody::Error(e),
                    })
                }
            },
        };

        let payload = match &req.query {
            Some(Query::NewRankOf(ranks)) => {
                let t = Instant::now();
                let nodes = ranks
                    .iter()
                    .map(|&x| entry.nodes[canon.canonical_index_of(&req.dims, x)])
                    .collect();
                self.clock.add(Stage::Restore, t);
                Payload::Points {
                    nodes,
                    ranks: ranks.clone(),
                }
            }
            None if !req.want_mapping => Payload::None,
            None => match req.encoding {
                // the memoised canonical encoding is the answer as it is
                Encoding::Compact if canon.is_identity_permutation() => {
                    Payload::TableCompact(entry.compact_encoding().to_string())
                }
                encoding => {
                    let t = Instant::now();
                    let table = canon.restore_positions(&req.dims, &entry.nodes);
                    self.clock.add(Stage::Restore, t);
                    match encoding {
                        Encoding::Verbose => Payload::Table(table),
                        Encoding::Compact => Payload::TableCompact(encode_nodes_compact(&table)),
                    }
                }
            },
        };
        Ok(MapResponse {
            id: req.id.clone(),
            body: ResponseBody::Ok {
                algorithm: req.algorithm,
                fallback_from: None,
                cached,
                degraded: false,
                j_sum: entry.j_sum,
                j_max: entry.j_max,
                payload,
            },
        })
    }

    fn compute(
        &mut self,
        req: &MapRequest,
        canon: &Canonical,
        key: CacheKey,
    ) -> Result<Arc<CacheEntry>, String> {
        let problem = MappingProblem::with_periodicity(
            canon.dims.clone(),
            canon.stencil.clone(),
            req.alloc.clone(),
            req.periodic,
        )
        .map_err(|e| format!("inconsistent problem: {e}"))?;
        let mapping = match mapper_stage(req.algorithm) {
            Some((stage, mapper)) => {
                let t = Instant::now();
                let m = mapper.compute(&problem);
                self.clock.add(stage, t);
                m
            }
            None => self.viem(&problem, req.seed),
        }
        .map_err(|e| format!("{}: {e}", req.algorithm.wire_name()))?;
        let t = Instant::now();
        let cost = evaluate_streaming(&canon.dims, &canon.stencil, req.periodic, &mapping);
        self.clock.add(Stage::Evaluate, t);
        let entry = Arc::new(CacheEntry::new(
            mapping
                .node_of_position_slice()
                .iter()
                .map(|&n| n as u32)
                .collect(),
            cost.j_sum,
            cost.j_max,
        ));
        let cost = entry_cost(&key);
        self.cache.insert_with_cost(key, Arc::clone(&entry), cost);
        Ok(entry)
    }

    /// `GraphMapper::compute`, stage by stage.
    fn viem(&mut self, problem: &MappingProblem, seed: u64) -> Result<Mapping, MapError> {
        let mapper = GraphMapper::with_seed(seed);
        let t = Instant::now();
        let cart = CartGraph::build(problem.dims(), problem.stencil(), problem.periodic());
        self.clock.add(Stage::CartBuild, t);
        let t = Instant::now();
        let graph = Graph::from_directed_csr(cart.xadj(), cart.adjncy());
        self.clock.add(Stage::Csr, t);
        let cfg = PartitionConfig::new(problem.alloc().sizes().to_vec())
            .with_seed(mapper.seed)
            .with_parallel(mapper.parallel);
        let t = Instant::now();
        let parts = partition(&graph, &cfg);
        self.clock.add(Stage::Partition, t);
        let mut parts =
            parts.map_err(|e| MapError::InvalidResult(format!("partitioner failed: {e}")))?;
        if mapper.refine_rounds > 0 {
            let refine = RefineConfig::new(mapper.refine_rounds, mapper.seed ^ 0x9E37)
                .with_parallel(cfg.parallel);
            let t = Instant::now();
            let s = refine_kway_with(&graph, &mut parts, &refine);
            self.clock.add(Stage::RefineKway, t);
            self.cut += s.cut_after;
            self.swaps += s.swaps;
        }
        let node_of_position: Vec<usize> = parts.iter().map(|&p| p as usize).collect();
        Mapping::from_node_of_position(problem, &node_of_position)
    }
}

/// `(hits, misses, entries)` from an `{"admin":"stats"}` answer.
fn admin_stats(answer: &str) -> Result<(f64, f64, f64), String> {
    let v = Value::parse(answer).map_err(|e| format!("stats answer: {e}"))?;
    let field = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("stats answer without {k}: {answer}"))
    };
    Ok((field("hits")?, field("misses")?, field("entries")?))
}

/// Hit ratio after warm-up, and evictions (misses − resident entries).
fn cache_metrics(after_warm: (f64, f64, f64), end: (f64, f64, f64)) -> (f64, f64) {
    let hits = end.0 - after_warm.0;
    let misses = end.1 - after_warm.1;
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    (ratio, end.1 - end.2)
}

const STATS_LINE: &str = "{\"admin\":\"stats\"}";

/// The service configuration of one server of the workload's topology.
fn service_config(topology: Topology) -> ServiceConfig {
    ServiceConfig {
        cache_capacity: topology.cache_capacity(),
        ..ServiceConfig::default()
    }
}

/// Mean per call in the stage's unit, or `None` without calls.
fn per_call(clock: &Clock, i: usize) -> Option<f64> {
    let scale = if STAGE_METRICS[i].1 { 1e-6 } else { 1e-3 };
    (clock.calls[i] > 0).then(|| clock.ns[i] as f64 * scale / clock.calls[i] as f64)
}

/// Times `f` three times alternately with `g`; medians of both.
fn paired_medians(mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        f();
        a.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        g();
        b.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&a), stats::median(&b))
}

/// Phase A totals at one point of the sequence.
#[derive(Clone, Default)]
struct Totals {
    clock: Clock,
    /// Real `handle_line_into` time.
    real_ns: u64,
    /// Shadow wall time (framing, handling and router hashing).
    shadow_ns: u64,
    /// Shadow `handle_line` time, router hashing excluded.
    handle_ns: u64,
    response_bytes: u64,
}

impl Totals {
    fn of(shadow: &Shadow, real_ns: u64, shadow_ns: u64) -> Totals {
        Totals {
            clock: shadow.clock.clone(),
            real_ns,
            shadow_ns,
            handle_ns: shadow.handle_ns,
            response_bytes: shadow.response_bytes,
        }
    }

    fn since(&self, earlier: &Totals) -> Totals {
        let mut clock = Clock::default();
        for i in 0..STAGES {
            clock.ns[i] = self.clock.ns[i] - earlier.clock.ns[i];
            clock.calls[i] = self.clock.calls[i] - earlier.clock.calls[i];
        }
        Totals {
            clock,
            real_ns: self.real_ns - earlier.real_ns,
            shadow_ns: self.shadow_ns - earlier.shadow_ns,
            handle_ns: self.handle_ns - earlier.handle_ns,
            response_bytes: self.response_bytes - earlier.response_bytes,
        }
    }
}

/// Up to `n` of the workload's problems with distinct dims, viem ones
/// first, with their seeds.
fn sample_problems(wl: &Workload, n: usize) -> Vec<(MappingProblem, u64)> {
    let mut problems: Vec<(MappingProblem, u64)> = Vec::new();
    let viem_first = wl
        .instances
        .iter()
        .filter(|i| i.algorithm == "viem")
        .chain(wl.instances.iter().filter(|i| i.algorithm != "viem"));
    for inst in viem_first {
        if problems.len() < n
            && !problems
                .iter()
                .any(|(p, _)| p.dims().as_slice() == inst.dims)
        {
            problems.push((inst.problem(&inst.dims), inst.seed.unwrap_or(1)));
        }
    }
    problems
}

pub fn run(wl: &Workload, bin: &std::path::Path, dir: &RunDir) -> Result<Outcome, String> {
    let cfg = service_config(wl.topology);
    let seq = &wl.trace_sequence;
    let warm_len = wl.warm.len();

    // ---- phase A: real service vs shadow pipeline -------------------
    let real = MappingService::new(&cfg);
    // the ring only feeds router.hash_us; any three backend names do
    let ring = Ring::new(
        &(0..3)
            .map(|i| format!("127.0.0.1:{}", 17000 + i))
            .collect::<Vec<_>>(),
    );
    let mut shadow = Shadow::new(&cfg, ring);
    let (mut real_out, mut shadow_out) = (String::new(), String::new());
    let (mut real_ns, mut shadow_ns) = (0u64, 0u64);
    let (mut mismatches, mut first_mismatch) = (0u64, None);
    let mut warm = Totals::default();
    let mut stats_after_warm = (0.0, 0.0, 0.0);
    for (k, &line) in seq.iter().enumerate() {
        if k == warm_len {
            warm = Totals::of(&shadow, real_ns, shadow_ns);
            stats_after_warm = admin_stats(&real.handle_line(STATS_LINE))?;
        }
        let l = &wl.lines[line];
        real_out.clear();
        shadow_out.clear();
        // alternate which side runs first so neither always finds warm
        // CPU caches
        for side in [k % 2, 1 - k % 2] {
            let t = Instant::now();
            if side == 0 {
                real.handle_line_into(l.text(), false, &mut real_out);
                real_ns += t.elapsed().as_nanos() as u64;
            } else {
                shadow.serve(&l.wire, &mut shadow_out)?;
                shadow_ns += t.elapsed().as_nanos() as u64;
            }
        }
        if real_out != shadow_out {
            mismatches += 1;
            first_mismatch.get_or_insert(line);
        }
    }
    let timed = Totals::of(&shadow, real_ns, shadow_ns).since(&warm);
    let real_cache = cache_metrics(
        stats_after_warm,
        admin_stats(&real.handle_line(STATS_LINE))?,
    );
    drop(real);

    // a stage the timed requests never reach reports its cost where the
    // workload does reach it (set-up), or else on the workload's own
    // problems (an off-path probe), so every layer reports on every
    // workload; its share of the timed phase stays 0
    let problems = sample_problems(wl, 6);
    let mut probe = Clock::default();
    for alg in [
        Algorithm::Hyperplane,
        Algorithm::KdTree,
        Algorithm::StencilStrips,
        Algorithm::Nodecart,
        Algorithm::Blocked,
    ] {
        let (stage, mapper) = mapper_stage(alg).expect("rank-local");
        if shadow.clock.calls[stage as usize] == 0 {
            for (problem, _) in &problems {
                let t = Instant::now();
                let _ = std::hint::black_box(mapper.compute(problem));
                probe.add(stage, t);
            }
        }
    }

    // the same partition call sequential vs parallel on this host
    let (mut seq_s, mut par_s) = (0.0, 0.0);
    for (problem, seed) in problems
        .iter()
        .filter(|(p, _)| p.num_processes() >= 1000)
        .take(2)
    {
        let cart = CartGraph::build(problem.dims(), problem.stencil(), problem.periodic());
        let graph = Graph::from_directed_csr(cart.xadj(), cart.adjncy());
        let cfg = PartitionConfig::new(problem.alloc().sizes().to_vec()).with_seed(*seed);
        let (sequential, parallel) = (cfg.clone().with_parallel(false), cfg.with_parallel(true));
        let (s, p) = paired_medians(
            || {
                let _ = std::hint::black_box(partition(&graph, &sequential));
            },
            || {
                let _ = std::hint::black_box(partition(&graph, &parallel));
            },
        );
        seq_s += s;
        par_s += p;
    }

    // ---- phase B: persistence ---------------------------------------
    let persist_cfg = ServiceConfig {
        persist_path: Some(dir.file("trace-persist.log")),
        ..service_config(wl.topology)
    };
    let persist = {
        let svc = MappingService::open(&persist_cfg)?;
        let mut out = String::new();
        for &line in seq {
            out.clear();
            svc.handle_line_into(wl.lines[line].text(), false, &mut out);
        }
        svc.flush_persistence();
        svc.persist_stats().ok_or("persistence is configured")?
    };
    let t = Instant::now();
    let reopened = MappingService::open(&persist_cfg)?;
    let replay_s = t.elapsed().as_secs_f64();
    drop(reopened);

    // ---- phase C: router over live backends --------------------------
    let backends = Cluster::start(
        bin,
        Topology::Routed {
            cache_capacity: wl.topology.cache_capacity(),
        },
        dir,
        "trace",
    )?;
    let specs: Vec<String> = backends.servers[..backends.servers.len() - 1]
        .iter()
        .map(|s| s.addr.clone())
        .collect();
    let router = Router::new(&specs, ROUTED_REPLICAS, DEFAULT_ROUTE_TIMEOUT)?;
    let mut out = String::new();
    let (mut route_errors, mut forward_ns) = (0u64, 0u64);
    let mut routed_after_warm = (0.0, 0.0, 0.0);
    let mut phase_c = Instant::now();
    for (k, &line) in seq.iter().enumerate() {
        if k == warm_len {
            out.clear();
            router.handle_line_into(STATS_LINE, false, &mut out);
            routed_after_warm = admin_stats(&out)?;
            forward_ns = 0;
            phase_c = Instant::now();
        }
        out.clear();
        let t = Instant::now();
        router.handle_line_into(wl.lines[line].text(), false, &mut out);
        forward_ns += t.elapsed().as_nanos() as u64;
        if out.contains("\"status\":\"error\"") {
            route_errors += 1;
        }
    }
    let phase_c_ns = phase_c.elapsed().as_nanos() as f64;
    out.clear();
    router.handle_line_into(STATS_LINE, false, &mut out);
    let routed_cache = cache_metrics(routed_after_warm, admin_stats(&out)?);
    let router_stats = router.stats();
    drop(router);
    drop(backends);

    // ---- metrics: the timed part of the sequence ----------------------
    let lines = (seq.len() - warm_len) as f64;
    let hash = Stage::Hash as usize;
    // the shadow's wall time with router hashing (not a service stage) aside
    let wall_ns = (timed.shadow_ns - timed.clock.ns[hash]) as f64;
    let stage_ns: u64 = (0..STAGES)
        .filter(|&i| i != hash)
        .map(|i| timed.clock.ns[i])
        .sum();
    let inner_ns = stage_ns - timed.clock.ns[Stage::Frame as usize];
    let self_ns = timed.handle_ns.saturating_sub(inner_ns) as f64;
    let (hit_ratio, evictions) = match wl.topology {
        Topology::Single { .. } => real_cache,
        Topology::Routed { .. } => routed_cache,
    };
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut timed_metric = |name: &str, value: f64, unit: &'static str, share: f64| {
        metrics.push((name.to_string(), value, unit));
        metrics.push((format!("{name}.share"), share, "ratio"));
    };
    for (i, &(name, ms)) in STAGE_METRICS.iter().enumerate() {
        let value = per_call(&timed.clock, i)
            .or_else(|| per_call(&shadow.clock, i))
            .or_else(|| per_call(&probe, i))
            .ok_or(format!("the traced run never reached {name}"))?;
        let share = timed.clock.ns[i] as f64 / wall_ns;
        timed_metric(name, value, if ms { "ms" } else { "us" }, share);
    }
    timed_metric(
        "service.handle_us",
        timed.real_ns as f64 * 1e-3 / lines,
        "us",
        timed.handle_ns as f64 / wall_ns,
    );
    timed_metric(
        "service.self_us",
        self_ns * 1e-3 / lines,
        "us",
        self_ns / wall_ns,
    );
    timed_metric(
        "router.forward_us",
        forward_ns as f64 * 1e-3 / lines,
        "us",
        forward_ns as f64 / phase_c_ns,
    );
    let refines = shadow.clock.calls[Stage::RefineKway as usize].max(1) as f64;
    let counts: [(&str, f64, &'static str); 17] = [
        (
            "protocol.response_bytes",
            timed.response_bytes as f64 / lines,
            "bytes",
        ),
        ("cache.hit_ratio", hit_ratio, "ratio"),
        ("cache.evictions", evictions, "count"),
        ("partition.seq_over_par", seq_s / par_s, "ratio"),
        ("partition.cut", shadow.cut as f64 / refines, "count"),
        (
            "partition.refine_swaps",
            shadow.swaps as f64 / refines,
            "count",
        ),
        ("persist.appended", persist.appended as f64, "count"),
        ("persist.flushes", persist.flushes as f64, "count"),
        ("persist.compactions", persist.compactions as f64, "count"),
        ("persist.dropped", persist.dropped as f64, "count"),
        ("persist.replay_s", replay_s, "s"),
        ("router.fanouts", router_stats.fanouts as f64, "count"),
        ("router.failovers", router_stats.failovers as f64, "count"),
        ("router.reconnects", router_stats.reconnects as f64, "count"),
        (
            "router.unavailable",
            router_stats.unavailable as f64,
            "count",
        ),
        ("trace.coverage", stage_ns as f64 / wall_ns, "ratio"),
        (
            "trace.overhead",
            timed.handle_ns as f64 / timed.real_ns as f64,
            "ratio",
        ),
    ];
    metrics.extend(counts.iter().map(|&(n, v, u)| (n.to_string(), v, u)));

    let num = |x: f64| Value::Num(x);
    let calls = |clock: &Clock| {
        Value::obj(
            STAGE_METRICS
                .iter()
                .enumerate()
                .map(|(i, &(name, _))| (name, num(clock.calls[i] as f64)))
                .collect(),
        )
    };
    let detail = Value::obj(vec![
        ("timed_lines", num(lines)),
        ("warm_lines", num(warm_len as f64)),
        ("shadow_mismatches", num(mismatches as f64)),
        (
            "first_mismatch_line",
            first_mismatch.map_or(Value::Null, |l| num(l as f64)),
        ),
        ("route_errors", num(route_errors as f64)),
        ("timed_calls", calls(&timed.clock)),
        ("all_calls", calls(&shadow.clock)),
        ("probe_calls", calls(&probe)),
    ]);
    if mismatches > 0 {
        eprintln!(
            "servebench: the shadow pipeline differs from MappingService::handle_line on \
             {mismatches} lines (first: line {})",
            first_mismatch.unwrap_or(0)
        );
    }
    Ok(Outcome {
        metrics,
        detail,
        attempted: seq.len() as u64,
        // a shadow mismatch means the stage times describe another program
        failed: route_errors + if mismatches > 0 { seq.len() as u64 } else { 0 },
    })
}
