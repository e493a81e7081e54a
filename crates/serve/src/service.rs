//! The mapping service: canonicalizing cache in front of the mapping engine,
//! with streaming-evaluator admission control.
//!
//! Every request is canonicalised ([`stencil_mapping::canonical`]) before the
//! cache lookup, so all requests that are equal up to a dimension relabeling
//! (and stencil offset order) share one cache entry.  Misses are computed
//! through the existing mapping engine — the rank-local mappers run through
//! the allocation-free parallel pool, the VieM-style pipeline through the
//! multilevel partitioner — and every computed mapping is scored once with
//! [`stencil_mapping::metrics::evaluate_streaming`] (`O(p)` memory); the
//! cost rides along in the cache entry, so admission decisions on hits are
//! free.
//!
//! A line is decoded in one pass: `Fields::scan` checks its syntax and
//! records the first span of each member the service reads, the request
//! rules (`protocol::check`, which [`MapRequest::from_value`] also runs)
//! read those spans, a named stencil on at most [`MAX_CANONICAL_NDIMS`]
//! dims is canonicalised inline ([`canonicalize_named`]), and a borrowed
//! `KeyView` of the cache key is hashed once for both the shard and the
//! in-shard probe ([`ShardedLru::get_tracking_mru_hashed`]).  A hit
//! builds no `Value` (unless it echoes an id), request, canonical form or
//! owned key; a miss builds the owned key and computes from it.
//!
//! Everything is deterministic: for a fixed request sequence the responses
//! are byte-identical for every thread count (the engine's guarantee) and
//! the hit/miss pattern is a pure function of the sequence.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::cache::{CacheStats, EvictionPolicy, ShardedLru};
use crate::faultpoint;
use crate::json::{
    base64_encode_into, encode_nodes_compact, CompactEncoder, Field, Span, U32ArrayWriter, Value,
};
use crate::persist::{
    insert_line, load_and_compact, parse_record, CacheSnapshotter, LoadReport, PersistLog,
    PersistStats, Record,
};
use crate::protocol::{
    check, usizes, write_points, Algorithm, AllocSpec, Checked, Encoding, Fields, Key, MapRequest,
    MapResponse, Object, OkHead, OverBudget, Query, ResponseBody, StencilSpec, COMPACT_NODES_FIELD,
    NODES_FIELD,
};
use crate::server::MAX_LINE_BYTES;
use stencil_grid::{Dims, NodeAllocation, Stencil};
use stencil_mapping::canonical::{
    canonicalize, canonicalize_named, Canonical, NamedCanonical, Restore, MAX_CANONICAL_NDIMS,
};
use stencil_mapping::metrics::evaluate_streaming;
use stencil_mapping::MappingProblem;

/// Cache key of one canonical mapping computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical dimension sizes.
    pub dims: Vec<usize>,
    /// Canonical stencil, flattened (`k * ndims` entries).
    pub stencil: Vec<i64>,
    /// Torus boundaries.
    pub periodic: bool,
    /// Per-node allocation sizes.
    pub alloc: Vec<usize>,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Seed (normalised to 0 for algorithms that ignore it).
    pub seed: u64,
}

impl CacheKey {
    /// The canonical cache key of one parsed request, exactly as
    /// [`MappingService`] caches it: canonical dims/stencil from
    /// [`stencil_mapping::canonical`], the requested algorithm, and the seed
    /// normalised to 0 for algorithms that ignore it.  The router hashes
    /// [`CacheKey::routing_bytes`] of this key, so canonically-equal
    /// requests always land on the same backend shard.
    pub fn of_request(req: &MapRequest) -> CacheKey {
        let canon = canonicalize(&req.dims, &req.stencil);
        CacheKey::of_canonical(req, &canon, req.algorithm, req.seed)
    }

    /// [`CacheKey::of_request`] with an already-computed canonicalisation
    /// and an explicit `(algorithm, seed)` (the budget-fallback path probes
    /// sibling keys of the same canonical problem).
    pub fn of_canonical(
        req: &MapRequest,
        canon: &Canonical,
        algorithm: Algorithm,
        seed: u64,
    ) -> CacheKey {
        CacheKey {
            dims: canon.dims.as_slice().to_vec(),
            stencil: canon.stencil.to_flat(),
            periodic: req.periodic,
            alloc: req.alloc.sizes().to_vec(),
            algorithm,
            seed: if algorithm.uses_seed() { seed } else { 0 },
        }
    }

    /// A stable, unambiguous byte encoding of the key for consistent
    /// hashing.  Every field is length-prefixed or fixed-width
    /// (little-endian), so distinct keys can never encode to the same
    /// bytes.  This encoding is part of the router's placement contract:
    /// changing it reshuffles every key across the ring.
    pub fn routing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * (self.dims.len() + self.alloc.len()) + 32);
        out.extend_from_slice(&(self.dims.len() as u32).to_le_bytes());
        for &d in &self.dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.stencil.len() as u32).to_le_bytes());
        for &s in &self.stencil {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.push(self.periodic as u8);
        out.extend_from_slice(&(self.alloc.len() as u32).to_le_bytes());
        for &a in &self.alloc {
            out.extend_from_slice(&(a as u64).to_le_bytes());
        }
        let name = self.algorithm.wire_name().as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out
    }
}

/// A borrowed [`CacheKey`]: what a lookup compares and hashes without
/// building the key's vectors.  [`KeyView::key_hash`] feeds `DefaultHasher`
/// the stream the derived `Hash` of the owned key does, so the view finds
/// the key in [`ShardedLru`] (and picks its shard, so placement cannot
/// move); equality is checked against the stored key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyView<'a> {
    dims: &'a [usize],
    stencil: &'a [i64],
    periodic: bool,
    alloc: AllocView<'a>,
    algorithm: Algorithm,
    /// Normalised as [`CacheKey::of_canonical`] does.
    seed: u64,
}

/// A key's per-node sizes: `nodes` copies of `per`, or a list.
#[derive(Debug, Clone, Copy)]
enum AllocView<'a> {
    Homogeneous { nodes: usize, per: usize },
    Listed(&'a [usize]),
}

impl KeyView<'_> {
    /// [`crate::cache::hash_of`] the owned key.
    pub(crate) fn key_hash(self) -> u64 {
        let mut h = DefaultHasher::new();
        self.dims.hash(&mut h);
        self.stencil.hash(&mut h);
        self.periodic.hash(&mut h);
        match self.alloc {
            AllocView::Listed(sizes) => sizes.hash(&mut h),
            AllocView::Homogeneous { nodes, per } => {
                // a slice hashes its length, then its bytes in one write;
                // SipHash reads a byte stream, so they may go in pieces
                h.write_usize(nodes);
                let word = per.to_ne_bytes();
                let mut words = [0u8; 64 * std::mem::size_of::<usize>()];
                for w in words.chunks_exact_mut(word.len()) {
                    w.copy_from_slice(&word);
                }
                let mut left = nodes * word.len();
                while left > 0 {
                    let n = left.min(words.len());
                    h.write(&words[..n]);
                    left -= n;
                }
            }
        }
        self.algorithm.hash(&mut h);
        self.seed.hash(&mut h);
        h.finish()
    }

    /// Whether `key` is the key this view borrows.
    pub(crate) fn matches(self, key: &CacheKey) -> bool {
        key.algorithm == self.algorithm
            && key.seed == self.seed
            && key.periodic == self.periodic
            && key.dims == self.dims
            && key.stencil == self.stencil
            && match self.alloc {
                AllocView::Listed(sizes) => key.alloc == sizes,
                AllocView::Homogeneous { nodes, per } => {
                    key.alloc.len() == nodes && key.alloc.iter().all(|&s| s == per)
                }
            }
    }

    /// The owned key.
    pub(crate) fn to_key(self) -> CacheKey {
        CacheKey {
            dims: self.dims.to_vec(),
            stencil: self.stencil.to_vec(),
            periodic: self.periodic,
            alloc: match self.alloc {
                AllocView::Listed(sizes) => sizes.to_vec(),
                AllocView::Homogeneous { nodes, per } => vec![per; nodes],
            },
            algorithm: self.algorithm,
            seed: self.seed,
        }
    }
}

/// A cached mapping in canonical coordinates, with its cost.
#[derive(Debug, Default)]
pub struct CacheEntry {
    /// `position → node` on the canonical grid.
    pub nodes: Vec<u32>,
    /// Total inter-node edges.
    pub j_sum: u64,
    /// Bottleneck-node egress.
    pub j_max: u64,
    /// Lazily memoised compact encoding of `nodes` (canonical orientation):
    /// computed at most once per entry, so repeat compact-mode hits on an
    /// identity-permutation request skip the encode entirely.
    compact: OnceLock<String>,
}

impl CacheEntry {
    /// Creates an entry (the compact encoding is computed lazily).
    pub fn new(nodes: Vec<u32>, j_sum: u64, j_max: u64) -> Self {
        CacheEntry {
            nodes,
            j_sum,
            j_max,
            compact: OnceLock::new(),
        }
    }

    /// The compact wire encoding of the canonical-orientation node table,
    /// encoded on first use and memoised.
    pub fn compact_encoding(&self) -> &str {
        self.compact
            .get_or_init(|| encode_nodes_compact(&self.nodes))
    }
}

impl PartialEq for CacheEntry {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.j_sum == other.j_sum && self.j_max == other.j_max
    }
}

impl Eq for CacheEntry {}

impl Clone for CacheEntry {
    fn clone(&self) -> Self {
        CacheEntry::new(self.nodes.clone(), self.j_sum, self.j_max)
    }
}

/// The GDSF recompute cost of a cache entry: grid volume × the
/// algorithm's relative recompute cost per grid position.  The weights
/// mirror the measured asymmetry from the paper's setting: the multilevel
/// viem pipeline costs ~45 ms where the rank-local mappers cost ~1 ms, so a
/// viem entry is worth roughly 50 cheap entries of the same size.  A pure
/// function of the key, so the persistence log never stores costs — replay
/// re-derives them.  Ignored under LRU eviction.
pub fn entry_cost(key: &CacheKey) -> u64 {
    let volume: u64 = key.dims.iter().map(|&d| d as u64).product();
    let weight = match key.algorithm {
        Algorithm::Viem => 50,
        _ => 1,
    };
    volume.saturating_mul(weight)
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total cache capacity in entries.
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Append-only persistence log for canonical cache entries (`None`
    /// disables persistence).  Loaded — and compacted — on start, appended
    /// to write-behind while serving, so a restarted server answers
    /// previously cached requests as hits without recomputation.
    pub persist_path: Option<std::path::PathBuf>,
    /// Eviction policy: LRU (default, byte-stable goldens) or GDSF
    /// (recompute cost scales retention).
    pub eviction: EvictionPolicy,
    /// Online-compaction threshold for the persistence log, in bytes: once
    /// the live log outgrows it, the writer thread rewrites and atomically
    /// swaps the log without a restart.  0 disables online compaction
    /// (load-time compaction still runs).
    pub compact_bytes: u64,
}

/// Default online-compaction threshold (`--compact-bytes`): 64 MiB.
pub const DEFAULT_COMPACT_BYTES: u64 = 64 * 1024 * 1024;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            cache_shards: 8,
            persist_path: None,
            eviction: EvictionPolicy::Lru,
            compact_bytes: DEFAULT_COMPACT_BYTES,
        }
    }
}

/// The caching mapping service.  Cheap to share: wrap it in an [`Arc`] and
/// hand clones to every connection thread.  Dropping the service flushes
/// and closes the persistence log.
pub struct MappingService {
    cache: Arc<ShardedLru<CacheKey, Arc<CacheEntry>>>,
    persist: Option<PersistLog>,
    /// One lock per cache shard, held around `(cache op, log record)` pairs
    /// when persistence is on, so the log's per-shard record order always
    /// matches the order the operations hit the shard — without it, two
    /// workers could touch the same shard and log in the opposite order,
    /// and a replay would reproduce the wrong recency.  The persistence
    /// writer's online compaction takes *all* of them to freeze the cache
    /// while it snapshots (see [`CacheSnapshotter`]).  Unused (and
    /// uncontended) without persistence.
    persist_locks: Arc<Vec<Mutex<()>>>,
    load_report: LoadReport,
}

/// Bytes of an `{"admin":"absorb"}` line around its base64 log.
const ABSORB_LINE_BYTES: usize = r#"{"admin":"absorb","log":""}"#.len();

/// Algorithms tried (in order) when a budgeted request overflows and asks
/// for a fallback: the paper's specialised algorithms, cheapest useful
/// quality first, then Nodecart.
const FALLBACK_ORDER: [Algorithm; 4] = [
    Algorithm::Hyperplane,
    Algorithm::KdTree,
    Algorithm::StencilStrips,
    Algorithm::Nodecart,
];

/// A checked request with its canonical form: what the service looks up,
/// computes and answers.
struct Request<'a> {
    id: Option<Value>,
    canon: Canon,
    /// How the canonical table reads in the request's dimension order.
    restore: Restore,
    periodic: bool,
    alloc: AllocSpec,
    algorithm: Algorithm,
    seed: u64,
    max_jsum: Option<u64>,
    on_over_budget: OverBudget,
    want: Want<'a>,
}

/// A request's canonical dims and flattened stencil.  The named form is
/// held inline, large as it is, so that a hit allocates nothing.
#[allow(clippy::large_enum_variant)]
enum Canon {
    /// A named stencil on at most [`MAX_CANONICAL_NDIMS`] dims, found inline.
    Named(NamedCanonical),
    /// Any other request, through [`canonicalize`].
    Owned { dims: Dims, stencil: Vec<i64> },
}

/// What an answer carries after its head.
enum Want<'a> {
    /// Nothing: a cost-only answer.
    Cost,
    /// The whole table.
    Table(Encoding),
    /// The nodes of a `new_rank_of` query's positions.
    Points(Ranks<'a>),
}

/// A `new_rank_of` query's positions, as checked in the line or listed.
enum Ranks<'a> {
    Span(Span<'a>),
    Listed(Vec<usize>),
}

impl<'a> Want<'a> {
    fn of(want_mapping: bool, encoding: Encoding, ranks: Option<Ranks<'a>>) -> Want<'a> {
        match ranks {
            Some(ranks) => Want::Points(ranks),
            None if want_mapping => Want::Table(encoding),
            None => Want::Cost,
        }
    }
}

impl<'a> Request<'a> {
    /// The request of a checked line item: a named stencil on at most
    /// [`MAX_CANONICAL_NDIMS`] dims is canonicalised inline, any other
    /// request goes through the owned one.
    fn checked(c: Checked<Span<'a>>) -> Request<'a> {
        let (StencilSpec::Named(named), true) = (&c.stencil, c.ndims <= MAX_CANONICAL_NDIMS) else {
            return Request::owned(c.build());
        };
        let mut sizes = [0; MAX_CANONICAL_NDIMS];
        sizes
            .iter_mut()
            .zip(usizes(c.dims))
            .for_each(|(s, d)| *s = d);
        let Some(canon) = canonicalize_named(&sizes[..c.ndims], *named) else {
            return Request::owned(c.build());
        };
        Request {
            id: c.id.map(Field::to_value),
            restore: canon.restore(),
            canon: Canon::Named(canon),
            periodic: c.periodic,
            alloc: c.alloc,
            algorithm: c.algorithm,
            seed: c.seed,
            max_jsum: c.max_jsum,
            on_over_budget: c.on_over_budget,
            want: Want::of(c.want_mapping, c.encoding, c.ranks.map(Ranks::Span)),
        }
    }

    /// The request of an owned [`MapRequest`], canonicalised by
    /// [`canonicalize`].
    fn owned(req: MapRequest) -> Request<'a> {
        let canon = canonicalize(&req.dims, &req.stencil);
        Request {
            id: req.id,
            restore: canon.restore(&req.dims),
            canon: Canon::Owned {
                stencil: canon.stencil.to_flat(),
                dims: canon.dims,
            },
            periodic: req.periodic,
            alloc: AllocSpec::Listed(req.alloc),
            algorithm: req.algorithm,
            seed: req.seed,
            max_jsum: req.max_jsum,
            on_over_budget: req.on_over_budget,
            want: Want::of(
                req.want_mapping,
                req.encoding,
                req.query
                    .map(|Query::NewRankOf(ranks)| Ranks::Listed(ranks)),
            ),
        }
    }

    /// The cache key of this request under `algorithm`, borrowed.
    fn key(&self, algorithm: Algorithm) -> KeyView<'_> {
        let (dims, stencil) = match &self.canon {
            Canon::Named(canon) => (canon.dims(), canon.stencil_flat()),
            Canon::Owned { dims, stencil } => (dims.as_slice(), stencil.as_slice()),
        };
        KeyView {
            dims,
            stencil,
            periodic: self.periodic,
            alloc: match &self.alloc {
                AllocSpec::Homogeneous { nodes, per } => AllocView::Homogeneous {
                    nodes: *nodes,
                    per: *per,
                },
                AllocSpec::Listed(alloc) => AllocView::Listed(alloc.sizes()),
            },
            algorithm,
            seed: if algorithm.uses_seed() { self.seed } else { 0 },
        }
    }
}

/// A request answered from a cache entry, written straight from the entry
/// into the output by [`Served::write_into`]: no restored table, varint
/// buffer or response value is built on the way.
struct Served<'a> {
    req: Request<'a>,
    /// The algorithm whose entry is served (differs from the request's
    /// under budget fallback).
    algorithm: Algorithm,
    fallback_from: Option<Algorithm>,
    entry: Arc<CacheEntry>,
    cached: bool,
    degraded: bool,
}

impl Served<'_> {
    /// Appends the answer line, byte-identical to [`MapResponse::write_into`]
    /// over the materialised payload (`Payload::Table` of the restored
    /// table, `Payload::TableCompact` of its encoding, or
    /// `Payload::Points`).
    fn write_into(&self, out: &mut String) {
        let (req, entry) = (&self.req, &*self.entry);
        OkHead {
            id: req.id.as_ref(),
            algorithm: self.algorithm,
            fallback_from: self.fallback_from,
            cached: self.cached,
            degraded: self.degraded,
            j_sum: entry.j_sum,
            j_max: entry.j_max,
        }
        .write(out);
        // point lookups: read the cached canonical table entry-wise,
        // transporting each queried position through the relabeling —
        // O(|ranks| · d), no table serialisation at all
        let node = |x| entry.nodes[req.restore.index_of(x)];
        match &req.want {
            Want::Points(Ranks::Span(ranks)) => {
                write_points(out, usizes(*ranks), usizes(*ranks).map(node))
            }
            Want::Points(Ranks::Listed(ranks)) => {
                write_points(out, ranks.iter().copied(), ranks.iter().map(|&x| node(x)))
            }
            Want::Cost => {}
            Want::Table(_) if self.degraded => {}
            Want::Table(Encoding::Verbose) => {
                out.push_str(NODES_FIELD);
                let mut w = U32ArrayWriter::new(out);
                req.restore.for_each(&entry.nodes, |run| w.write(run));
                w.finish();
            }
            Want::Table(Encoding::Compact) => {
                out.push_str(COMPACT_NODES_FIELD);
                out.push('"');
                if req.restore.is_identity() {
                    // the restored table is the canonical one, and base64
                    // needs no escaping: the memoised encoding goes out as
                    // it is
                    out.push_str(entry.compact_encoding());
                } else {
                    let mut enc = CompactEncoder::new(out, entry.nodes.len());
                    req.restore.for_each(&entry.nodes, |run| enc.write(run));
                    enc.finish();
                }
                out.push('"');
            }
        }
        out.push('}');
    }
}

/// Appends a handled request's answer line.
fn write_answer(answer: Result<Served, MapResponse>, out: &mut String) {
    match answer {
        Ok(served) => served.write_into(out),
        Err(error) => error.write_into(out),
    }
}

/// Computes the entry of `key` with the mapping engine and scores it once.
fn compute(key: &CacheKey) -> Result<CacheEntry, String> {
    let inconsistent = |e: &dyn std::fmt::Display| format!("inconsistent problem: {e}");
    let problem = MappingProblem::with_periodicity(
        Dims::new(key.dims.clone()).map_err(|e| inconsistent(&e))?,
        Stencil::from_flat(key.dims.len(), &key.stencil).map_err(|e| inconsistent(&e))?,
        NodeAllocation::heterogeneous(key.alloc.clone()).map_err(|e| inconsistent(&e))?,
        key.periodic,
    )
    .map_err(|e| inconsistent(&e))?;
    let mapping = key
        .algorithm
        .mapper(key.seed)
        .compute(&problem)
        .map_err(|e| format!("{}: {e}", key.algorithm.wire_name()))?;
    let cost = evaluate_streaming(problem.dims(), problem.stencil(), key.periodic, &mapping);
    Ok(CacheEntry::new(
        mapping
            .node_of_position_slice()
            .iter()
            .map(|&n| n as u32)
            .collect(),
        cost.j_sum,
        cost.j_max,
    ))
}

impl MappingService {
    /// Creates a service with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when `persist_path` is set and the log cannot be loaded or
    /// opened; use [`MappingService::open`] to handle that gracefully.
    pub fn new(cfg: &ServiceConfig) -> Self {
        Self::open(cfg).expect("persistence setup failed")
    }

    /// Creates a service, loading (and compacting) the persistence log when
    /// one is configured.
    pub fn open(cfg: &ServiceConfig) -> Result<Self, String> {
        let cache = Arc::new(ShardedLru::with_policy(
            cfg.cache_capacity,
            cfg.cache_shards,
            cfg.eviction,
        ));
        let persist_locks: Arc<Vec<Mutex<()>>> =
            Arc::new((0..cache.num_shards()).map(|_| Mutex::new(())).collect());
        let (persist, load_report) = match &cfg.persist_path {
            None => (None, LoadReport::default()),
            Some(path) => {
                let report = load_and_compact(path, &cache)?;
                let snapshotter =
                    CacheSnapshotter::new(Arc::clone(&cache), Arc::clone(&persist_locks));
                let log = PersistLog::open_append(path, cfg.compact_bytes, snapshotter)?;
                (Some(log), report)
            }
        };
        Ok(MappingService {
            cache,
            persist,
            persist_locks,
            load_report,
        })
    }

    /// Cache hit/miss counters and entry count.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// What the persistence log replayed at start (all zeros without
    /// persistence).
    pub fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// Blocks until every persistence record queued so far is on disk.
    /// No-op without persistence.
    pub fn flush_persistence(&self) {
        if let Some(p) = &self.persist {
            p.flush();
        }
    }

    /// Blocks until the persistence log has been compacted (rewritten to
    /// one insert per resident entry and atomically swapped).  Used on
    /// drain/shutdown and by the crash tests to trigger compaction at a
    /// deterministic moment.  No-op without persistence.
    pub fn compact_persistence(&self) {
        if let Some(p) = &self.persist {
            p.compact();
        }
    }

    /// The persistence writer's counters (appends, drops, flushes,
    /// compactions); `None` without persistence.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.persist.as_ref().map(|p| p.stats())
    }

    /// The `(key, entry)` pairs of one cache shard, least recently used
    /// first, without touching recency (diagnostics; the persistence reload
    /// tests compare these across a restart).
    pub fn cache_shard_entries_lru_first(&self, shard: usize) -> Vec<(CacheKey, Arc<CacheEntry>)> {
        self.cache.shard_entries_lru_first(shard)
    }

    /// Number of cache shards.
    pub fn cache_num_shards(&self) -> usize {
        self.cache.num_shards()
    }

    /// Handles one wire line: a request object or a `{"batch": […]}`
    /// wrapper.  Always returns exactly one line of response JSON (without
    /// the trailing newline).
    ///
    /// Batch items are processed strictly in order: the `cached` flags and
    /// the cache's recency order (and therefore later evictions) are a pure
    /// function of the request sequence, which keeps responses byte-identical
    /// for every thread count — computing items concurrently would race
    /// canonically-equal items on both.  Parallelism lives below (the
    /// engine's rank-parallel fan-out on every miss) and above (the TCP
    /// worker pool, where one pooled worker holds a connection at a time).
    pub fn handle_line(&self, line: &str) -> String {
        let mut out = String::new();
        self.handle_line_into(line, false, &mut out);
        out
    }

    /// Like [`MappingService::handle_line`], but appends the response line
    /// (without the trailing newline) to `out` instead of allocating a
    /// fresh `String`.  The line is decoded in one pass (see the module
    /// doc), and an answer from a cache entry — a hit or a miss, single
    /// line, batch item, write-through, budget fallback or degraded — is
    /// written in one pass from the cached canonical table into `out`: a
    /// verbose table streams through the restoring walk into the digit
    /// writer, a permuted compact table through it into the compact
    /// encoder, and a compact table in canonical order appends the entry's
    /// memoised encoding.  No restored table, response value or [`Value`]
    /// tree is built (byte-identical to [`MapResponse::write_into`] over
    /// the materialised payload; see the byte-identity tests), and the TCP
    /// workers reuse one buffer for a whole turn's worth of responses.
    ///
    /// With `degrade` set every table response is answered cost-only (as if
    /// `want_mapping:false`) and flagged `"degraded":true` — the overloaded
    /// server's way of keeping the admission-control answer flowing while
    /// shedding the expensive serialisation.  Point queries and cost-only
    /// requests are already cheap and are served in full.
    pub fn handle_line_into(&self, line: &str, degrade: bool, out: &mut String) {
        faultpoint::reach("serve.request");
        let fields = match Fields::scan(line) {
            Ok(fields) => fields,
            Err(e) => {
                MapResponse {
                    id: None,
                    body: ResponseBody::Error(format!("invalid JSON: {e}")),
                }
                .write_into(out);
                return;
            }
        };
        if let Some(cmd) = fields.get(Key::Admin) {
            self.handle_admin(&fields, cmd, degrade, out);
            return;
        }
        if let Some(batch) = fields.get(Key::Batch) {
            let Some(items) = batch.items() else {
                MapResponse {
                    id: None,
                    body: ResponseBody::Error("\"batch\" must be an array".to_string()),
                }
                .write_into(out);
                return;
            };
            out.push_str("{\"batch\":[");
            for (i, item) in items.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_answer(self.answer(&Fields::of(item), degrade), out);
            }
            out.push_str("]}");
        } else {
            write_answer(self.answer(&fields, degrade), out);
        }
    }

    /// Handles an `{"admin": "..."}` control request.  Four commands:
    ///
    /// * `"handoff"`: flush and compact the persistence log, then ship the
    ///   whole compacted log (one insert per resident entry) base64-encoded
    ///   in the response, so a new shard can start warm from it
    ///   (`stencil-serve --handoff ADDR --persist FILE`, and the router's
    ///   reshard choreography).  Requires persistence; without `--persist`
    ///   the command is answered with an error line.
    /// * `"stats"`: one-line cache counters (`hits`, `misses`, `entries`) —
    ///   the per-backend payload the router's stats fan-out aggregates.
    /// * `"absorb"`: the inverse of handoff — a base64 `"log"` of
    ///   persistence insert records is replayed into the cache (and the
    ///   persistence log, when enabled), **skipping keys already resident**
    ///   so a replayed image never perturbs recency of live entries.  The
    ///   router streams moved key ranges and replica write-throughs through
    ///   this.
    /// * `"write_through"`: answers one `"request"` object exactly as a
    ///   batch item (with this worker's `degrade` flag) and ships, beside
    ///   the answer, the insert records of the entries it computed (see
    ///   [`MappingService::write_through_records`]):
    ///   `{"status":"ok","admin":"write_through","log":L,"response":R}`.
    ///   `L` is the records' base64 when this call computed the served
    ///   entry, `""` when it did not, and `null` when it did but the
    ///   records cannot ship (evicted again, or an absorb line would pass
    ///   the line limit).  The router sends every replicated request this
    ///   way, so a miss costs one round trip before its absorbs.
    fn handle_admin(&self, v: &Fields, cmd: Span, degrade: bool, out: &mut String) {
        let id = v.get(Key::Id).map(Field::to_value);
        let error = |out: &mut String, msg: String| {
            MapResponse {
                id: id.clone(),
                body: ResponseBody::Error(msg),
            }
            .write_into(out)
        };
        match cmd.as_str().as_deref() {
            Some("handoff") => {
                let Some(p) = &self.persist else {
                    error(out, "handoff requires --persist".to_string());
                    return;
                };
                p.flush();
                p.compact();
                let bytes = match std::fs::read(p.path()) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        error(out, format!("cannot read persistence log: {e}"));
                        return;
                    }
                };
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id", id));
                }
                fields.push(("status", Value::str("ok")));
                fields.push(("admin", Value::str("handoff")));
                fields.push(("entries", Value::Num(self.cache.stats().len as f64)));
                fields.push(("log_bytes", Value::Num(bytes.len() as f64)));
                fields.push(("log", Value::str(crate::json::base64_encode(&bytes))));
                Value::obj(fields).write_into(out);
            }
            Some("stats") => {
                let stats = self.cache.stats();
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id", id));
                }
                fields.push(("status", Value::str("ok")));
                fields.push(("admin", Value::str("stats")));
                fields.push(("hits", Value::Num(stats.hits as f64)));
                fields.push(("misses", Value::Num(stats.misses as f64)));
                fields.push(("entries", Value::Num(stats.len as f64)));
                Value::obj(fields).write_into(out);
            }
            Some("absorb") => {
                let Some(log) = v.get(Key::Log).and_then(Field::as_str) else {
                    error(out, "absorb needs a base64 \"log\" string".to_string());
                    return;
                };
                let bytes = match crate::json::base64_decode(&log) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        error(out, format!("absorb log is not valid base64: {e}"));
                        return;
                    }
                };
                let Ok(text) = String::from_utf8(bytes) else {
                    error(out, "absorb log is not valid UTF-8".to_string());
                    return;
                };
                let (mut inserted, mut skipped) = (0u64, 0u64);
                for line in text.lines().filter(|l| !l.is_empty()) {
                    // touches (recency only) and undecodable lines are
                    // skipped: an absorbed image warms the cache, it never
                    // reorders or poisons it
                    let Ok(Record::Insert(key, entry)) = parse_record(line) else {
                        skipped += 1;
                        continue;
                    };
                    if self.cache.peek(&key).is_some() {
                        skipped += 1;
                        continue;
                    }
                    let entry = Arc::new(entry);
                    let cost = entry_cost(&key);
                    if let Some(p) = &self.persist {
                        // the line just parsed and checked is the record:
                        // append it as is instead of re-serialising the entry
                        let lock = &self.persist_locks[self.cache.shard_of(&key)];
                        let _guard = lock.lock().expect("persist lock poisoned");
                        p.record_insert_line(line.to_string());
                        self.cache.insert_with_cost(key, entry, cost);
                    } else {
                        self.cache.insert_with_cost(key, entry, cost);
                    }
                    inserted += 1;
                }
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id", id));
                }
                fields.push(("status", Value::str("ok")));
                fields.push(("admin", Value::str("absorb")));
                fields.push(("inserted", Value::Num(inserted as f64)));
                fields.push(("skipped", Value::Num(skipped as f64)));
                Value::obj(fields).write_into(out);
            }
            Some("write_through") => {
                let Some(item) = v.get(Key::Request) else {
                    error(out, "write_through needs a \"request\" object".to_string());
                    return;
                };
                let answer = self.answer(&Fields::of(item), degrade);
                let records = match &answer {
                    Ok(served) if !served.cached => Some(self.write_through_records(&served.req)),
                    _ => None,
                };
                out.push('{');
                if let Some(id) = id {
                    out.push_str("\"id\":");
                    id.write_into(out);
                    out.push(',');
                }
                out.push_str("\"status\":\"ok\",\"admin\":\"write_through\",\"log\":");
                match records {
                    None => out.push_str("\"\""),
                    // records evicted again, or an absorb line past the
                    // line limit (dropped unread): the router sends the
                    // request itself and each replica computes the entry
                    Some(records)
                        if records.is_empty()
                            || ABSORB_LINE_BYTES + records.len().div_ceil(3) * 4
                                > MAX_LINE_BYTES =>
                    {
                        out.push_str("null")
                    }
                    Some(records) => {
                        out.push('"');
                        base64_encode_into(out, records.as_bytes());
                        out.push('"');
                    }
                }
                out.push_str(",\"response\":");
                write_answer(answer, out);
                out.push('}');
            }
            _ => error(
                out,
                format!(
                    "unknown admin command {} (expected \"handoff\", \"stats\", \"absorb\" or \"write_through\")",
                    cmd.to_value().compact()
                ),
            ),
        }
    }

    /// The write-through log of a request this service just answered: the
    /// persistence insert records ([`insert_line`]) of the resident entries
    /// `req` resolves to, one per line, in the order
    /// [`MappingService::resolve`] looks them up — the requested key,
    /// then, for an over-budget `"on_over_budget":"fallback"` request,
    /// [`FALLBACK_ORDER`] up to the first entry within budget.  Lookup-only:
    /// [`ShardedLru::peek_hashed`] leaves recency and the hit/miss counters
    /// alone.  Empty when the requested key is no longer resident.
    fn write_through_records(&self, req: &Request) -> String {
        let peek = |algorithm| {
            let key = req.key(algorithm);
            self.cache
                .peek_hashed(key.key_hash(), |k| key.matches(k))
                .map(|entry| (key.to_key(), entry))
        };
        let mut records = String::new();
        let Some((key, entry)) = peek(req.algorithm) else {
            return records;
        };
        let mut push = |key: &CacheKey, entry: &CacheEntry| {
            records.push_str(&insert_line(key, entry));
            records.push('\n');
        };
        push(&key, &entry);
        if let (Some(budget), OverBudget::Fallback) = (req.max_jsum, req.on_over_budget) {
            if entry.j_sum > budget {
                for algorithm in FALLBACK_ORDER.into_iter().filter(|&a| a != req.algorithm) {
                    if let Some((key, entry)) = peek(algorithm) {
                        push(&key, &entry);
                        if entry.j_sum <= budget {
                            break;
                        }
                    }
                }
            }
        }
        records
    }

    /// Answers one request object of a checked line: the entry that
    /// answers it, or the error answer.
    fn answer<'a>(&self, fields: &Fields<'a>, degrade: bool) -> Result<Served<'a>, MapResponse> {
        match check(fields) {
            Ok(checked) => self.serve(Request::checked(checked), degrade),
            Err(e) => Err(MapResponse {
                id: fields.get(Key::Id).map(Field::to_value),
                body: ResponseBody::Error(e),
            }),
        }
    }

    /// Serves one request end to end: cache lookup or compute, admission
    /// control.  The answer is written from the entry afterwards
    /// ([`Served::write_into`]).
    fn serve<'a>(&self, req: Request<'a>, degrade: bool) -> Result<Served<'a>, MapResponse> {
        let (algorithm, entry, cached, fallback_from) = match self.resolve(&req) {
            Ok(served) => served,
            Err(e) => {
                return Err(MapResponse {
                    id: req.id,
                    body: ResponseBody::Error(e),
                })
            }
        };
        // overload degradation strips exactly the table payloads — the part
        // whose serialisation cost scales with the grid volume
        let degraded = degrade && matches!(req.want, Want::Table(_));
        Ok(Served {
            req,
            algorithm,
            fallback_from,
            entry,
            cached,
            degraded,
        })
    }

    /// The entry that answers `req` under admission control: the served
    /// algorithm, its entry, whether it was cached, and the requested
    /// algorithm when a budget fallback replaced it.
    #[allow(clippy::type_complexity)]
    fn resolve(
        &self,
        req: &Request,
    ) -> Result<(Algorithm, Arc<CacheEntry>, bool, Option<Algorithm>), String> {
        let (entry, cached) = self.lookup_or_compute(req.key(req.algorithm))?;
        // admission control: the streaming-evaluated cost rides in the entry
        let Some(budget) = req.max_jsum.filter(|&budget| entry.j_sum > budget) else {
            return Ok((req.algorithm, entry, cached, None));
        };
        if req.on_over_budget == OverBudget::Reject {
            return Err(format!(
                "over budget: {} predicts Jsum = {} > max_jsum = {budget}",
                req.algorithm.wire_name(),
                entry.j_sum
            ));
        }
        for alg in FALLBACK_ORDER.into_iter().filter(|&a| a != req.algorithm) {
            match self.lookup_or_compute(req.key(alg)) {
                Ok((found, cached)) if found.j_sum <= budget => {
                    return Ok((alg, found, cached, Some(req.algorithm)));
                }
                // inapplicable or still over budget: keep trying
                Ok(_) | Err(_) => {}
            }
        }
        Err(format!(
            "over budget: no algorithm reaches Jsum <= {budget} \
             (requested {} predicted {})",
            req.algorithm.wire_name(),
            entry.j_sum
        ))
    }

    /// Returns the cache entry of `key`, computing and inserting it on a
    /// miss.  The boolean is `true` on a hit.  The view is hashed once, for
    /// the shard (and its persist lock) and the probe; a miss builds the
    /// owned key.  Concurrent misses on the same key may compute twice;
    /// both compute the identical entry, so the race is benign.
    fn lookup_or_compute(&self, key: KeyView) -> Result<(Arc<CacheEntry>, bool), String> {
        let hash = key.key_hash();
        let matches = |k: &CacheKey| key.matches(k);
        if let Some(p) = &self.persist {
            // hold the shard's persist lock across (lookup, touch record) so
            // the log's per-shard order matches the shard's operation order;
            // touches of an already-MRU key replay as no-ops and are skipped,
            // so a hot key costs one log record ever, not one per hit
            let lock = &self.persist_locks[self.cache.shard_of_hash(hash)];
            let guard = lock.lock().expect("persist lock poisoned");
            if let Some((entry, was_mru)) = self.cache.get_tracking_mru_hashed(hash, matches) {
                if !was_mru {
                    p.record_touch(&key.to_key());
                }
                return Ok((entry, true));
            }
            drop(guard);
        } else if let Some((entry, _)) = self.cache.get_tracking_mru_hashed(hash, matches) {
            return Ok((entry, true));
        }
        let key = key.to_key();
        let entry = Arc::new(compute(&key)?);
        let cost = entry_cost(&key);
        if let Some(p) = &self.persist {
            let lock = &self.persist_locks[self.cache.shard_of_hash(hash)];
            let _guard = lock.lock().expect("persist lock poisoned");
            p.record_insert(&key, &entry);
            self.cache.insert_with_cost(key, Arc::clone(&entry), cost);
        } else {
            self.cache.insert_with_cost(key, Arc::clone(&entry), cost);
        }
        Ok((entry, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Payload;

    fn service() -> MappingService {
        MappingService::new(&ServiceConfig::default())
    }

    #[test]
    fn serves_a_minimal_request() {
        let s = service();
        let out = s.handle_line(r#"{"id":1,"dims":[12,8],"nodes":8}"#);
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("id").and_then(Value::as_usize), Some(1));
        let nodes = v.get("nodes").and_then(Value::as_arr).unwrap();
        assert_eq!(nodes.len(), 96);
        // second identical request is a cache hit with the same payload
        let out2 = s.handle_line(r#"{"id":1,"dims":[12,8],"nodes":8}"#);
        let v2 = Value::parse(&out2).unwrap();
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("j_sum"), v.get("j_sum"));
        assert_eq!(v2.get("nodes"), v.get("nodes"));
    }

    #[test]
    fn permuted_request_hits_the_same_entry() {
        let s = service();
        s.handle_line(r#"{"dims":[12,8],"nodes":8,"algorithm":"kdtree"}"#);
        assert_eq!(s.cache_stats().len, 1);
        let out = s.handle_line(r#"{"dims":[8,12],"nodes":8,"algorithm":"kdtree"}"#);
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(
            s.cache_stats().len,
            1,
            "no second entry for the permutation"
        );
    }

    #[test]
    fn batch_preserves_order_and_ids() {
        let s = service();
        let out = s.handle_line(
            r#"{"batch":[
                {"id":"a","dims":[6,6],"nodes":4,"want_mapping":false},
                {"id":"b","dims":[4,4]},
                {"id":"c","dims":[6,6],"nodes":4,"algorithm":"blocked","want_mapping":false}
            ]}"#,
        );
        let v = Value::parse(&out).unwrap();
        let batch = v.get("batch").and_then(Value::as_arr).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].get("id").and_then(Value::as_str), Some("a"));
        assert_eq!(batch[0].get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(batch[1].get("id").and_then(Value::as_str), Some("b"));
        assert_eq!(
            batch[1].get("status").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(batch[2].get("id").and_then(Value::as_str), Some("c"));
    }

    #[test]
    fn batch_items_see_earlier_items_inserts_in_order() {
        // Sequential in-line semantics: a canonically-equal later item is a
        // hit on the earlier item's insert, at every thread count.
        let s = service();
        let out = s.handle_line(
            r#"{"batch":[
                {"id":1,"dims":[12,8],"nodes":8,"want_mapping":false},
                {"id":2,"dims":[8,12],"nodes":8,"want_mapping":false}
            ]}"#,
        );
        let v = Value::parse(&out).unwrap();
        let batch = v.get("batch").and_then(Value::as_arr).unwrap();
        assert_eq!(batch[0].get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(batch[1].get("cached").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn over_budget_rejects_and_falls_back() {
        let s = service();
        // blocked on a tall narrow grid has a hefty Jsum; budget 1 rejects
        let out = s.handle_line(r#"{"dims":[16,4],"nodes":8,"algorithm":"blocked","max_jsum":1}"#);
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert!(v
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("over budget"));
        // with fallback, a specialised algorithm under a generous budget wins
        let out = s.handle_line(
            r#"{"dims":[16,4],"nodes":8,"algorithm":"blocked","max_jsum":100,
                "on_over_budget":"fallback","want_mapping":false}"#,
        );
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"), "{out}");
        assert_eq!(
            v.get("fallback_from").and_then(Value::as_str),
            Some("blocked")
        );
        let served = v.get("j_sum").and_then(Value::as_u64).unwrap();
        assert!(served <= 100);
        // impossible budget: even the fallbacks give up
        let out = s.handle_line(
            r#"{"dims":[16,4],"nodes":8,"algorithm":"blocked","max_jsum":0,
                "on_over_budget":"fallback"}"#,
        );
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    }

    #[test]
    fn errors_echo_the_request_id() {
        let s = service();
        let out = s.handle_line(r#"{"id":42,"dims":[4,4]}"#);
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_usize), Some(42));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        // malformed JSON still yields one parseable error line
        let out = s.handle_line("{nope");
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    }

    #[test]
    fn viem_seed_is_part_of_the_key_but_hyperplane_seed_is_not() {
        let s = service();
        s.handle_line(
            r#"{"dims":[12,10],"nodes":10,"algorithm":"viem","seed":1,"want_mapping":false}"#,
        );
        s.handle_line(
            r#"{"dims":[12,10],"nodes":10,"algorithm":"viem","seed":2,"want_mapping":false}"#,
        );
        assert_eq!(s.cache_stats().len, 2);
        s.handle_line(r#"{"dims":[12,10],"nodes":10,"seed":1,"want_mapping":false}"#);
        s.handle_line(r#"{"dims":[12,10],"nodes":10,"seed":2,"want_mapping":false}"#);
        assert_eq!(s.cache_stats().len, 3, "hyperplane ignores the seed");
    }

    #[test]
    fn restored_mapping_matches_direct_computation_cost() {
        // The served mapping for a permuted request must have the same cost
        // as computing directly on the original orientation.
        let s = service();
        let a = s.handle_line(r#"{"dims":[8,12],"nodes":8,"algorithm":"stencil_strips"}"#);
        let va = Value::parse(&a).unwrap();
        use stencil_grid::{Dims, NodeAllocation, Stencil};
        let problem = MappingProblem::new(
            Dims::from_slice(&[8, 12]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(8, 12),
        )
        .unwrap();
        let nodes: Vec<usize> = va
            .get("nodes")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_usize().unwrap())
            .collect();
        let mapping = stencil_mapping::Mapping::from_node_of_position(&problem, &nodes).unwrap();
        let cost = evaluate_streaming(problem.dims(), problem.stencil(), false, &mapping);
        assert_eq!(Some(cost.j_sum), va.get("j_sum").and_then(Value::as_u64));
        assert_eq!(Some(cost.j_max), va.get("j_max").and_then(Value::as_u64));
    }

    #[test]
    fn compact_encoding_matches_the_verbose_table() {
        let s = service();
        let verbose = s.handle_line(r#"{"dims":[12,8],"nodes":8}"#);
        let compact = s.handle_line(r#"{"dims":[12,8],"nodes":8,"encoding":"compact"}"#);
        let vv = Value::parse(&verbose).unwrap();
        let vc = Value::parse(&compact).unwrap();
        assert_eq!(vc.get("encoding").and_then(Value::as_str), Some("compact"));
        assert_eq!(vc.get("cached").and_then(Value::as_bool), Some(true));
        let verbose_nodes: Vec<u32> = vv
            .get("nodes")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_usize().unwrap() as u32)
            .collect();
        let decoded =
            crate::json::decode_nodes_compact(vc.get("nodes").and_then(Value::as_str).unwrap())
                .unwrap();
        assert_eq!(decoded, verbose_nodes);
        // a permuted request decodes to its own orientation's table
        let permuted = s.handle_line(r#"{"dims":[8,12],"nodes":8,"encoding":"compact"}"#);
        let vp = Value::parse(&permuted).unwrap();
        let decoded_p =
            crate::json::decode_nodes_compact(vp.get("nodes").and_then(Value::as_str).unwrap())
                .unwrap();
        let verbose_p = s.handle_line(r#"{"dims":[8,12],"nodes":8}"#);
        let vvp = Value::parse(&verbose_p).unwrap();
        let verbose_p_nodes: Vec<u32> = vvp
            .get("nodes")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_usize().unwrap() as u32)
            .collect();
        assert_eq!(decoded_p, verbose_p_nodes);
    }

    #[test]
    fn new_rank_of_answers_match_the_table() {
        let s = service();
        let full = s.handle_line(r#"{"dims":[12,8],"nodes":8}"#);
        let vf = Value::parse(&full).unwrap();
        let table: Vec<u64> = vf
            .get("nodes")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        let q = s
            .handle_line(r#"{"dims":[12,8],"nodes":8,"query":"new_rank_of","ranks":[0,17,95,17]}"#);
        let vq = Value::parse(&q).unwrap();
        assert_eq!(vq.get("status").and_then(Value::as_str), Some("ok"), "{q}");
        assert_eq!(vq.get("cached").and_then(Value::as_bool), Some(true));
        assert!(vq.get("encoding").is_none());
        let ranks: Vec<u64> = vq
            .get("ranks")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(ranks, vec![0, 17, 95, 17]);
        let nodes: Vec<u64> = vq
            .get("nodes")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        for (r, n) in ranks.iter().zip(&nodes) {
            assert_eq!(table[*r as usize], *n);
        }
        // a query on a cold entry computes it first (cached:false) and a
        // permuted repeat reads the same canonical entry point-wise
        let q2 = s.handle_line(
            r#"{"dims":[8,12],"nodes":8,"algorithm":"kdtree","query":"new_rank_of","ranks":[5]}"#,
        );
        let vq2 = Value::parse(&q2).unwrap();
        assert_eq!(vq2.get("cached").and_then(Value::as_bool), Some(false));
        let full2 = s.handle_line(r#"{"dims":[8,12],"nodes":8,"algorithm":"kdtree"}"#);
        let vf2 = Value::parse(&full2).unwrap();
        assert_eq!(
            vq2.get("nodes").and_then(Value::as_arr).unwrap()[0],
            vf2.get("nodes").and_then(Value::as_arr).unwrap()[5]
        );
    }

    #[test]
    fn persistence_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!("stencil-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service-restart.log");
        let _ = std::fs::remove_file(&path);
        let cfg = ServiceConfig {
            persist_path: Some(path.clone()),
            ..ServiceConfig::default()
        };
        let line = r#"{"dims":[12,8],"nodes":8,"algorithm":"kdtree","want_mapping":false}"#;
        let cold_response;
        {
            let s = MappingService::open(&cfg).unwrap();
            cold_response = s.handle_line(line);
            assert!(cold_response.contains("\"cached\":false"));
            // dropping the service flushes and closes the log
        }
        let s = MappingService::open(&cfg).unwrap();
        assert_eq!(s.load_report().entries, 1);
        let warm = s.handle_line(line);
        assert!(warm.contains("\"cached\":true"), "{warm}");
        assert_eq!(
            warm.replace("\"cached\":true", "\"cached\":false"),
            cold_response,
            "reloaded entry serves the identical mapping"
        );
        // the engine was never touched: zero misses on the reloaded service
        assert_eq!(s.cache_stats().misses, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn absorb_persists_the_record_it_received() {
        let dir = std::env::temp_dir().join(format!("stencil-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service-absorb.log");
        let _ = std::fs::remove_file(&path);
        let cfg = ServiceConfig {
            persist_path: Some(path.clone()),
            ..ServiceConfig::default()
        };
        let line = r#"{"dims":[12,8],"nodes":8,"algorithm":"kdtree","want_mapping":false}"#;
        let donor = service();
        let cold = donor.handle_line(line);
        let key = key_of(line);
        // a valid insert record in another field order than insert_line's:
        // the receiver must append these bytes, not a re-serialised entry
        let Value::Obj(mut fields) =
            Value::parse(&insert_line(&key, &donor.cache.peek(&key).unwrap())).unwrap()
        else {
            unreachable!("an insert record is an object")
        };
        fields.rotate_left(1);
        let record = Value::Obj(fields).compact();
        let log = crate::json::base64_encode(format!("{record}\n").as_bytes());
        {
            let s = MappingService::open(&cfg).unwrap();
            let absorbed = s.handle_line(&format!(r#"{{"admin":"absorb","log":"{log}"}}"#));
            assert!(absorbed.contains("\"inserted\":1"), "{absorbed}");
            s.flush_persistence();
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                format!("{record}\n")
            );
        }
        let s = MappingService::open(&cfg).unwrap();
        assert_eq!(s.load_report().entries, 1);
        assert_eq!(
            s.handle_line(line),
            cold.replace("\"cached\":false", "\"cached\":true")
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The acceptance scenario: under GDSF a ~45 ms viem entry outlives a
    /// flood of ~1 ms rank-local entries that overflows the cache many
    /// times, while under LRU the same flood evicts it.
    #[test]
    fn gdsf_mode_retains_viem_entry_under_rank_local_flood() {
        let run = |eviction: EvictionPolicy| {
            let s = MappingService::new(&ServiceConfig {
                cache_capacity: 4,
                cache_shards: 1,
                eviction,
                ..ServiceConfig::default()
            });
            let viem = r#"{"dims":[6,4],"nodes":4,"algorithm":"viem","want_mapping":false}"#;
            s.handle_line(viem);
            // distinct cheap entries, each smaller in volume than the viem
            // grid, so only the algorithm's cost weight can save it
            for n in 2..14usize {
                s.handle_line(&format!(
                    r#"{{"dims":[{n},4],"nodes":{n},"want_mapping":false}}"#
                ));
            }
            let again = s.handle_line(viem);
            Value::parse(&again)
                .unwrap()
                .get("cached")
                .and_then(Value::as_bool)
                .unwrap()
        };
        assert!(run(EvictionPolicy::Gdsf), "GDSF must retain the viem entry");
        assert!(!run(EvictionPolicy::Lru), "LRU must have evicted it");
    }

    #[test]
    fn degraded_mode_strips_tables_and_flags_them() {
        let s = service();
        let degraded = |line: &str| {
            let mut out = String::new();
            s.handle_line_into(line, true, &mut out);
            out
        };
        // table request: payload stripped, flagged
        let out = degraded(r#"{"id":1,"dims":[12,8],"nodes":8}"#);
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
        assert!(v.get("nodes").is_none(), "{out}");
        assert!(v.get("j_sum").is_some());
        // cost-only and point queries are already cheap: served in full
        let out = degraded(r#"{"dims":[12,8],"nodes":8,"want_mapping":false}"#);
        assert!(!out.contains("degraded"), "{out}");
        let out = degraded(r#"{"dims":[12,8],"nodes":8,"query":"new_rank_of","ranks":[3]}"#);
        let v = Value::parse(&out).unwrap();
        assert!(v.get("nodes").is_some());
        assert!(v.get("degraded").is_none(), "{out}");
        // batch items degrade individually
        let out = degraded(
            r#"{"batch":[{"id":"a","dims":[6,6],"nodes":4},{"id":"b","dims":[6,6],"nodes":4,"want_mapping":false}]}"#,
        );
        let v = Value::parse(&out).unwrap();
        let batch = v.get("batch").and_then(Value::as_arr).unwrap();
        assert_eq!(
            batch[0].get("degraded").and_then(Value::as_bool),
            Some(true)
        );
        assert!(batch[1].get("degraded").is_none());
        // degrade=false serves the same table in full, unflagged
        let mut out = String::new();
        s.handle_line_into(r#"{"id":1,"dims":[12,8],"nodes":8}"#, false, &mut out);
        let v = Value::parse(&out).unwrap();
        assert!(v.get("nodes").is_some(), "{out}");
        assert!(v.get("degraded").is_none(), "{out}");
    }

    /// Answers `{"admin":"write_through","request":REQUEST}` with the
    /// worker's `degrade` flag and returns the answer R it carries and its
    /// log's decoded lines (`None` for a `null` log).
    fn write_through_with(
        s: &MappingService,
        request: &str,
        degrade: bool,
    ) -> (String, Option<Vec<String>>) {
        let mut out = String::new();
        s.handle_line_into(
            &format!(r#"{{"admin":"write_through","request":{request}}}"#),
            degrade,
            &mut out,
        );
        let v = Value::parse(&out).unwrap();
        let rest = out
            .strip_prefix(r#"{"status":"ok","admin":"write_through","log":"#)
            .unwrap_or_else(|| panic!("not a write-through answer: {out}"));
        let (log, rest) = match rest.strip_prefix("null") {
            Some(rest) => (None, rest),
            None => {
                let (log, rest) = rest[1..].split_once('"').unwrap();
                (Some(log), rest)
            }
        };
        let response = rest
            .strip_prefix(r#","response":"#)
            .and_then(|r| r.strip_suffix('}'))
            .unwrap();
        assert_eq!(v.get("response"), Some(&Value::parse(response).unwrap()));
        let lines = log.map(|log| {
            let text = String::from_utf8(crate::json::base64_decode(log).unwrap()).unwrap();
            text.lines().map(str::to_string).collect()
        });
        (response.to_string(), lines)
    }

    fn write_through(s: &MappingService, request: &str) -> (String, Option<Vec<String>>) {
        write_through_with(s, request, false)
    }

    fn key_of(line: &str) -> CacheKey {
        CacheKey::of_request(&MapRequest::from_value(&Value::parse(line).unwrap()).unwrap())
    }

    #[test]
    fn write_through_ships_a_computed_entry_as_its_insert_record() {
        let s = service();
        let line = r#"{"id":7,"dims":[12,8],"nodes":8,"algorithm":"kdtree"}"#;
        let (response, records) = write_through(&s, line);
        // the answer is the plain request's, byte for byte
        assert_eq!(response, service().handle_line(line));
        let key = key_of(line);
        let entry = s.cache.peek(&key).unwrap();
        assert_eq!(records, Some(vec![insert_line(&key, &entry)]));

        // absorbing the log elsewhere serves the same bytes without compute
        let log = crate::json::base64_encode(format!("{}\n", insert_line(&key, &entry)).as_bytes());
        let replica = service();
        let absorbed = replica.handle_line(&format!(r#"{{"admin":"absorb","log":"{log}"}}"#));
        assert!(absorbed.contains("\"inserted\":1"), "{absorbed}");
        let warm = replica.handle_line(line);
        assert_eq!(
            warm,
            response.replace("\"cached\":false", "\"cached\":true")
        );
        assert_eq!(replica.cache_stats().misses, 0);
        // a permuted, cost-only form of the request now hits: nothing ships
        let permuted = r#"{"dims":[8,12],"nodes":8,"algorithm":"kdtree","want_mapping":false}"#;
        let (response, records) = write_through(&s, permuted);
        assert!(response.contains("\"cached\":true"), "{response}");
        assert_eq!(records, Some(vec![]));
    }

    #[test]
    fn write_through_of_a_bad_request_ships_nothing_and_computes_nothing() {
        let s = service();
        // a malformed request is answered like a batch item: R is the error
        for (request, needle) in [(r#"{"id":4,"dims":[4,4]}"#, "allocation"), ("7", "object")] {
            let (response, records) = write_through(&s, request);
            let v = Value::parse(&response).unwrap();
            assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
            assert!(response.contains(needle), "{response}");
            assert_eq!(records, Some(vec![]));
        }
        assert_eq!(s.cache_stats().len, 0);
        // without a request the admin line itself is refused, id echoed
        let v = Value::parse(&s.handle_line(r#"{"id":4,"admin":"write_through"}"#)).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        // an envelope id is echoed first, like every admin answer's
        let out = s.handle_line(r#"{"id":4,"admin":"write_through","request":7}"#);
        assert!(
            out.starts_with(r#"{"id":4,"status":"ok","admin":"write_through","log":"","#),
            "{out}"
        );
    }

    #[test]
    fn write_through_marks_records_an_absorb_line_could_not_take() {
        // a 3.1M-position table: its record, base64-encoded again as the
        // log, needs an absorb line over the 4 MiB line limit
        let s = service();
        let line = r#"{"dims":[2048,1536],"nodes":48,"algorithm":"blocked","want_mapping":false}"#;
        let (response, records) = write_through(&s, line);
        assert!(response.contains("\"cached\":false"), "{response}");
        assert_eq!(records, None, "computed, but the records cannot ship");
    }

    #[test]
    fn write_through_of_a_fallback_request_ships_the_requested_and_the_served_entry() {
        let s = service();
        let line = r#"{"dims":[16,4],"nodes":8,"algorithm":"blocked","max_jsum":100,
            "on_over_budget":"fallback","want_mapping":false}"#;
        let (response, records) = write_through(&s, line);
        let served = Value::parse(&response).unwrap();
        let served = served.get("algorithm").and_then(Value::as_str).unwrap();
        let algorithms: Vec<&str> = records
            .unwrap()
            .iter()
            .map(|r| match parse_record(r).unwrap() {
                Record::Insert(key, _) => key.algorithm.wire_name(),
                other => panic!("write-through shipped a non-insert record {other:?}"),
            })
            .collect();
        assert_eq!(algorithms.first(), Some(&"blocked"));
        assert_eq!(algorithms.last(), Some(&served));
        assert_ne!(served, "blocked");
        // every entry the request created, in the order it created them
        assert_eq!(algorithms.len(), s.cache_stats().len);
    }

    #[test]
    fn write_through_leaves_recency_and_counters_as_the_plain_request_does() {
        let lines = [
            r#"{"dims":[12,8],"nodes":8,"want_mapping":false}"#,
            r#"{"dims":[6,6],"nodes":4,"want_mapping":false}"#,
            r#"{"dims":[9,4],"nodes":3,"want_mapping":false}"#,
        ];
        let state = |s: &MappingService| (s.cache_stats(), s.cache.shard_keys_mru_first(0));
        let warmed = || {
            let s = MappingService::new(&ServiceConfig {
                cache_shards: 1,
                ..ServiceConfig::default()
            });
            for line in &lines[1..] {
                s.handle_line(line);
            }
            s
        };
        let (plain, enveloped) = (warmed(), warmed());
        // a miss (recording its log peeks, never touches), then a hit on
        // the least recently used key
        for line in [lines[0], lines[1]] {
            let answer = plain.handle_line(line);
            assert_eq!(write_through(&enveloped, line).0, answer);
            assert_eq!(state(&enveloped), state(&plain));
        }
    }

    #[test]
    fn write_through_answers_with_the_worker_degrade_flag() {
        let s = service();
        let line = r#"{"id":1,"dims":[12,8],"nodes":8}"#;
        let (response, records) = write_through_with(&s, line, true);
        let mut plain = String::new();
        service().handle_line_into(line, true, &mut plain);
        assert_eq!(response, plain);
        assert!(response.contains("\"degraded\":true"), "{response}");
        assert_eq!(records.map(|r| r.len()), Some(1), "the entry was computed");
    }

    /// What [`MapResponse::write_into`] writes for `line` over the
    /// materialised payload of its resident entry (`None` when the line
    /// left no entry): the byte oracle of the direct writer.
    fn materialised_answer(
        s: &MappingService,
        line: &str,
        cached: bool,
        degrade: bool,
    ) -> Option<String> {
        let req = MapRequest::from_value(&Value::parse(line).unwrap()).unwrap();
        let canon = canonicalize(&req.dims, &req.stencil);
        let key = CacheKey::of_canonical(&req, &canon, req.algorithm, req.seed);
        let entry = s.cache.peek(&key)?;
        let table = canon.restore_positions(&req.dims, &entry.nodes);
        let degraded = degrade && req.want_mapping && req.query.is_none();
        let payload = match &req.query {
            Some(Query::NewRankOf(ranks)) => Payload::Points {
                ranks: ranks.clone(),
                nodes: ranks.iter().map(|&x| table[x]).collect(),
            },
            None if !req.want_mapping || degraded => Payload::None,
            None => match req.encoding {
                Encoding::Verbose => Payload::Table(table),
                Encoding::Compact => Payload::TableCompact(encode_nodes_compact(&table)),
            },
        };
        let response = MapResponse {
            id: req.id,
            body: ResponseBody::Ok {
                algorithm: req.algorithm,
                fallback_from: None,
                cached,
                degraded,
                j_sum: entry.j_sum,
                j_max: entry.j_max,
                payload,
            },
        };
        let mut out = String::new();
        response.write_into(&mut out);
        // the tree writer holds the shared digit writer to its bytes
        assert_eq!(out, response.into_value().compact());
        Some(out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The service's answers equal `MapResponse::write_into` over the
        /// materialised restored table, its compact encoding or the point
        /// lookups, byte for byte: 1–4-D dims in every permutation
        /// (identity included), every stencil, torus or not, node ids in
        /// every digit class (one process per node on 1024–6600 nodes
        /// reaches four digits), verbose, compact, point and cost-only
        /// lines, degraded or not, then mixed batch lines.  `[3,2,1100]`
        /// on one process per node puts the longest dim innermost: its
        /// rows are longer than the restoring walk's gather buffer
        /// (canonical dims sort ascending), and one row holds ids below
        /// and above 1000.
        #[test]
        fn direct_answers_equal_the_materialised_payload_writer(
            sizes in proptest::collection::vec(1usize..9, 1..5),
            wide in 0usize..9,
            per_node in 0usize..16,
            stencil in 0usize..3,
            periodic in proptest::bool::ANY,
            algorithm in 0usize..5,
            degrade in proptest::bool::ANY,
            probe in 0usize..4096,
        ) {
            const WIDE: [&[usize]; 6] =
                [&[1024], &[32, 40], &[16, 8, 9], &[4, 8, 8, 8], &[64, 64], &[3, 2, 1100]];
            const ALGORITHMS: [&str; 5] = ["hyperplane", "kdtree", "stencil_strips", "blocked", "nodecart"];
            let (dims, per) = match WIDE.get(wide) {
                Some(dims) => (dims.to_vec(), 1),
                None => {
                    let p: usize = sizes.iter().product();
                    let divisors: Vec<usize> = (1..=p).filter(|&d| p.is_multiple_of(d)).collect();
                    (sizes.clone(), divisors[per_node % divisors.len()])
                }
            };
            let d = dims.len();
            let p: usize = dims.iter().product();
            let stencil = ["nearest_neighbor", "hops", "component"][if d < 2 { 0 } else { stencil }];
            let s = service();
            let mut perm: Vec<usize> = (0..d).collect();
            let mut id = 0;
            loop {
                let dims: Vec<String> = perm.iter().map(|&i| dims[i].to_string()).collect();
                let base = format!(
                    r#""dims":[{}],"stencil":"{stencil}","periodic":{periodic},"nodes":{},"algorithm":"{}""#,
                    dims.join(","),
                    p / per,
                    ALGORITHMS[algorithm],
                );
                let ranks = [0, p - 1, p / 2, probe % p];
                let items = [
                    format!(r#"{{"id":{id},{base}}}"#),
                    format!(r#"{{"id":"c{id}",{base},"encoding":"compact"}}"#),
                    format!(
                        r#"{{{base},"query":"new_rank_of","ranks":[{},{},{},{}]}}"#,
                        ranks[0], ranks[1], ranks[2], ranks[3]
                    ),
                    format!(r#"{{"id":null,{base},"want_mapping":false}}"#),
                ];
                id += 1;
                for item in &items {
                    let req = MapRequest::from_value(&Value::parse(item).unwrap()).unwrap();
                    let key = CacheKey::of_request(&req);
                    let cached = s.cache.peek(&key).is_some();
                    let mut got = String::new();
                    s.handle_line_into(item, degrade, &mut got);
                    match materialised_answer(&s, item, cached, degrade) {
                        Some(want) => proptest::prop_assert_eq!(&got, &want, "{}", item),
                        None => proptest::prop_assert!(got.contains(r#""status":"error""#), "{}", got),
                    }
                }
                // every item's entry is resident now: a batch answers hits
                let wants: Option<Vec<String>> = items
                    .iter()
                    .map(|item| materialised_answer(&s, item, true, degrade))
                    .collect();
                if let Some(wants) = wants {
                    let mut got = String::new();
                    s.handle_line_into(
                        &format!(r#"{{"batch":[{},{},{}]}}"#, items[2], items[0], items[1]),
                        degrade,
                        &mut got,
                    );
                    let want = format!(r#"{{"batch":[{},{},{}]}}"#, wants[2], wants[0], wants[1]);
                    proptest::prop_assert_eq!(got, want);
                }
                // the next permutation in lexicographic order
                let Some(i) = (1..d).rev().find(|&i| perm[i - 1] < perm[i]) else {
                    break;
                };
                let j = (i..d).rev().find(|&j| perm[j] > perm[i - 1]).unwrap();
                perm.swap(i - 1, j);
                perm[i..].reverse();
            }
        }
    }

    /// A splitmix64 stream that draws the request lines below.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// Mostly `good`, otherwise one of `bad`.
        fn member(&mut self, good: String, bad: &[&str]) -> String {
            match self.below(4 * bad.len().max(1)) {
                i if i < bad.len() => bad[i].to_string(),
                _ => good,
            }
        }
    }

    /// A request object on a grid of at most 216 positions: every member
    /// drawn mostly valid, and otherwise as a value that one of the
    /// request rules rejects, so every rule's error answer comes up.
    fn request_line(g: &mut Draw) -> String {
        let d = 1 + g.below(3);
        let dims: Vec<usize> = (0..d).map(|_| 1 + g.below(6)).collect();
        let p: usize = dims.iter().product();
        let list = |xs: &[usize]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut members = Vec::new();
        let ids = [
            "7",
            "\"x\"",
            "null",
            "[1,{\"k\":\"v\"}]",
            "1.0",
            "-0",
            "12345678901234567890",
            "2.5e1",
        ];
        if g.below(3) > 0 {
            members.push(format!("\"id\":{}", ids[g.below(ids.len())]));
        }
        let dims_text = g.member(
            format!("[{}]", list(&dims)),
            &[
                "[]",
                "[0,4]",
                "\"x\"",
                "[-1]",
                "[1.5]",
                "[4096,4096,2]",
                "[4294967296,4294967296,4294967296]",
            ],
        );
        if g.below(30) > 0 {
            members.push(format!("\"dims\":{dims_text}"));
        }
        let explicit = match d {
            1 => "[[1],[-1]]",
            2 => "[[1,0],[0,-1],[2,0]]",
            _ => "[[0,1,0],[1,0,0],[0,0,-1]]",
        };
        let stencils = [
            "\"nearest_neighbor\"",
            "\"hops\"",
            "\"component\"",
            explicit,
        ];
        if g.below(3) > 0 {
            let good = stencils[g.below(4)].to_string();
            let stencil = g.member(
                good,
                &[
                    "\"torus\"",
                    "5",
                    "[[1,0,0,0,0]]",
                    "[]",
                    "[[0,0,0]]",
                    "[7]",
                    "[[1.5]]",
                ],
            );
            members.push(format!("\"stencil\":{stencil}"));
        }
        if g.below(3) == 0 {
            members.push(format!(
                "\"periodic\":{}",
                g.member("true".into(), &["\"x\""])
            ));
        }
        let divisors: Vec<usize> = (1..=p).filter(|n| p.is_multiple_of(*n)).collect();
        let nodes = divisors[g.below(divisors.len())];
        match g.below(8) {
            0 => {
                let first = 1 + g.below(p);
                let sizes = if first < p {
                    vec![first, p - first]
                } else {
                    vec![p]
                };
                let good = format!("[{}]", list(&sizes));
                let sizes = g.member(good, &["[]", "[0]", "7", "[1,1000]"]);
                members.push(format!("\"node_sizes\":{sizes}"));
            }
            1 => members.push(format!(
                "\"nodes\":{nodes},\"procs_per_node\":{}",
                g.member((p / nodes).to_string(), &["0", "\"2\"", "1000"])
            )),
            2 => {}
            _ => members.push(format!(
                "\"nodes\":{}",
                g.member(nodes.to_string(), &["0", "-2", "\"4\"", "1000001"])
            )),
        }
        let algorithms = [
            "\"hyperplane\"",
            "\"kdtree\"",
            "\"stencil_strips\"",
            "\"nodecart\"",
            "\"blocked\"",
            "\"viem\"",
        ];
        if g.below(4) > 0 {
            let good = algorithms[g.below(algorithms.len())].to_string();
            members.push(format!(
                "\"algorithm\":{}",
                g.member(good, &["\"magic\"", "5"])
            ));
        }
        if g.below(4) == 0 {
            let seed = g.below(4).to_string();
            members.push(format!("\"seed\":{}", g.member(seed, &["-1", "0.5"])));
        }
        if g.below(4) == 0 {
            let budget = ["0", "8", "40", "1000"][g.below(4)].to_string();
            members.push(format!("\"max_jsum\":{}", g.member(budget, &["-3"])));
            if g.below(2) == 0 {
                let policy = ["\"fallback\"", "\"reject\""][g.below(2)].to_string();
                members.push(format!(
                    "\"on_over_budget\":{}",
                    g.member(policy, &["\"explode\""])
                ));
            }
        }
        match g.below(6) {
            0 => members.push(format!(
                "\"want_mapping\":{}",
                g.member("false".into(), &["\"no\""])
            )),
            1 => members.push(format!(
                "\"encoding\":{}",
                g.member("\"compact\"".into(), &["\"gzip\""])
            )),
            2 => {
                let ranks: Vec<usize> = (0..1 + g.below(4)).map(|_| g.below(p)).collect();
                let good = format!("\"query\":\"new_rank_of\",\"ranks\":[{}]", list(&ranks));
                let bad = format!("\"query\":\"new_rank_of\",\"ranks\":[{p}]");
                members.push(g.member(
                    good,
                    &[
                        &bad,
                        "\"query\":\"new_rank_of\"",
                        "\"query\":\"new_rank_of\",\"ranks\":7",
                        "\"query\":\"old_rank_of\",\"ranks\":[0]",
                        "\"ranks\":[0]",
                    ],
                ));
            }
            _ => {}
        }
        if g.below(8) == 0 {
            members.push("\"extra\":{\"a\":[1,{\"b\":null}],\"c\":\"x\"}".to_string());
        }
        // members in any order: a rule's checks may not depend on it
        for i in (1..members.len()).rev() {
            members.swap(i, g.below(i + 1));
        }
        format!("{{{}}}", members.join(","))
    }

    /// `line` changed the way a client or a fault might: truncated, a byte
    /// flipped, a key repeated or escaped, numbers in another form,
    /// whitespace between tokens, nesting past the limit, or wrapped in a
    /// batch or beside an admin command.
    fn mutate(g: &mut Draw, line: &str) -> String {
        const KEYS: [(&str, &str); 5] = [
            ("\"dims\"", "\"d\\u0069ms\""),
            ("\"nodes\"", "\"n\\u006fdes\""),
            ("\"algorithm\"", "\"algorith\\u006d\""),
            ("\"id\"", "\"\\u0069d\""),
            ("\"want_mapping\"", "\"want\\u005fmapping\""),
        ];
        match g.below(10) {
            0 => line[..g.below(line.len() + 1)].to_string(),
            1 => {
                let mut bytes = line.as_bytes().to_vec();
                let at = g.below(bytes.len());
                bytes[at] = b"{}[],:\" 0123-.eE\\x"[g.below(18)];
                String::from_utf8(bytes).expect("ASCII lines stay UTF-8")
            }
            2 => {
                // a second occurrence, before or after the first
                let repeat = [
                    "\"dims\":[2,3]",
                    "\"nodes\":1",
                    "\"algorithm\":\"blocked\"",
                    "\"id\":\"again\"",
                    "\"want_mapping\":false",
                    "\"stencil\":\"hops\"",
                ][g.below(6)];
                match line.strip_suffix('}') {
                    Some(body) if g.below(2) == 0 && body.len() > 1 => format!("{body},{repeat}}}"),
                    _ => line
                        .replacen('{', &format!("{{{repeat},"), 1)
                        .replace(",}", "}"),
                }
            }
            3 => {
                let (key, escaped) = KEYS[g.below(KEYS.len())];
                line.replacen(key, escaped, 1)
            }
            4 => {
                let form = g.below(4);
                let mut out = String::new();
                let mut digits = String::new();
                for c in line.chars().chain(std::iter::once(' ')) {
                    if c.is_ascii_digit() {
                        digits.push(c);
                        continue;
                    }
                    if !digits.is_empty() {
                        match (form, digits.as_str()) {
                            (0, n) => out.push_str(&format!("{n}e0")),
                            (1, n) => out.push_str(&format!("{n}.0")),
                            (2, "0") => out.push_str("-0"),
                            (2, n) => out.push_str(&format!("{n}0e-1")),
                            (_, n) => out.push_str(&format!("{n}E+0")),
                        }
                        digits.clear();
                    }
                    out.push(c);
                }
                out.pop();
                out
            }
            5 => line
                .replace(',', " ,\t")
                .replace(':', " : ")
                .replace('[', "[ "),
            6 => {
                let depth = [128, 129][g.below(2)];
                let deep = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
                line.replacen("\"dims\":", &format!("\"deep\":{deep},\"dims\":"), 1)
            }
            7 => match g.below(4) {
                0 => format!("{{\"batch\":[{line},{line}]}}"),
                1 => format!("{{\"batch\":[7,{line}]}}"),
                2 => format!("{{\"batch\":{line}}}"),
                _ => format!("[{line}]"),
            },
            8 => match g.below(3) {
                0 => format!("{{\"admin\":\"stats\",\"batch\":[{line}]}}"),
                1 => format!("{{\"id\":3,\"admin\":\"nope\",\"batch\":[{line}]}}"),
                _ => format!("{{\"admin\":[1, 2e0],\"id\":{line}}}"),
            },
            _ => line.to_string(),
        }
    }

    /// The answer of the decode the scan replaced: `Value::parse`, then
    /// `MapRequest::from_value` and the owned canonical form.  Of the admin
    /// commands it answers `stats` and unknown ones.
    fn oracle_answer(s: &MappingService, line: &str, degrade: bool) -> String {
        let mut out = String::new();
        let error = |out: &mut String, id: Option<Value>, e: String| {
            MapResponse {
                id,
                body: ResponseBody::Error(e),
            }
            .write_into(out)
        };
        let v = match Value::parse(line) {
            Ok(v) => v,
            Err(e) => {
                error(&mut out, None, format!("invalid JSON: {e}"));
                return out;
            }
        };
        let item = |out: &mut String, v: &Value| match MapRequest::from_value(v) {
            Ok(req) => write_answer(s.serve(Request::owned(req), degrade), out),
            Err(e) => error(out, v.get("id").cloned(), e),
        };
        if let Some(cmd) = v.get("admin") {
            let id = v.get("id").cloned();
            if cmd.as_str() == Some("stats") {
                let stats = s.cache_stats();
                let mut fields: Vec<(&str, Value)> = id.map(|id| ("id", id)).into_iter().collect();
                fields.push(("status", Value::str("ok")));
                fields.push(("admin", Value::str("stats")));
                fields.push(("hits", Value::Num(stats.hits as f64)));
                fields.push(("misses", Value::Num(stats.misses as f64)));
                fields.push(("entries", Value::Num(stats.len as f64)));
                Value::obj(fields).write_into(&mut out);
            } else {
                error(
                    &mut out,
                    id,
                    format!(
                        "unknown admin command {} (expected \"handoff\", \"stats\", \"absorb\" or \"write_through\")",
                        cmd.compact()
                    ),
                );
            }
        } else if let Some(batch) = v.get("batch") {
            match batch.as_arr() {
                None => error(&mut out, None, "\"batch\" must be an array".to_string()),
                Some(items) => {
                    out.push_str("{\"batch\":[");
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item(&mut out, v);
                    }
                    out.push_str("]}");
                }
            }
        } else {
            item(&mut out, &v);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-pass decode answers every line as `Value::parse` +
        /// `MapRequest::from_value` + `canonicalize` did, byte for byte and
        /// with the same cache counters: request lines of every shape and
        /// every rule's rejection, and their mutations (truncations, byte
        /// flips, repeated and escaped keys, `1e1`/`4.0`/`-0` numbers,
        /// whitespace, nesting at and past 128 levels, batches, admin
        /// beside batch), degraded or not.  Two services of one
        /// configuration see the same sequence, so hits and misses line up.
        #[test]
        fn the_scan_answers_as_the_value_tree_did(
            seed in 0u64..u64::MAX,
            degrade in proptest::bool::ANY,
        ) {
            let mut g = Draw(seed);
            let (scanned, parsed) = (service(), service());
            for _ in 0..6 {
                let base = request_line(&mut g);
                for line in [base.clone(), mutate(&mut g, &base), mutate(&mut g, &base)] {
                    let mut got = String::new();
                    scanned.handle_line_into(&line, degrade, &mut got);
                    let want = oracle_answer(&parsed, &line, degrade);
                    proptest::prop_assert_eq!(&got, &want, "{}", line);
                    proptest::prop_assert_eq!(scanned.cache_stats(), parsed.cache_stats(), "{}", line);
                }
            }
        }

        /// A request's borrowed key hashes as the owned `CacheKey` does and
        /// equals it (so its routing bytes do too): the shard and the
        /// router's placement cannot move.  Named stencils on 1–8 dims
        /// (the inline canonical form; up to one process per node, past the
        /// hasher's 64-size pieces), other stencils (through
        /// `canonicalize`), homogeneous and listed allocations, every
        /// algorithm and seed.
        #[test]
        fn a_key_view_hashes_and_routes_as_the_owned_key(
            sizes in proptest::collection::vec(1usize..6, 1..9),
            stencil in 0usize..4,
            periodic in proptest::bool::ANY,
            per_node in 0usize..4,
            listed in proptest::bool::ANY,
            seed in 0u64..5,
        ) {
            let d = sizes.len();
            let p: usize = sizes.iter().product();
            let stencil = match stencil {
                0 => "\"nearest_neighbor\"".to_string(),
                1 => "\"hops\"".to_string(),
                2 if d >= 2 => "\"component\"".to_string(),
                _ => format!("[[{}],[{}]]", vec!["1"; d].join(","), vec!["-2"; d].join(",")),
            };
            let per = [1, p, 1, p][per_node].max(1);
            let alloc = if listed {
                format!("\"node_sizes\":[{}]", vec![per.to_string(); p / per].join(","))
            } else {
                format!("\"nodes\":{},\"procs_per_node\":{per}", p / per)
            };
            let line = format!(
                "{{\"dims\":[{}],\"stencil\":{stencil},\"periodic\":{periodic},{alloc},\"seed\":{seed}}}",
                sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",")
            );
            let fields = Fields::scan(&line).unwrap();
            let scanned = Request::checked(check(&fields).unwrap());
            let req = MapRequest::from_value(&Value::parse(&line).unwrap()).unwrap();
            let canon = canonicalize(&req.dims, &req.stencil);
            let owned_request = Request::owned(req.clone());
            let cache: ShardedLru<CacheKey, ()> = ShardedLru::new(16, 8);
            for algorithm in FALLBACK_ORDER.into_iter().chain([Algorithm::Viem, Algorithm::Blocked]) {
                let owned = CacheKey::of_canonical(&req, &canon, algorithm, req.seed);
                for view in [scanned.key(algorithm), owned_request.key(algorithm)] {
                    proptest::prop_assert_eq!(view.key_hash(), crate::cache::hash_of(&owned), "{}", line);
                    proptest::prop_assert_eq!(
                        cache.shard_of_hash(view.key_hash()),
                        cache.shard_of(&owned)
                    );
                    proptest::prop_assert!(view.matches(&owned), "{}", line);
                    proptest::prop_assert_eq!(view.to_key().routing_bytes(), owned.routing_bytes());
                    proptest::prop_assert_eq!(&view.to_key(), &owned);
                }
            }
        }
    }

    #[test]
    fn entry_costs_scale_with_volume_and_algorithm() {
        let key = |dims: Vec<usize>, algorithm| CacheKey {
            dims,
            stencil: vec![1, 0, -1, 0],
            periodic: false,
            alloc: vec![4, 4],
            algorithm,
            seed: 0,
        };
        assert_eq!(entry_cost(&key(vec![4, 2], Algorithm::Hyperplane)), 8);
        assert_eq!(entry_cost(&key(vec![4, 2], Algorithm::Viem)), 400);
        assert_eq!(entry_cost(&key(vec![8, 8], Algorithm::KdTree)), 64);
    }

    #[test]
    fn entry_costs_reflect_the_recompute_asymmetry() {
        // per grid position: viem weighs 50, every other algorithm 1
        let key = |algorithm| CacheKey {
            dims: vec![1],
            stencil: vec![1, -1],
            periodic: false,
            alloc: vec![1],
            algorithm,
            seed: 0,
        };
        for (algorithm, weight) in [
            (Algorithm::Hyperplane, 1),
            (Algorithm::KdTree, 1),
            (Algorithm::StencilStrips, 1),
            (Algorithm::Nodecart, 1),
            (Algorithm::Viem, 50),
            (Algorithm::Blocked, 1),
        ] {
            assert_eq!(entry_cost(&key(algorithm)), weight, "{algorithm:?}");
        }
    }

    #[test]
    fn nodecart_inapplicable_reports_error() {
        let s = service();
        // 5 nodes x 5 procs on a 5x5 grid: n = 5 cannot factor into [5,5]
        // beyond trivial splits; craft a heterogeneous alloc instead, which
        // Nodecart rejects outright.
        let out = s.handle_line(r#"{"dims":[4,4],"node_sizes":[6,6,4],"algorithm":"nodecart"}"#);
        let v = Value::parse(&out).unwrap();
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("error"),
            "{out}"
        );
    }
}
