//! The newline-delimited JSON request/response protocol.
//!
//! Every line the client sends is one JSON document: either a single mapping
//! request object or `{"batch": [request, …]}`.  A repeated key's first
//! occurrence wins.  The service answers with
//! exactly one line per line received — a response object, or
//! `{"batch": [response, …]}` with the responses in request order.
//!
//! ## Request fields
//!
//! | field            | type                  | meaning                                             |
//! |------------------|-----------------------|-----------------------------------------------------|
//! | `id`             | any (optional)        | echoed back in the response, re-serialised (`1.0` as `1`) |
//! | `dims`           | `[int, …]`            | grid dimension sizes (required)                     |
//! | `stencil`        | string or `[[int,…]]` | `"nearest_neighbor"` (default), `"hops"`, `"component"`, or explicit offsets |
//! | `periodic`       | bool                  | torus boundaries (default `false`)                  |
//! | `nodes`          | int                   | homogeneous allocation: node count                  |
//! | `procs_per_node` | int                   | homogeneous allocation: processes per node (default `p / nodes`) |
//! | `node_sizes`     | `[int, …]`            | heterogeneous allocation (alternative to `nodes`)   |
//! | `algorithm`      | string                | `"hyperplane"` (default), `"kdtree"`, `"stencil_strips"`, `"nodecart"`, `"viem"`, `"blocked"` |
//! | `seed`           | int                   | seed of the randomised `viem` pipeline (default `0x71EA`) |
//! | `max_jsum`       | int                   | admission budget: reject/fallback when `Jsum` exceeds it |
//! | `on_over_budget` | string                | `"reject"` (default) or `"fallback"`                |
//! | `want_mapping`   | bool                  | include the `nodes` table in the response (default `true`) |
//! | `encoding`       | string                | node-table wire form: `"verbose"` (default, JSON array) or `"compact"` (base64 delta-varint, see [`crate::json::encode_nodes_compact`]) |
//! | `query`          | string                | `"new_rank_of"`: answer point lookups from the cached mapping instead of serialising any table |
//! | `ranks`          | `[int, …]`            | the grid positions (old row-major ranks) a `new_rank_of` query looks up (required with `query`) |
//!
//! ## Response fields
//!
//! `{"id":…, "status":"ok", "algorithm":…, "cached":bool, "j_sum":…,
//! "j_max":…, "nodes":[…]}` — `nodes[x]` is the compute node of grid
//! position `x` (row-major).  With `"encoding":"compact"` the response
//! carries `"encoding":"compact"` and `nodes` becomes one base64 string
//! (decode with [`crate::json::decode_nodes_compact`]).  A `new_rank_of`
//! query answers `"ranks":[…],"nodes":[…]` instead — `nodes[i]` is the
//! compute node of queried position `ranks[i]`, read point-wise from the
//! cached table.  A fallback response adds
//! `"fallback_from":"<requested algorithm>"`.  A response answered
//! cost-only because the server was shedding load adds `"degraded":true`
//! (see the README's failure-modes section).  Failures are reported as
//! `{"id":…, "status":"error", "error":"…"}`; the connection stays usable.

use crate::json::{
    scan, write_f64, write_string, write_u32_array, write_u64, Field, Span, U32ArrayWriter, Value,
};
use stencil_grid::{Dims, GridError, NamedStencil, NodeAllocation, Stencil};

/// Mapping algorithms addressable over the wire, by their
/// [`wire_name`](Algorithm::wire_name).
pub use stencil_mapping::Algorithm;

/// The node-table wire form of a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// JSON array of integers (the PR 3 wire form, default).
    #[default]
    Verbose,
    /// One base64 string over length-prefixed zigzag delta varints.
    Compact,
}

/// A point-lookup query riding on an otherwise ordinary request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Look up the compute node of each listed grid position (old row-major
    /// rank) — answered from the cached mapping without serialising any
    /// table.
    NewRankOf(Vec<usize>),
}

/// What to do when the computed mapping exceeds the admission budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverBudget {
    /// Answer with an error.
    Reject,
    /// Try the other specialised algorithms and serve the first one within
    /// budget.
    Fallback,
}

/// A parsed mapping request.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRequest {
    /// Client-chosen correlation id, echoed back re-serialised.
    pub id: Option<Value>,
    /// Grid dimension sizes.
    pub dims: Dims,
    /// Stencil (`k`-neighborhood).
    pub stencil: Stencil,
    /// Torus boundaries.
    pub periodic: bool,
    /// Node allocation.
    pub alloc: NodeAllocation,
    /// Requested algorithm.
    pub algorithm: Algorithm,
    /// Seed for the randomised pipeline.
    pub seed: u64,
    /// Admission budget on `Jsum`.
    pub max_jsum: Option<u64>,
    /// Budget-exceeded policy.
    pub on_over_budget: OverBudget,
    /// Whether the response should carry the full node table.
    pub want_mapping: bool,
    /// Node-table wire form.
    pub encoding: Encoding,
    /// Point-lookup query replacing the table response, if any.
    pub query: Option<Query>,
}

/// Default seed of the `viem` pipeline (mirrors `GraphMapper::default`).
pub const DEFAULT_SEED: u64 = 0x71EA;

/// Maximum grid volume (total process count) one request may ask for.  A
/// 40-byte line like `{"dims":[65536,65536],"nodes":4}` must not be able to
/// drive the engine into materialising a multi-gigabyte mapping (or
/// overflow the volume product entirely); 2^24 positions is ~3500x the
/// paper's largest instance while keeping the worst-case node table at
/// 64 MiB.
pub const MAX_GRID_VOLUME: usize = 1 << 24;

impl MapRequest {
    /// Parses one request object (not the batch wrapper): the service's
    /// request rules (`check`) read over the tree, then the owned build.
    pub fn from_value(v: &Value) -> Result<MapRequest, String> {
        Ok(check(&v)?.build())
    }
}

/// The keys the service reads from a request line, a batch item or an
/// admin envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Key {
    Id,
    Dims,
    Stencil,
    Periodic,
    Nodes,
    ProcsPerNode,
    NodeSizes,
    Algorithm,
    Seed,
    MaxJsum,
    OnOverBudget,
    WantMapping,
    Encoding,
    Query,
    Ranks,
    Admin,
    Batch,
    Log,
    Request,
}

impl Key {
    const COUNT: usize = Key::Request as usize + 1;

    /// The wire name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Key::Id => "id",
            Key::Dims => "dims",
            Key::Stencil => "stencil",
            Key::Periodic => "periodic",
            Key::Nodes => "nodes",
            Key::ProcsPerNode => "procs_per_node",
            Key::NodeSizes => "node_sizes",
            Key::Algorithm => "algorithm",
            Key::Seed => "seed",
            Key::MaxJsum => "max_jsum",
            Key::OnOverBudget => "on_over_budget",
            Key::WantMapping => "want_mapping",
            Key::Encoding => "encoding",
            Key::Query => "query",
            Key::Ranks => "ranks",
            Key::Admin => "admin",
            Key::Batch => "batch",
            Key::Log => "log",
            Key::Request => "request",
        }
    }

    fn of(name: &str) -> Option<Key> {
        Some(match name {
            "id" => Key::Id,
            "dims" => Key::Dims,
            "stencil" => Key::Stencil,
            "periodic" => Key::Periodic,
            "nodes" => Key::Nodes,
            "procs_per_node" => Key::ProcsPerNode,
            "node_sizes" => Key::NodeSizes,
            "algorithm" => Key::Algorithm,
            "seed" => Key::Seed,
            "max_jsum" => Key::MaxJsum,
            "on_over_budget" => Key::OnOverBudget,
            "want_mapping" => Key::WantMapping,
            "encoding" => Key::Encoding,
            "query" => Key::Query,
            "ranks" => Key::Ranks,
            "admin" => Key::Admin,
            "batch" => Key::Batch,
            "log" => Key::Log,
            "request" => Key::Request,
            _ => return None,
        })
    }
}

/// A request object the rules read: a parsed [`Value`], or the [`Fields`]
/// of a checked line.
pub(crate) trait Object<'a> {
    type Field: Field<'a>;
    /// Whether this is a JSON object at all.
    fn is_object(&self) -> bool;
    /// The first member named `key`.
    fn get(&self, key: Key) -> Option<Self::Field>;
}

impl<'a> Object<'a> for &'a Value {
    type Field = &'a Value;

    fn is_object(&self) -> bool {
        matches!(self, Value::Obj(_))
    }

    fn get(&self, key: Key) -> Option<&'a Value> {
        Value::get(self, key.name())
    }
}

/// The members of a checked object that the service reads, by [`Key`]:
/// the first span of each, so a repeated key's first occurrence wins, as
/// in [`Value::get`].
pub(crate) struct Fields<'a> {
    object: bool,
    spans: [Option<Span<'a>>; Key::COUNT],
}

impl<'a> Fields<'a> {
    /// Checks a whole line and records its top-level members.
    pub(crate) fn scan(line: &'a str) -> Result<Fields<'a>, String> {
        let mut fields = Fields::empty();
        let span = scan(line, |key, value| fields.record(key, value))?;
        fields.object = span.text().starts_with('{');
        Ok(fields)
    }

    /// The members of a checked value (a batch item, a write-through
    /// request); none when it is not an object.
    pub(crate) fn of(span: Span<'a>) -> Fields<'a> {
        let mut fields = Fields::empty();
        span.members(|key, value| fields.record(key, value));
        fields.object = span.text().starts_with('{');
        fields
    }

    fn empty() -> Fields<'a> {
        Fields {
            object: false,
            spans: [None; Key::COUNT],
        }
    }

    fn record(&mut self, key: &str, value: Span<'a>) {
        if let Some(key) = Key::of(key) {
            self.spans[key as usize].get_or_insert(value);
        }
    }
}

impl<'a> Object<'a> for Fields<'a> {
    type Field = Span<'a>;

    fn is_object(&self) -> bool {
        self.object
    }

    fn get(&self, key: Key) -> Option<Span<'a>> {
        self.spans[key as usize]
    }
}

/// A request's stencil, checked: a named one is built (or canonicalised)
/// only when needed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StencilSpec {
    Named(NamedStencil),
    Explicit(Stencil),
}

/// A request's node allocation, checked to cover the grid: a homogeneous
/// one without its per-node size vector.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AllocSpec {
    Homogeneous { nodes: usize, per: usize },
    Listed(NodeAllocation),
}

/// A request object that passed every rule of [`check`]: the scalars
/// decoded, the lists still the fields they came in.
pub(crate) struct Checked<F> {
    pub(crate) id: Option<F>,
    /// An array of `ndims` positive integers.
    pub(crate) dims: F,
    pub(crate) ndims: usize,
    pub(crate) stencil: StencilSpec,
    pub(crate) periodic: bool,
    pub(crate) alloc: AllocSpec,
    pub(crate) algorithm: Algorithm,
    pub(crate) seed: u64,
    pub(crate) max_jsum: Option<u64>,
    pub(crate) on_over_budget: OverBudget,
    pub(crate) want_mapping: bool,
    pub(crate) encoding: Encoding,
    /// A `new_rank_of` query's positions: integers below the grid volume.
    pub(crate) ranks: Option<F>,
}

/// The integers of a checked integer array.
pub(crate) fn usizes<'a, F: Field<'a>>(list: F) -> impl Iterator<Item = usize> + Clone + use<'a, F>
where
    F::Items: Clone,
{
    list.items()
        .into_iter()
        .flatten()
        .filter_map(Field::as_usize)
}

impl<'a, F: Field<'a>> Checked<F>
where
    F::Items: Clone,
{
    /// The owned request.
    pub(crate) fn build(self) -> MapRequest {
        MapRequest {
            id: self.id.map(Field::to_value),
            dims: Dims::new(usizes(self.dims).collect()).expect("checked dims"),
            stencil: match self.stencil {
                StencilSpec::Named(named) => named.build(self.ndims),
                StencilSpec::Explicit(stencil) => stencil,
            },
            periodic: self.periodic,
            alloc: match self.alloc {
                AllocSpec::Homogeneous { nodes, per } => NodeAllocation::homogeneous(nodes, per),
                AllocSpec::Listed(alloc) => alloc,
            },
            algorithm: self.algorithm,
            seed: self.seed,
            max_jsum: self.max_jsum,
            on_over_budget: self.on_over_budget,
            want_mapping: self.want_mapping,
            encoding: self.encoding,
            query: self
                .ranks
                .map(|ranks| Query::NewRankOf(usizes(ranks).collect())),
        }
    }
}

/// The request rules, in their order, with their error texts: one
/// routine over a parsed [`Value`] ([`MapRequest::from_value`]) and over
/// the [`Fields`] of a checked line (the service).  A homogeneous
/// allocation is checked against the grid before any per-node vector
/// exists.
pub(crate) fn check<'a, O: Object<'a>>(v: &O) -> Result<Checked<O::Field>, String> {
    if !v.is_object() {
        return Err("request must be a JSON object".to_string());
    }
    let id = v.get(Key::Id);
    let dims = v.get(Key::Dims).ok_or("missing required field \"dims\"")?;
    const BAD_DIMS: &str = "\"dims\" must be an array of positive integers";
    let mut ndims = 0;
    // bound the volume with checked arithmetic *before* anything
    // multiplies the sizes unchecked
    let mut volume = Some(1usize);
    for x in dims.items().ok_or(BAD_DIMS)? {
        let d = x.as_usize().filter(|&d| d > 0).ok_or(BAD_DIMS)?;
        ndims += 1;
        volume = volume.and_then(|p| p.checked_mul(d));
    }
    let p = volume
        .filter(|&p| p <= MAX_GRID_VOLUME)
        .ok_or_else(|| format!("grid volume exceeds the {MAX_GRID_VOLUME}-position limit"))?;
    if ndims == 0 {
        return Err(format!("invalid dims: {}", GridError::EmptyDims));
    }

    let stencil = match v.get(Key::Stencil) {
        None => StencilSpec::Named(NamedStencil::NearestNeighbor),
        Some(s) => match (s.as_str(), s.items()) {
            (Some(name), _) => StencilSpec::Named(match &*name {
                "nearest_neighbor" => NamedStencil::NearestNeighbor,
                "hops" | "nearest_neighbor_with_hops" => NamedStencil::NearestNeighborWithHops,
                "component" => {
                    if ndims < 2 {
                        return Err("component stencil requires at least 2 dims".to_string());
                    }
                    NamedStencil::Component
                }
                other => return Err(format!("unknown stencil name {other:?}")),
            }),
            (None, Some(offsets)) => {
                const BAD_OFFSETS: &str = "stencil offsets must be arrays of integers";
                let parsed: Vec<Vec<i64>> = offsets
                    .map(|o| {
                        o.items()
                            .ok_or(BAD_OFFSETS)?
                            .map(|x| x.as_i64().ok_or(BAD_OFFSETS))
                            .collect::<Result<Vec<i64>, _>>()
                    })
                    .collect::<Result<_, _>>()?;
                StencilSpec::Explicit(
                    Stencil::new(ndims, parsed).map_err(|e| format!("invalid stencil: {e}"))?,
                )
            }
            (None, None) => return Err("\"stencil\" must be a name or an offset array".to_string()),
        },
    };

    let periodic = match v.get(Key::Periodic) {
        None => false,
        Some(b) => b.as_bool().ok_or("\"periodic\" must be a boolean")?,
    };

    let alloc = match (v.get(Key::NodeSizes), v.get(Key::Nodes)) {
        (Some(sizes), _) => {
            const BAD_SIZES: &str = "\"node_sizes\" must be an array of positive integers";
            let sizes: Vec<usize> = sizes
                .items()
                .ok_or(BAD_SIZES)?
                .map(|x| x.as_usize().filter(|&s| s > 0).ok_or(BAD_SIZES))
                .collect::<Result<_, _>>()?;
            let alloc = NodeAllocation::heterogeneous(sizes)
                .map_err(|e| format!("invalid node_sizes: {e}"))?;
            alloc
                .check_total(p)
                .map_err(|e| format!("allocation does not cover the grid: {e}"))?;
            AllocSpec::Listed(alloc)
        }
        (None, Some(nodes)) => {
            let nodes = nodes
                .as_usize()
                .filter(|&n| n > 0)
                .ok_or("\"nodes\" must be a positive integer")?;
            let per = match v.get(Key::ProcsPerNode) {
                Some(x) => x
                    .as_usize()
                    .filter(|&n| n > 0)
                    .ok_or("\"procs_per_node\" must be a positive integer")?,
                None => {
                    if !p.is_multiple_of(nodes) {
                        return Err(format!(
                            "p = {p} is not divisible by nodes = {nodes}; give \
                             \"procs_per_node\" or \"node_sizes\""
                        ));
                    }
                    p / nodes
                }
            };
            let provided = nodes.saturating_mul(per);
            if provided != p {
                return Err(format!(
                    "allocation does not cover the grid: {}",
                    GridError::AllocationMismatch {
                        required: p,
                        provided,
                    }
                ));
            }
            AllocSpec::Homogeneous { nodes, per }
        }
        (None, None) => {
            return Err("missing allocation: give \"nodes\" or \"node_sizes\"".to_string())
        }
    };

    let algorithm = match v.get(Key::Algorithm) {
        None => Algorithm::Hyperplane,
        Some(a) => Algorithm::from_wire(&a.as_str().ok_or("\"algorithm\" must be a string")?)?,
    };

    let seed = match v.get(Key::Seed) {
        None => DEFAULT_SEED,
        Some(s) => s
            .as_u64()
            .ok_or("\"seed\" must be a non-negative integer")?,
    };

    let max_jsum = match v.get(Key::MaxJsum) {
        None => None,
        Some(b) => Some(
            b.as_u64()
                .ok_or("\"max_jsum\" must be a non-negative integer")?,
        ),
    };

    let on_over_budget = match v.get(Key::OnOverBudget) {
        None => OverBudget::Reject,
        Some(m) => match m.as_str().as_deref() {
            Some("reject") => OverBudget::Reject,
            Some("fallback") => OverBudget::Fallback,
            _ => return Err("\"on_over_budget\" must be \"reject\" or \"fallback\"".into()),
        },
    };

    let want_mapping = match v.get(Key::WantMapping) {
        None => true,
        Some(b) => b.as_bool().ok_or("\"want_mapping\" must be a boolean")?,
    };

    let encoding = match v.get(Key::Encoding) {
        None => Encoding::Verbose,
        Some(e) => match e.as_str().as_deref() {
            Some("verbose") => Encoding::Verbose,
            Some("compact") => Encoding::Compact,
            _ => return Err("\"encoding\" must be \"verbose\" or \"compact\"".to_string()),
        },
    };

    let ranks = match v.get(Key::Query) {
        None => {
            if v.get(Key::Ranks).is_some() {
                return Err("\"ranks\" requires \"query\":\"new_rank_of\"".to_string());
            }
            None
        }
        Some(q) => match q.as_str().as_deref() {
            Some("new_rank_of") => {
                let ranks = v
                    .get(Key::Ranks)
                    .ok_or("\"query\":\"new_rank_of\" requires a \"ranks\" array")?;
                for x in ranks
                    .items()
                    .ok_or("\"ranks\" must be an array of grid positions")?
                {
                    x.as_usize()
                        .filter(|&r| r < p)
                        .ok_or_else(|| format!("\"ranks\" entries must be integers in [0, {p})"))?;
                }
                Some(ranks)
            }
            _ => return Err("unknown query (expected \"new_rank_of\")".to_string()),
        },
    };

    Ok(Checked {
        id,
        dims,
        ndims,
        stencil,
        periodic,
        alloc,
        algorithm,
        seed,
        max_jsum,
        on_over_budget,
        want_mapping,
        encoding,
        ranks,
    })
}

/// A response to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct MapResponse {
    /// Echoed request id.
    pub id: Option<Value>,
    /// The outcome.
    pub body: ResponseBody,
}

/// The payload of a [`MapResponse`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A served mapping.
    Ok {
        /// The algorithm whose mapping is served (differs from the request
        /// under budget fallback).
        algorithm: Algorithm,
        /// The requested algorithm, when a budget fallback replaced it.
        fallback_from: Option<Algorithm>,
        /// Whether the canonical cache already held the entry.
        cached: bool,
        /// Whether overload degradation stripped the mapping payload (the
        /// response answers cost-only as if `want_mapping:false`).  Never
        /// set on the stdin path or under normal load, so golden
        /// transcripts are unaffected; rendered only when `true`.
        degraded: bool,
        /// Total inter-node communication edges of the served mapping.
        j_sum: u64,
        /// Bottleneck-node egress of the served mapping.
        j_max: u64,
        /// The mapping payload in the request's chosen form.
        payload: Payload,
    },
    /// A failure; the connection stays usable.
    Error(String),
}

/// How (and whether) a successful response carries the mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Cost-only answer (`want_mapping: false`).
    None,
    /// Verbose `position → node` table in the request's own dimension order.
    Table(Vec<u32>),
    /// The same table in the compact wire form (base64 delta varints).
    TableCompact(String),
    /// Point-lookup answers: `nodes[i]` is the node of position `ranks[i]`.
    Points {
        /// The queried grid positions, echoed back.
        ranks: Vec<usize>,
        /// The compute node of each queried position.
        nodes: Vec<u32>,
    },
}

impl MapResponse {
    /// Renders the response as a JSON value, consuming it: the tree-writer
    /// oracle that the direct writers are tested against.
    #[cfg(test)]
    pub fn into_value(self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        if let Some(id) = self.id {
            fields.push(("id".to_string(), id));
        }
        match self.body {
            ResponseBody::Ok {
                algorithm,
                fallback_from,
                cached,
                degraded,
                j_sum,
                j_max,
                payload,
            } => {
                fields.push(("status".to_string(), Value::str("ok")));
                fields.push(("algorithm".to_string(), Value::str(algorithm.wire_name())));
                if let Some(from) = fallback_from {
                    fields.push(("fallback_from".to_string(), Value::str(from.wire_name())));
                }
                fields.push(("cached".to_string(), Value::Bool(cached)));
                if degraded {
                    fields.push(("degraded".to_string(), Value::Bool(true)));
                }
                fields.push(("j_sum".to_string(), Value::Num(j_sum as f64)));
                fields.push(("j_max".to_string(), Value::Num(j_max as f64)));
                match payload {
                    Payload::None => {}
                    Payload::Table(nodes) => {
                        fields.push((
                            "nodes".to_string(),
                            Value::Arr(nodes.iter().map(|&n| Value::Num(n as f64)).collect()),
                        ));
                    }
                    Payload::TableCompact(encoded) => {
                        fields.push(("encoding".to_string(), Value::str("compact")));
                        fields.push(("nodes".to_string(), Value::Str(encoded)));
                    }
                    Payload::Points { ranks, nodes } => {
                        fields.push((
                            "ranks".to_string(),
                            Value::Arr(ranks.iter().map(|&r| Value::Num(r as f64)).collect()),
                        ));
                        fields.push((
                            "nodes".to_string(),
                            Value::Arr(nodes.iter().map(|&n| Value::Num(n as f64)).collect()),
                        ));
                    }
                }
            }
            ResponseBody::Error(msg) => {
                fields.push(("status".to_string(), Value::str("error")));
                fields.push(("error".to_string(), Value::Str(msg)));
            }
        }
        Value::Obj(fields)
    }

    /// [`MapResponse::into_value`] without consuming the response.
    #[cfg(test)]
    pub fn to_value(&self) -> Value {
        self.clone().into_value()
    }

    /// Appends the response as compact single-line JSON directly to `out`,
    /// byte-identical to the tree writer (`to_value().compact()`, kept as
    /// the tests' oracle) without building a [`Value`] tree.  The service
    /// writes the answers of served cache entries without a `MapResponse`
    /// (see `MappingService::handle_line_into`), through the same
    /// envelope and payload field writers.
    pub fn write_into(&self, out: &mut String) {
        match &self.body {
            ResponseBody::Ok {
                algorithm,
                fallback_from,
                cached,
                degraded,
                j_sum,
                j_max,
                payload,
            } => {
                OkHead {
                    id: self.id.as_ref(),
                    algorithm: *algorithm,
                    fallback_from: *fallback_from,
                    cached: *cached,
                    degraded: *degraded,
                    j_sum: *j_sum,
                    j_max: *j_max,
                }
                .write(out);
                match payload {
                    Payload::None => {}
                    Payload::Table(nodes) => {
                        out.push_str(NODES_FIELD);
                        write_u32_array(out, nodes);
                    }
                    Payload::TableCompact(encoded) => {
                        out.push_str(COMPACT_NODES_FIELD);
                        write_string(out, encoded);
                    }
                    Payload::Points { ranks, nodes } => {
                        write_points(out, ranks.iter().copied(), nodes.iter().copied());
                    }
                }
            }
            ResponseBody::Error(msg) => {
                write_id(out, self.id.as_ref());
                out.push_str("\"status\":\"error\",\"error\":");
                write_string(out, msg);
            }
        }
        out.push('}');
    }
}

/// The key of a verbose node table, after the head.
pub(crate) const NODES_FIELD: &str = ",\"nodes\":";

/// The keys of a compact node table, after the head; the base64 string
/// follows.
pub(crate) const COMPACT_NODES_FIELD: &str = ",\"encoding\":\"compact\",\"nodes\":";

/// Appends `{` and, when there is one, the echoed `"id":…,`.
fn write_id(out: &mut String, id: Option<&Value>) {
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        id.write_into(out);
        out.push(',');
    }
}

/// Everything a successful answer writes before its payload: the one
/// envelope writer of [`MapResponse::write_into`] and of the service's
/// direct answers.
pub(crate) struct OkHead<'a> {
    /// Echoed request id.
    pub(crate) id: Option<&'a Value>,
    /// The algorithm whose mapping is served.
    pub(crate) algorithm: Algorithm,
    /// The requested algorithm, when a budget fallback replaced it.
    pub(crate) fallback_from: Option<Algorithm>,
    /// Whether the canonical cache already held the entry.
    pub(crate) cached: bool,
    /// Whether overload degradation stripped the mapping payload.
    pub(crate) degraded: bool,
    /// Total inter-node communication edges of the served mapping.
    pub(crate) j_sum: u64,
    /// Bottleneck-node egress of the served mapping.
    pub(crate) j_max: u64,
}

impl OkHead<'_> {
    /// Appends `{"id":…,"status":"ok",…,"j_max":…`: the payload fields
    /// and the closing brace are the caller's.
    pub(crate) fn write(&self, out: &mut String) {
        write_id(out, self.id);
        out.push_str("\"status\":\"ok\",\"algorithm\":\"");
        out.push_str(self.algorithm.wire_name());
        out.push('"');
        if let Some(from) = self.fallback_from {
            out.push_str(",\"fallback_from\":\"");
            out.push_str(from.wire_name());
            out.push('"');
        }
        out.push_str(if self.cached {
            ",\"cached\":true"
        } else {
            ",\"cached\":false"
        });
        if self.degraded {
            out.push_str(",\"degraded\":true");
        }
        out.push_str(",\"j_sum\":");
        write_f64(out, self.j_sum as f64);
        out.push_str(",\"j_max\":");
        write_f64(out, self.j_max as f64);
    }
}

/// Appends a point query's `,"ranks":[…],"nodes":[…]`; `nodes` yields the
/// node of each rank in turn.  Ranks are grid positions, below
/// [`MAX_GRID_VOLUME`], so the digit writer prints them as the tree writer
/// does.
pub(crate) fn write_points(
    out: &mut String,
    ranks: impl Iterator<Item = usize>,
    nodes: impl Iterator<Item = u32>,
) {
    out.push_str(",\"ranks\":[");
    for (i, r) in ranks.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_u64(out, r as u64);
    }
    out.push_str("],\"nodes\":");
    let mut w = U32ArrayWriter::new(out);
    for n in nodes {
        w.write(&[n]);
    }
    w.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<MapRequest, String> {
        MapRequest::from_value(&Value::parse(line).expect("valid json"))
    }

    #[test]
    fn minimal_request_uses_defaults() {
        let r = parse(r#"{"dims":[12,8],"nodes":8}"#).unwrap();
        assert_eq!(r.dims.as_slice(), &[12, 8]);
        assert_eq!(r.alloc.num_nodes(), 8);
        assert_eq!(r.alloc.node_size(0), 12);
        assert_eq!(r.algorithm, Algorithm::Hyperplane);
        assert_eq!(r.stencil, Stencil::nearest_neighbor(2));
        assert!(!r.periodic);
        assert!(r.want_mapping);
        assert_eq!(r.seed, DEFAULT_SEED);
        assert_eq!(r.max_jsum, None);
        assert_eq!(r.on_over_budget, OverBudget::Reject);
        assert_eq!(r.encoding, Encoding::Verbose);
        assert_eq!(r.query, None);
    }

    #[test]
    fn encoding_and_query_fields_parse_and_validate() {
        let r = parse(r#"{"dims":[4,4],"nodes":4,"encoding":"compact"}"#).unwrap();
        assert_eq!(r.encoding, Encoding::Compact);
        let r = parse(r#"{"dims":[4,4],"nodes":4,"encoding":"verbose"}"#).unwrap();
        assert_eq!(r.encoding, Encoding::Verbose);
        let r =
            parse(r#"{"dims":[4,4],"nodes":4,"query":"new_rank_of","ranks":[0,15,7]}"#).unwrap();
        assert_eq!(r.query, Some(Query::NewRankOf(vec![0, 15, 7])));
        for (line, needle) in [
            (r#"{"dims":[4,4],"nodes":4,"encoding":"gzip"}"#, "encoding"),
            (r#"{"dims":[4,4],"nodes":4,"query":"old_rank_of"}"#, "query"),
            (r#"{"dims":[4,4],"nodes":4,"query":"new_rank_of"}"#, "ranks"),
            (
                r#"{"dims":[4,4],"nodes":4,"query":"new_rank_of","ranks":[16]}"#,
                "[0, 16)",
            ),
            (
                r#"{"dims":[4,4],"nodes":4,"query":"new_rank_of","ranks":[-1]}"#,
                "ranks",
            ),
            (r#"{"dims":[4,4],"nodes":4,"ranks":[0]}"#, "requires"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn full_request_parses_every_field() {
        let r = parse(
            r#"{"id":"req-1","dims":[6,6],"stencil":[[1,0],[-1,0]],"periodic":true,
                "node_sizes":[20,16],"algorithm":"viem","seed":7,"max_jsum":100,
                "on_over_budget":"fallback","want_mapping":false}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(Value::str("req-1")));
        assert!(r.periodic);
        assert_eq!(r.alloc.sizes(), &[20, 16]);
        assert_eq!(r.algorithm, Algorithm::Viem);
        assert_eq!(r.seed, 7);
        assert_eq!(r.max_jsum, Some(100));
        assert_eq!(r.on_over_budget, OverBudget::Fallback);
        assert!(!r.want_mapping);
        assert_eq!(r.stencil.k(), 2);
    }

    #[test]
    fn named_stencils_resolve() {
        assert_eq!(
            parse(r#"{"dims":[4,4],"nodes":4,"stencil":"hops"}"#)
                .unwrap()
                .stencil,
            Stencil::nearest_neighbor_with_hops(2)
        );
        assert_eq!(
            parse(r#"{"dims":[4,4],"nodes":4,"stencil":"component"}"#)
                .unwrap()
                .stencil,
            Stencil::component(2)
        );
        assert!(parse(r#"{"dims":[4,4],"nodes":4,"stencil":"torus"}"#).is_err());
        assert!(parse(r#"{"dims":[4],"nodes":2,"stencil":"component"}"#).is_err());
    }

    #[test]
    fn invalid_requests_are_rejected_with_messages() {
        for (line, needle) in [
            (r#"{"nodes":4}"#, "dims"),
            (r#"{"dims":[0,4],"nodes":4}"#, "dims"),
            (r#"{"dims":[4,4]}"#, "allocation"),
            (r#"{"dims":[4,4],"nodes":3}"#, "not divisible"),
            (
                r#"{"dims":[4,4],"nodes":4,"algorithm":"magic"}"#,
                "unknown algorithm",
            ),
            (
                r#"{"dims":[4,4],"node_sizes":[8,9]}"#,
                "allocation does not cover",
            ),
            (
                r#"{"dims":[4,4],"nodes":4,"on_over_budget":"explode"}"#,
                "on_over_budget",
            ),
            (r#"[1,2]"#, "object"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn degraded_flag_renders_only_when_set() {
        let resp = |degraded| MapResponse {
            id: None,
            body: ResponseBody::Ok {
                algorithm: Algorithm::Hyperplane,
                fallback_from: None,
                cached: true,
                degraded,
                j_sum: 2,
                j_max: 1,
                payload: Payload::None,
            },
        };
        assert_eq!(
            resp(true).to_value().compact(),
            r#"{"status":"ok","algorithm":"hyperplane","cached":true,"degraded":true,"j_sum":2,"j_max":1}"#
        );
        assert!(!resp(false).to_value().compact().contains("degraded"));
    }

    #[test]
    fn responses_render_compact_json() {
        let ok = MapResponse {
            id: Some(Value::Num(3.0)),
            body: ResponseBody::Ok {
                algorithm: Algorithm::KdTree,
                fallback_from: Some(Algorithm::Viem),
                cached: true,
                degraded: false,
                j_sum: 10,
                j_max: 4,
                payload: Payload::Table(vec![0, 0, 1, 1]),
            },
        };
        assert_eq!(
            ok.to_value().compact(),
            r#"{"id":3,"status":"ok","algorithm":"kdtree","fallback_from":"viem","cached":true,"j_sum":10,"j_max":4,"nodes":[0,0,1,1]}"#
        );
        let err = MapResponse {
            id: None,
            body: ResponseBody::Error("boom".to_string()),
        };
        assert_eq!(
            err.to_value().compact(),
            r#"{"status":"error","error":"boom"}"#
        );
    }

    #[test]
    fn direct_writer_matches_tree_writer_for_every_response_shape() {
        let ids = [
            None,
            Some(Value::Num(3.0)),
            Some(Value::str("req \"7\"\n")),
            Some(Value::Null),
            Some(Value::Arr(vec![Value::Num(1.0), Value::Bool(true)])),
        ];
        let payloads = [
            Payload::None,
            Payload::Table(vec![]),
            Payload::Table(vec![0, 47, 4799, u32::MAX]),
            Payload::Table((0..4800u32).map(|x| x / 48).collect()),
            Payload::TableCompact(crate::json::encode_nodes_compact(&[0, 0, 1, 1])),
            Payload::Points {
                ranks: vec![3, 0, 16_777_215],
                nodes: vec![1, 0, 255],
            },
        ];
        let mut shapes = Vec::new();
        for id in &ids {
            for payload in &payloads {
                for (fallback_from, cached, degraded) in
                    [(None, true, false), (Some(Algorithm::Viem), false, true)]
                {
                    shapes.push(MapResponse {
                        id: id.clone(),
                        body: ResponseBody::Ok {
                            algorithm: Algorithm::KdTree,
                            fallback_from,
                            cached,
                            degraded,
                            j_sum: 10,
                            j_max: 4,
                            payload: payload.clone(),
                        },
                    });
                }
            }
            shapes.push(MapResponse {
                id: id.clone(),
                body: ResponseBody::Error("bad \"dims\"\n".to_string()),
            });
        }
        for resp in shapes {
            let mut direct = String::new();
            resp.write_into(&mut direct);
            assert_eq!(direct, resp.to_value().compact(), "{resp:?}");
        }
    }

    #[test]
    fn compact_and_point_payloads_render() {
        let body = |payload| MapResponse {
            id: None,
            body: ResponseBody::Ok {
                algorithm: Algorithm::Hyperplane,
                fallback_from: None,
                cached: false,
                degraded: false,
                j_sum: 2,
                j_max: 1,
                payload,
            },
        };
        assert_eq!(
            body(Payload::None).to_value().compact(),
            r#"{"status":"ok","algorithm":"hyperplane","cached":false,"j_sum":2,"j_max":1}"#
        );
        let encoded = crate::json::encode_nodes_compact(&[0, 0, 1, 1]);
        assert_eq!(
            body(Payload::TableCompact(encoded.clone()))
                .to_value()
                .compact(),
            format!(
                r#"{{"status":"ok","algorithm":"hyperplane","cached":false,"j_sum":2,"j_max":1,"encoding":"compact","nodes":"{encoded}"}}"#
            )
        );
        assert_eq!(
            body(Payload::Points {
                ranks: vec![3, 0],
                nodes: vec![1, 0],
            })
            .to_value()
            .compact(),
            r#"{"status":"ok","algorithm":"hyperplane","cached":false,"j_sum":2,"j_max":1,"ranks":[3,0],"nodes":[1,0]}"#
        );
    }
}
