//! Consistent-hash request routing across sharded `stencil-serve` backends.
//!
//! `stencil-serve --route b1:port,b2:port,…` turns the process into a
//! protocol-transparent router: it accepts the same NDJSON protocol on the
//! same TCP frontend (see [`crate::server`]), but instead of computing it
//! canonicalises each request (reusing [`stencil_mapping::canonical`] via
//! [`CacheKey::of_request`]), hashes the canonical key bytes with 64-bit
//! FNV-1a onto a [`Ring`] of [`VNODES_PER_BACKEND`] virtual nodes per
//! backend, forwards the line over a pooled persistent TCP connection to
//! the chosen backend, and relays the response line verbatim.
//!
//! **Placement is a pure function of the canonical key and the backend
//! set.**  Canonically-equal requests (a grid and its dimension
//! permutations, reordered stencils) always land on the same backend, so
//! each backend's cache sees exactly the request subsequence it would have
//! seen in a single process and the `cached` flags — and therefore whole
//! transcripts — stay byte-identical to an unsharded server (asserted by
//! the router golden tests and the CI `router-smoke` step).  No rendezvous
//! state, no coordination: adding a backend remaps only the keys whose ring
//! successor changes.
//!
//! Request handling:
//!
//! * a **single request line is forwarded verbatim** (raw bytes, not
//!   re-rendered), so the backend parses exactly what the client sent;
//! * a **batch line is split per item**: each item is routed by its own
//!   canonical key as its own line, without the `"admin"` and `"batch"`
//!   keys a request object ignores, and the answers are reassembled in
//!   item order;
//! * with **more than one owner**, a request or item goes out as
//!   `{"admin":"write_through","request":ITEM}`, answered with
//!   `{"status":"ok","admin":"write_through","log":L,"response":R}`, and
//!   the router relays R unparsed;
//! * **unparseable lines, empty or malformed batches and `"admin"` lines**
//!   are forwarded whole to a backend picked by hashing the raw line bytes
//!   — deterministic, and the backend produces the identical error (or
//!   admin) response a single process would.
//!
//! **Replication** (`--replicas R`, default 1): each key maps to the R
//! *distinct* successor backends on the ring ([`Ring::replica_indices`]).
//! Reads go to the primary and fail over in ring order to the next replica
//! when a backend is down, timed out, or mid-backoff.  A **miss** costs one
//! round trip: `L` carries the persistence insert records of the entry the
//! serving backend computed, and the router absorbs them unchanged
//! (`{"admin":"absorb"}`) into each other replica before releasing R.  The
//! mapping is computed once; the replicas parse a record instead of
//! running the mapper, and hold the identical entry.  (When `L` is `null`,
//! or a request is too deep or too long to wrap and its raw answer says
//! `"cached":false`, the other replicas get the request's own line and
//! compute the entry.)  Converged replica caches are what keep routed
//! transcripts byte-identical through a failover: the replica answers
//! `"cached":true` exactly as the lost primary — and a single process —
//! would.  Killing any one backend with R ≥ 2 therefore yields zero
//! `backend unavailable` lines and no cold recompute storm.  Router and
//! backends must run the same release.
//!
//! **Live resharding**: `{"admin":"reshard","add":ADDR}` (or `"remove"`)
//! is answered by the router itself.  It builds the new ring, pulls
//! compacted `{"admin":"handoff"}` images from the old backends, streams
//! exactly the key ranges whose replica set gains a member into the
//! gaining backends as `{"admin":"absorb"}` chunks, then swaps the routing
//! view atomically — in-flight lines drain on the old view (each line
//! works against an `Arc` snapshot).  `{"admin":"stats"}` is likewise
//! answered by the router: it fans out to every backend and aggregates
//! cache counters plus the router's own up/down/backoff view into one
//! line.
//!
//! Robustness: per-backend connection pools with
//! reconnect-with-exponential-backoff (deterministically jittered per
//! backend, so a fleet-wide restart never wakes all probes at one
//! instant), a per-forward deadline (`--route-timeout`), and
//! `{"error":"backend unavailable"}` lines — only when *every* replica is
//! unreachable — instead of hangs.  A backend that comes back is redialed
//! automatically once its backoff window expires; up/down transitions are
//! logged once each.  The fault points `router.forward`,
//! `router.forward_sent`, `router.reconnect`,
//! `router.replica_fanout_partial`, `router.ring_swap_prepared` and
//! `router.handoff_streamed` ([`crate::faultpoint`]) bracket the forward,
//! fan-out and reshard paths for the crash-matrix suites.
//!
//! The router in the serve-tier picture — and the warm-handoff flow for
//! resharding (`--handoff`, which asks a backend to compact and ship its
//! persistence log; reused wholesale by the reshard choreography) — is
//! described in `docs/ARCHITECTURE.md`; the wire protocol it relays is
//! specified in `docs/PROTOCOL.md`.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use crate::faultpoint;
use crate::json::{base64_decode, base64_encode, Value, MAX_DEPTH};
use crate::persist::{parse_record, Record};
use crate::protocol::{MapRequest, MapResponse, ResponseBody};
use crate::server::{LineHandler, MAX_LINE_BYTES};
use crate::service::CacheKey;

/// Virtual nodes per backend on the ring.  256 keeps the largest/smallest
/// backend share within a few percent of each other while the whole ring
/// for tens of backends still fits in one cache-friendly sorted `Vec`.
pub const VNODES_PER_BACKEND: usize = 256;

/// Default `--route-timeout`: the per-forward deadline covering connect,
/// write and response read.  Generous enough for a cold p=4800 VieM miss
/// on a loaded backend, short enough that a wedged backend turns into
/// error lines instead of piled-up worker threads.
pub const DEFAULT_ROUTE_TIMEOUT: Duration = Duration::from_secs(10);

/// The error text of a routed line that could not be forwarded to *any* of
/// its replicas — clients see
/// `{"status":"error","error":"backend unavailable"}` (with the request id
/// echoed when there was one) instead of a hang or a torn line.  The string
/// itself lives in [`crate::wire`] with the other transport error texts.
pub use crate::wire::ERROR_BACKEND_UNAVAILABLE as BACKEND_UNAVAILABLE;

/// How long one `connect` may take before the backend counts as down.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// First retry delay after a backend is marked down; doubles per
/// consecutive failure up to [`BACKOFF_MAX`], and any success resets it.
const BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Ceiling of the reconnect backoff: a dead backend is probed at least
/// every 2 s, which bounds how stale the router's down verdict can get
/// after the backend restarts.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Idle connections kept per backend; checkouts beyond this dial extra
/// connections that are simply dropped instead of pooled on checkin.
const POOL_CAP: usize = 8;

/// Upper bound on one buffered backend response (64 MiB — far above any
/// legitimate response, including a shipped handoff log) so a misbehaving
/// backend cannot balloon router memory.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// Raw bytes of persistence-log records per `{"admin":"absorb"}` line when
/// a reshard streams moved key ranges into their gaining backend.  2 MiB of
/// raw log is ~2.7 MiB base64 — comfortably inside the backends' 4 MiB
/// request-line limit.
const ABSORB_CHUNK_BYTES: usize = 2 << 20;

/// A replicated request goes out as this prefix, the request object, `}`.
const WRITE_THROUGH: &str = r#"{"admin":"write_through","request":"#;

/// The fixed start of a backend's answer to [`WRITE_THROUGH`].
const WRITE_THROUGH_ANSWER: &str = r#"{"status":"ok","admin":"write_through","log":"#;

/// Deterministic per-backend addition to every reconnect-backoff window,
/// keyed on the backend's construction index: `idx` milliseconds plus a
/// sub-millisecond mix of `idx`.  Indices map to *disjoint* 1 ms intervals,
/// so two backends marked down at the same instant with the same backoff
/// can never probe at the same instant — a fleet-wide backend restart wakes
/// the router's probes staggered instead of as one synchronized storm.
fn probe_jitter(idx: u64) -> Duration {
    Duration::from_micros(idx * 1000 + mix64(idx) % 1000)
}

/// 64-bit FNV-1a over `bytes` — the router's fixed placement hash.  Chosen
/// for being fully specified in a dozen lines (no dependency, no
/// platform variance): the constants below are the standard FNV-1a offset
/// basis and prime.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Finalising mixer (splitmix64's output stage).  FNV-1a alone spreads
/// trailing bytes weakly: sequential vnode indices and backend specs that
/// differ in one port digit land clustered on the ring, which skews shard
/// ownership by an order of magnitude.  One multiply–xor–shift cascade is
/// enough to make the spread uniform, and it is just as deterministic.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The consistent-hash ring: every backend contributes
/// [`VNODES_PER_BACKEND`] points (FNV-1a of `spec NUL vnode_index`), a key
/// is owned by the first point at or clockwise-after its hash.  Lookup is
/// one binary search over a sorted `Vec`.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point hash, backend index)`, sorted — ties (astronomically rare)
    /// break deterministically toward the lower backend index.
    points: Vec<(u64, usize)>,
    /// Number of backends the ring was built from (distinct indices).
    backends: usize,
}

impl Ring {
    /// Builds the ring for the given backend specs (order defines the
    /// backend indices).  Duplicate specs are allowed and simply double a
    /// backend's share of the ring.
    pub fn new(backends: &[String]) -> Ring {
        let mut points = Vec::with_capacity(backends.len() * VNODES_PER_BACKEND);
        for (idx, spec) in backends.iter().enumerate() {
            let mut bytes = Vec::with_capacity(spec.len() + 5);
            bytes.extend_from_slice(spec.as_bytes());
            bytes.push(0);
            for vnode in 0..VNODES_PER_BACKEND as u32 {
                bytes.truncate(spec.len() + 1);
                bytes.extend_from_slice(&vnode.to_le_bytes());
                points.push((mix64(fnv1a_64(&bytes)), idx));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            backends: backends.len(),
        }
    }

    /// The backend index owning `hash`: the first ring point at or after
    /// it, wrapping past the top of the hash space back to the first point.
    /// The hash is finalised with the same splitmix64 step used to place
    /// the vnode points, so callers pass plain [`fnv1a_64`] output.
    pub fn lookup(&self, hash: u64) -> usize {
        let hash = mix64(hash);
        let i = self.points.partition_point(|&(h, _)| h < hash);
        self.points[i % self.points.len()].1
    }

    /// The `replicas` *distinct* backend indices owning `hash`, in failover
    /// order: the [`Ring::lookup`] owner first, then the next distinct
    /// backends clockwise around the ring.  The walk over successor points
    /// collapses repeated indices, so the set size is
    /// `min(replicas, backend count)` — a pure function of the hash and the
    /// backend set, exactly like single-owner lookup, and with the same
    /// minimal-movement property extended to sets: growing the ring can add
    /// the new backend to a key's replica set (evicting its last member)
    /// but never moves a key between two pre-existing backends.
    pub fn replica_indices(&self, hash: u64, replicas: usize) -> Vec<usize> {
        let want = replicas.min(self.backends);
        let mut set = Vec::with_capacity(want);
        if want == 0 {
            return set;
        }
        let hash = mix64(hash);
        let start = self.points.partition_point(|&(h, _)| h < hash);
        for off in 0..self.points.len() {
            let idx = self.points[(start + off) % self.points.len()].1;
            if !set.contains(&idx) {
                set.push(idx);
                if set.len() == want {
                    break;
                }
            }
        }
        set
    }

    /// Number of backends this ring was built from.
    pub fn backend_count(&self) -> usize {
        self.backends
    }

    /// Number of ring points (backends × vnodes).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring has no points (an empty backend list).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// One pooled backend connection: the socket plus any bytes already read
/// past the last returned response line.
struct BackendConn {
    stream: TcpStream,
    residual: Vec<u8>,
    /// The read buffer, allocated once per connection rather than
    /// zero-filled on the stack before every read.
    chunk: Box<[u8]>,
}

impl BackendConn {
    /// Writes one request line (terminator appended) with the remaining
    /// deadline as the write timeout.  Line and terminator go out in one
    /// write: the socket is `TCP_NODELAY`, so two writes would cost two
    /// segments.
    fn write_line(&mut self, line: &str, deadline: Instant) -> std::io::Result<()> {
        self.stream.set_write_timeout(Some(remaining(deadline)?))?;
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)
    }

    /// Reads one newline-terminated response line (terminator stripped),
    /// keeping any extra bytes for the next read.
    fn read_line(&mut self, deadline: Instant) -> std::io::Result<String> {
        let mut searched = 0;
        loop {
            if let Some(pos) = self.residual[searched..].iter().position(|&b| b == b'\n') {
                let rest = self.residual.split_off(searched + pos + 1);
                let mut line = std::mem::replace(&mut self.residual, rest);
                line.pop();
                return String::from_utf8(line).map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "backend sent an invalid UTF-8 response line",
                    )
                });
            }
            searched = self.residual.len();
            if searched > MAX_RESPONSE_BYTES {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "backend response line exceeds the relay limit",
                ));
            }
            self.stream.set_read_timeout(Some(remaining(deadline)?))?;
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "backend closed the connection mid-response",
                    ))
                }
                Ok(n) => self.residual.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Time left until `deadline`, as a non-zero socket timeout; a
/// `TimedOut` error once it has passed.
fn remaining(deadline: Instant) -> std::io::Result<Duration> {
    match deadline.checked_duration_since(Instant::now()) {
        Some(d) if !d.is_zero() => Ok(d),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "forward deadline exceeded",
        )),
    }
}

/// Reconnect/backoff state of one backend, shared by all router workers.
struct BackendState {
    pool: Vec<BackendConn>,
    /// While set and in the future, forwards fail fast instead of dialing.
    down_until: Option<Instant>,
    /// The next down window; doubles per consecutive failure.
    backoff: Duration,
}

struct Backend {
    spec: String,
    /// This backend's [`probe_jitter`], fixed at construction.  Added to
    /// every down window so no two backends ever share a probe instant.
    jitter: Duration,
    state: Mutex<BackendState>,
}

impl Backend {
    fn new(spec: String, jitter_index: u64) -> Backend {
        Backend {
            spec,
            jitter: probe_jitter(jitter_index),
            state: Mutex::new(BackendState {
                pool: Vec::new(),
                down_until: None,
                backoff: BACKOFF_BASE,
            }),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, BackendState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Marks the backend down for its current backoff window (plus its
    /// jitter), discards its pooled connections (all presumed stale), and
    /// doubles the window.  The up→down *transition* is logged once; probe
    /// failures while already down stay silent.
    fn mark_down(&self) {
        let mut state = self.lock_state();
        let window = state.backoff + self.jitter;
        if state.down_until.is_none() {
            eprintln!(
                "router: backend {} marked down, next probe in {}ms",
                self.spec,
                window.as_millis()
            );
        }
        state.pool.clear();
        state.down_until = Some(Instant::now() + window);
        state.backoff = (state.backoff * 2).min(BACKOFF_MAX);
    }

    /// Records a successful exchange: clears the down window and resets the
    /// backoff, so a restarted backend rejoins at full speed immediately.
    /// The down→up transition is logged once.
    fn mark_up(&self) {
        let mut state = self.lock_state();
        if state.down_until.is_some() {
            eprintln!("router: backend {} rejoined", self.spec);
        }
        state.down_until = None;
        state.backoff = BACKOFF_BASE;
    }

    /// Returns a healthy connection to the pool (bounded by [`POOL_CAP`]).
    fn checkin(&self, conn: BackendConn) {
        let mut state = self.lock_state();
        if state.pool.len() < POOL_CAP {
            state.pool.push(conn);
        }
    }
}

/// The immutable routing view one request line works against: the backend
/// specs, their live connection/backoff state, and the ring built from
/// them.  The router holds the current view behind an `RwLock<Arc<…>>`;
/// every line clones the `Arc` once, so a reshard can swap in a new view
/// atomically while in-flight lines drain on the old one — and backends
/// common to both views share their `Arc<Backend>` (pools, backoff state)
/// across the swap.
struct RouterInner {
    specs: Vec<String>,
    backends: Vec<Arc<Backend>>,
    ring: Ring,
}

/// The canonical placement hash of one parsed request object: FNV-1a of the
/// canonical [`CacheKey::routing_bytes`] for a well-formed mapping request,
/// FNV-1a of the compact rendering otherwise (still deterministic, and the
/// backend renders the identical error a single process would).
fn item_hash(item: &Value) -> u64 {
    match MapRequest::from_value(item) {
        Ok(req) => fnv1a_64(&CacheKey::of_request(&req).routing_bytes()),
        Err(_) => fnv1a_64(item.compact().as_bytes()),
    }
}

/// Monotonic router counters (diagnostics and test assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Lines (or batch items) forwarded and answered by a backend.
    pub forwarded: u64,
    /// Lines (or batch items) answered with [`BACKEND_UNAVAILABLE`].
    pub unavailable: u64,
    /// Fresh backend connections dialed (the first connection to each
    /// backend counts too, so this is ≥ the number of live backends ever
    /// used).
    pub reconnects: u64,
    /// Lines answered by a non-primary replica because the primary (or an
    /// earlier replica) was down, timed out, or mid-backoff.
    pub failovers: u64,
    /// Write-through copies of a missed entry delivered to the remaining
    /// replicas (one count per secondary that accepted it, not per miss).
    pub fanouts: u64,
}

/// The consistent-hash router.  Implements [`LineHandler`], so every
/// transport frontend in [`crate::server`] (TCP pool, stdin) can serve it
/// in place of a local [`crate::service::MappingService`].
pub struct Router {
    /// The current routing view; swapped atomically by a reshard.
    inner: RwLock<Arc<RouterInner>>,
    /// Replica count per key (`--replicas`, 1 = the PR 8 single-owner mode).
    replicas: usize,
    route_timeout: Duration,
    /// Serialises reshards; request lines never take it.
    reshard_lock: Mutex<()>,
    /// Next [`probe_jitter`] index for backends added by a reshard —
    /// monotonic over the router's lifetime, so jitters stay distinct no
    /// matter how membership churns.
    next_jitter: AtomicU64,
    forwarded: AtomicU64,
    unavailable: AtomicU64,
    reconnects: AtomicU64,
    failovers: AtomicU64,
    fanouts: AtomicU64,
}

impl Router {
    /// Builds a router over `specs` (`host:port` each, as given to
    /// `--route`, comma-split by the CLI) with `replicas` distinct owners
    /// per key.  Specs are resolved eagerly so a typo fails at startup, but
    /// the backends do not need to be up yet — connections are dialed
    /// lazily on first forward.
    pub fn new(
        specs: &[String],
        replicas: usize,
        route_timeout: Duration,
    ) -> Result<Router, String> {
        if specs.is_empty() {
            return Err("--route needs at least one backend (host:port)".to_string());
        }
        if replicas < 1 {
            return Err("--replicas must be at least 1".to_string());
        }
        if replicas > specs.len() {
            return Err(format!(
                "--replicas {replicas} needs at least {replicas} backends, got {}",
                specs.len()
            ));
        }
        for (i, spec) in specs.iter().enumerate() {
            spec.to_socket_addrs()
                .map_err(|e| format!("backend {spec:?} does not resolve: {e}"))?;
            if replicas > 1 && specs[..i].contains(spec) {
                return Err(format!(
                    "duplicate backend {spec:?}: replicas must be distinct processes"
                ));
            }
        }
        Ok(Router {
            inner: RwLock::new(Arc::new(RouterInner {
                specs: specs.to_vec(),
                backends: specs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| Arc::new(Backend::new(spec.clone(), i as u64)))
                    .collect(),
                ring: Ring::new(specs),
            })),
            replicas,
            route_timeout,
            reshard_lock: Mutex::new(()),
            next_jitter: AtomicU64::new(specs.len() as u64),
            forwarded: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            fanouts: AtomicU64::new(0),
        })
    }

    /// The current routing view.  One clone per request line: in-flight
    /// lines keep the view they started with across a reshard swap.
    fn snapshot(&self) -> Arc<RouterInner> {
        Arc::clone(&self.inner.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The backend specs of the current view, in ring-index order.
    pub fn backend_specs(&self) -> Vec<String> {
        self.snapshot().specs.clone()
    }

    /// The configured replica count per key.
    pub fn replica_count(&self) -> usize {
        self.replicas
    }

    /// Snapshot of the monotonic router counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            forwarded: self.forwarded.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            fanouts: self.fanouts.load(Ordering::Relaxed),
        }
    }

    /// The primary backend index a parsed request object routes to: the
    /// ring successor of the item's routing hash in the current view.
    pub fn route_index(&self, item: &Value) -> usize {
        self.snapshot().ring.lookup(item_hash(item))
    }

    /// The full replica set (primary first, failover order) a parsed
    /// request object routes to, as backend specs of the current view.
    pub fn replica_specs(&self, item: &Value) -> Vec<String> {
        let inner = self.snapshot();
        inner
            .ring
            .replica_indices(item_hash(item), self.replicas)
            .into_iter()
            .map(|i| inner.specs[i].clone())
            .collect()
    }

    /// Checks out a connection to `backend`: a pooled one when available
    /// (`pooled = true`), otherwise a fresh dial — unless the backend is
    /// inside its down window, which fails fast.
    fn checkout(&self, backend: &Backend) -> Result<(BackendConn, bool), ()> {
        {
            let mut state = backend.lock_state();
            if let Some(conn) = state.pool.pop() {
                return Ok((conn, true));
            }
            if let Some(until) = state.down_until {
                if Instant::now() < until {
                    return Err(());
                }
            }
        }
        self.dial(backend).map(|conn| (conn, false))
    }

    /// Dials a fresh connection; failure (re)marks the backend down and
    /// doubles its backoff.
    fn dial(&self, backend: &Backend) -> Result<BackendConn, ()> {
        faultpoint::reach("router.reconnect");
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        let addrs = match backend.spec.to_socket_addrs() {
            Ok(addrs) => addrs,
            Err(_) => {
                backend.mark_down();
                return Err(());
            }
        };
        for addr in addrs {
            if let Ok(stream) = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                let _ = stream.set_nodelay(true);
                return Ok(BackendConn {
                    stream,
                    residual: Vec::new(),
                    chunk: vec![0; 64 * 1024].into_boxed_slice(),
                });
            }
        }
        backend.mark_down();
        Err(())
    }

    /// Forwards one complete line to `backend` and returns the response
    /// line.  A failure on a *pooled* connection (typically stale after a
    /// backend restart) clears the pool and retries once on a fresh dial
    /// within the same deadline; a failure on a fresh connection — or the
    /// deadline expiring — marks the backend down and reports
    /// unavailability.
    fn forward(&self, backend: &Backend, line: &str) -> Result<String, ()> {
        faultpoint::reach("router.forward");
        let deadline = Instant::now() + self.route_timeout;
        let mut retried = false;
        loop {
            let (mut conn, pooled) = self.checkout(backend)?;
            let result = conn.write_line(line, deadline).and_then(|()| {
                faultpoint::reach("router.forward_sent");
                conn.read_line(deadline)
            });
            match result {
                Ok(response) => {
                    backend.checkin(conn);
                    backend.mark_up();
                    self.forwarded.fetch_add(1, Ordering::Relaxed);
                    return Ok(response);
                }
                Err(e) => {
                    drop(conn); // never pool a connection in an unknown state
                    let timed_out = e.kind() == std::io::ErrorKind::TimedOut;
                    if pooled && !retried && !timed_out {
                        retried = true;
                        backend.lock_state().pool.clear();
                        continue;
                    }
                    if !timed_out {
                        // a timeout says "slow", not "gone": drop the
                        // connection but leave the backend dialable
                        backend.mark_down();
                    }
                    return Err(());
                }
            }
        }
    }

    /// Forwards one line through its replica set in failover order: the
    /// first replica to answer wins, and an answer from a non-primary
    /// counts as a failover.  Returns the answer and the backend index that
    /// gave it.
    fn forward_replicated(
        &self,
        inner: &RouterInner,
        targets: &[usize],
        line: &str,
    ) -> Result<(String, usize), ()> {
        for (attempt, &idx) in targets.iter().enumerate() {
            if let Ok(response) = self.forward(&inner.backends[idx], line) {
                if attempt > 0 {
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                }
                return Ok((response, idx));
            }
        }
        Err(())
    }

    /// Routes one request object through its replica set and appends the
    /// answer to `out`; `line` is the object as a line a backend answers
    /// exactly as the object.  With more than one owner the line goes out
    /// in the [`WRITE_THROUGH`] envelope, and before the answer is released
    /// the other owners absorb the records of an entry the serving backend
    /// computed (or, when they cannot ship, answer `line` and compute it).
    /// Otherwise the line goes out raw; a replicated line too deep or too
    /// long to wrap writes a `"cached":false` answer through raw.
    /// Write-through failures are ignored: a down replica warms up later
    /// through its own misses or a reshard.
    fn route_request(&self, inner: &RouterInner, item: &Value, line: &str, out: &mut String) {
        let targets = inner.ring.replica_indices(item_hash(item), self.replicas);
        let envelope = (targets.len() > 1
            // the envelope nests the request one level deeper and
            // lengthens the line
            && item.depth() < MAX_DEPTH
            && WRITE_THROUGH.len() + line.len() < MAX_LINE_BYTES)
            .then(|| format!("{WRITE_THROUGH}{line}}}"));
        let sent = envelope.as_deref().unwrap_or(line);
        let Ok((reply, served)) = self.forward_replicated(inner, &targets, sent) else {
            return self.push_unavailable(item.get("id").cloned(), out);
        };
        let fan_out = |log: Option<&str>| {
            faultpoint::reach("router.replica_fanout_partial");
            for &idx in targets.iter().filter(|&&idx| idx != served) {
                let backend = &inner.backends[idx];
                let delivered = match log {
                    Some(log) => self.absorb(backend, log),
                    None => self.forward(backend, line).map(drop),
                };
                if delivered.is_ok() {
                    self.fanouts.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        if envelope.is_none() {
            if targets.len() > 1 && reply.contains("\"cached\":false") {
                fan_out(None);
            }
            return out.push_str(&reply);
        }
        match split_write_through(&reply) {
            Some((records, response)) => {
                if records != Some("") {
                    fan_out(records);
                }
                out.push_str(response);
            }
            // a garbled envelope answers nothing; a line the backend
            // refused answers with its error line
            None if reply.starts_with(WRITE_THROUGH_ANSWER) => {
                self.push_unavailable(item.get("id").cloned(), out)
            }
            None => out.push_str(&reply),
        }
    }

    /// Sends an already base64-encoded persistence log to `backend` as one
    /// `{"admin":"absorb"}` line and checks it was accepted.
    fn absorb(&self, backend: &Backend, log: &str) -> Result<(), ()> {
        let line = format!("{{\"admin\":\"absorb\",\"log\":\"{log}\"}}");
        ok_reply(&self.forward(backend, &line)?).map(drop).ok_or(())
    }

    /// Appends the [`BACKEND_UNAVAILABLE`] error line (id echoed) to `out`.
    fn push_unavailable(&self, id: Option<Value>, out: &mut String) {
        self.unavailable.fetch_add(1, Ordering::Relaxed);
        MapResponse {
            id,
            body: ResponseBody::Error(BACKEND_UNAVAILABLE.to_string()),
        }
        .write_into(out);
    }

    /// Routes one non-empty batch: items routed independently by canonical
    /// key, strictly in item order (so canonically-equal items hit the same
    /// backend in the same order a single process would process them), each
    /// as its own line without the `"admin"` and `"batch"` keys a request
    /// object ignores; answers reassembled in order.
    fn route_batch(&self, inner: &RouterInner, items: &[Value], out: &mut String) {
        out.push_str("{\"batch\":[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let keyed = |(k, _): &(String, Value)| k == "admin" || k == "batch";
            let line = match item {
                Value::Obj(fields) if fields.iter().any(keyed) => {
                    let plain = fields.iter().filter(|f| !keyed(f)).cloned().collect();
                    Value::Obj(plain).compact()
                }
                _ => item.compact(),
            };
            self.route_request(inner, item, &line, out);
        }
        out.push_str("]}");
    }

    /// `{"admin":"stats"}` — answered by the router itself instead of being
    /// hashed to one arbitrary shard: fans `{"admin":"stats"}` out to every
    /// backend of the current view and aggregates the per-backend cache
    /// counters with the router's own view of each backend (up/down, pooled
    /// connections, backoff) and its forward counters into one JSON line.
    fn admin_stats(&self, inner: &RouterInner, v: &Value, out: &mut String) {
        let now = Instant::now();
        let (mut hits, mut misses, mut entries, mut up) = (0u64, 0u64, 0u64, 0u64);
        let mut per_backend = Vec::new();
        for backend in &inner.backends {
            let (pooled, backoff, down_for) = {
                let state = backend.lock_state();
                (
                    state.pool.len(),
                    state.backoff,
                    state
                        .down_until
                        .and_then(|until| until.checked_duration_since(now)),
                )
            };
            let mut fields = vec![("backend", Value::str(backend.spec.clone()))];
            let reply = self
                .forward(backend, "{\"admin\":\"stats\"}")
                .ok()
                .and_then(|resp| ok_reply(&resp));
            match reply {
                Some(r) => {
                    up += 1;
                    fields.push(("up", Value::Bool(true)));
                    for (name, total) in [
                        ("hits", &mut hits),
                        ("misses", &mut misses),
                        ("entries", &mut entries),
                    ] {
                        let n = r.get(name).and_then(Value::as_u64).unwrap_or(0);
                        *total += n;
                        fields.push((name, Value::Num(n as f64)));
                    }
                }
                None => fields.push(("up", Value::Bool(false))),
            }
            fields.push(("pooled", Value::Num(pooled as f64)));
            fields.push(("backoff_ms", Value::Num(backoff.as_millis() as f64)));
            if let Some(d) = down_for {
                fields.push(("down_for_ms", Value::Num(d.as_millis() as f64)));
            }
            per_backend.push(Value::obj(fields));
        }
        let stats = self.stats();
        let mut fields = Vec::new();
        if let Some(id) = v.get("id").cloned() {
            fields.push(("id", id));
        }
        fields.push(("status", Value::str("ok")));
        fields.push(("admin", Value::str("stats")));
        fields.push(("replicas", Value::Num(self.replicas as f64)));
        fields.push(("up", Value::Num(up as f64)));
        fields.push(("hits", Value::Num(hits as f64)));
        fields.push(("misses", Value::Num(misses as f64)));
        fields.push(("entries", Value::Num(entries as f64)));
        fields.push(("backends", Value::Arr(per_backend)));
        fields.push((
            "router",
            Value::obj(vec![
                ("forwarded", Value::Num(stats.forwarded as f64)),
                ("unavailable", Value::Num(stats.unavailable as f64)),
                ("reconnects", Value::Num(stats.reconnects as f64)),
                ("failovers", Value::Num(stats.failovers as f64)),
                ("fanouts", Value::Num(stats.fanouts as f64)),
            ]),
        ));
        Value::obj(fields).write_into(out);
    }

    /// `{"admin":"reshard","add":ADDR}` / `{"admin":"reshard","remove":ADDR}`
    /// — live ring membership change, answered by the router itself.
    fn admin_reshard(&self, v: &Value, out: &mut String) {
        let id = v.get("id").cloned();
        match self.reshard(v) {
            Ok(summary) => {
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id", id));
                }
                fields.push(("status", Value::str("ok")));
                fields.push(("admin", Value::str("reshard")));
                fields.extend(summary);
                Value::obj(fields).write_into(out);
            }
            Err(msg) => MapResponse {
                id,
                body: ResponseBody::Error(msg),
            }
            .write_into(out),
        }
    }

    /// The reshard choreography: validate the membership change, build the
    /// new ring, warm the gaining backends with exactly the key ranges that
    /// move (pulled as compacted `{"admin":"handoff"}` images from the old
    /// backends and streamed as `{"admin":"absorb"}` chunks), then swap the
    /// routing view atomically.  In-flight lines drain on the old view; the
    /// next line each worker picks up routes on the new one.  Warm-up is
    /// best effort — a donor without `--persist` (or down) contributes
    /// nothing and is counted in `skipped_donors`; its moved keys recompute
    /// cold on their new owners, which is correct, just slower.
    fn reshard(&self, v: &Value) -> Result<Vec<(&'static str, Value)>, String> {
        let _serialised = self.reshard_lock.lock().unwrap_or_else(|e| e.into_inner());
        let old = self.snapshot();
        let (op, addr) = if let Some(a) = v.get("add").and_then(Value::as_str) {
            ("add", a.to_string())
        } else if let Some(a) = v.get("remove").and_then(Value::as_str) {
            ("remove", a.to_string())
        } else {
            return Err(
                "reshard needs \"add\" or \"remove\" with a backend host:port string".to_string(),
            );
        };
        let mut new_specs = old.specs.clone();
        if op == "add" {
            addr.to_socket_addrs()
                .map_err(|e| format!("backend {addr:?} does not resolve: {e}"))?;
            if new_specs.contains(&addr) {
                return Err(format!("backend {addr:?} is already in the ring"));
            }
            new_specs.push(addr.clone());
        } else {
            let Some(pos) = new_specs.iter().position(|s| *s == addr) else {
                return Err(format!("backend {addr:?} is not in the ring"));
            };
            if new_specs.len() - 1 < self.replicas {
                return Err(format!(
                    "removing {addr:?} would leave {} backends for {} replicas",
                    new_specs.len() - 1,
                    self.replicas
                ));
            }
            new_specs.remove(pos);
        }
        let new_backends = new_specs
            .iter()
            .map(|spec| match old.specs.iter().position(|s| s == spec) {
                // kept backends carry their pools and backoff state across
                Some(i) => Arc::clone(&old.backends[i]),
                None => Arc::new(Backend::new(
                    spec.clone(),
                    self.next_jitter.fetch_add(1, Ordering::Relaxed),
                )),
            })
            .collect();
        let new = Arc::new(RouterInner {
            ring: Ring::new(&new_specs),
            specs: new_specs,
            backends: new_backends,
        });
        let (moved, donors, skipped_donors, absorb_errors) = self.warm_moving_ranges(&old, &new);
        faultpoint::reach("router.ring_swap_prepared");
        *self.inner.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(&new);
        eprintln!(
            "router: reshard {op} {addr}: ring swapped to {} backends, {moved} entries moved from {donors} donors",
            new.specs.len()
        );
        Ok(vec![
            ("op", Value::str(op)),
            ("backend", Value::str(addr)),
            ("backends", Value::Num(new.specs.len() as f64)),
            ("moved_entries", Value::Num(moved as f64)),
            ("donors", Value::Num(donors as f64)),
            ("skipped_donors", Value::Num(skipped_donors as f64)),
            ("absorb_errors", Value::Num(absorb_errors as f64)),
        ])
    }

    /// Pulls a compacted handoff image from every old backend, keeps only
    /// the insert records whose replica set *gains* a backend in the new
    /// view, and streams each gaining backend its lines in bounded absorb
    /// chunks.  Returns `(entries moved, donors, skipped donors, absorb
    /// errors)`.  Records are deduplicated across donors by their exact log
    /// line (replicas of one key hold byte-identical insert records, so
    /// line identity is key identity).
    fn warm_moving_ranges(&self, old: &RouterInner, new: &RouterInner) -> (u64, u64, u64, u64) {
        let mut seen = std::collections::HashSet::new();
        let mut gained: Vec<Vec<String>> = vec![Vec::new(); new.backends.len()];
        let (mut donors, mut skipped_donors) = (0u64, 0u64);
        for backend in &old.backends {
            let image = self
                .forward(backend, "{\"admin\":\"handoff\"}")
                .ok()
                .and_then(|resp| ok_reply(&resp))
                .and_then(|r| {
                    r.get("log")
                        .and_then(Value::as_str)
                        .and_then(|log| base64_decode(log).ok())
                })
                .and_then(|bytes| String::from_utf8(bytes).ok());
            let Some(text) = image else {
                // down, or a donor running without --persist: its keys
                // recompute cold on their gaining owners
                skipped_donors += 1;
                continue;
            };
            donors += 1;
            for line in text.lines().filter(|l| !l.is_empty()) {
                let Ok(Record::Insert(key, _)) = parse_record(line) else {
                    continue;
                };
                if !seen.insert(line.to_string()) {
                    continue;
                }
                let hash = fnv1a_64(&key.routing_bytes());
                let old_owners: Vec<&String> = old
                    .ring
                    .replica_indices(hash, self.replicas)
                    .into_iter()
                    .map(|i| &old.specs[i])
                    .collect();
                for ni in new.ring.replica_indices(hash, self.replicas) {
                    if !old_owners.iter().any(|s| **s == new.specs[ni]) {
                        gained[ni].push(line.to_string());
                    }
                }
            }
        }
        let (mut moved, mut absorb_errors) = (0u64, 0u64);
        for (ni, lines) in gained.iter().enumerate() {
            let backend = &new.backends[ni];
            let mut chunk = String::new();
            let mut in_chunk = 0u64;
            for line in lines {
                if !chunk.is_empty() && chunk.len() + line.len() + 1 > ABSORB_CHUNK_BYTES {
                    match self.stream_absorb(backend, &chunk) {
                        Ok(()) => moved += in_chunk,
                        Err(()) => absorb_errors += 1,
                    }
                    chunk.clear();
                    in_chunk = 0;
                }
                chunk.push_str(line);
                chunk.push('\n');
                in_chunk += 1;
            }
            if !chunk.is_empty() {
                match self.stream_absorb(backend, &chunk) {
                    Ok(()) => moved += in_chunk,
                    Err(()) => absorb_errors += 1,
                }
            }
        }
        (moved, donors, skipped_donors, absorb_errors)
    }

    /// Streams one chunk of raw persistence-log lines into `backend` as an
    /// `{"admin":"absorb"}` line and checks it was accepted.
    fn stream_absorb(&self, backend: &Backend, chunk: &str) -> Result<(), ()> {
        self.absorb(backend, &base64_encode(chunk.as_bytes()))?;
        faultpoint::reach("router.handoff_streamed");
        Ok(())
    }
}

/// A backend's answer parsed, when it is a `"status":"ok"` line.
fn ok_reply(resp: &str) -> Option<Value> {
    Value::parse(resp)
        .ok()
        .filter(|r| r.get("status").and_then(Value::as_str) == Some("ok"))
}

/// Splits a backend's answer to a [`WRITE_THROUGH`] envelope into its log
/// `L` — base64, `""` when nothing was computed, `None` for `null` — and
/// its answer `R`, without parsing `R`: base64 holds no quote, so the first
/// quote closes `L`.  `None` for anything else.
fn split_write_through(reply: &str) -> Option<(Option<&str>, &str)> {
    let rest = reply.strip_prefix(WRITE_THROUGH_ANSWER)?;
    let (records, rest) = match rest.strip_prefix("null") {
        Some(rest) => (None, rest),
        None => {
            let (log, rest) = rest.strip_prefix('"')?.split_once('"')?;
            (Some(log), rest)
        }
    };
    let response = rest.strip_prefix(",\"response\":")?.strip_suffix('}')?;
    (response.starts_with('{') && response.ends_with('}')).then_some((records, response))
}

impl LineHandler for Router {
    /// Routes one wire line.  The `degrade` hint is ignored: the router's
    /// own per-line work is negligible, and table-stripping degradation is
    /// each backend's decision based on *its* queue depth.
    fn handle_line_into(&self, line: &str, _degrade: bool, out: &mut String) {
        let inner = self.snapshot();
        let parsed = Value::parse(line).ok();
        if let Some(v) = &parsed {
            // admin wins over batch at the top level, exactly as in
            // MappingService::handle_line_into
            if let Some(cmd) = v.get("admin") {
                match cmd.as_str() {
                    Some("stats") => return self.admin_stats(&inner, v, out),
                    Some("reshard") => return self.admin_reshard(v, out),
                    // every other admin command forwards whole below
                    _ => {}
                }
            } else if let Some(batch) = v.get("batch") {
                if let Some(items) = batch.as_arr().filter(|items| !items.is_empty()) {
                    return self.route_batch(&inner, items, out);
                }
            } else {
                // a single request: routed by canonical key, sent as the
                // raw bytes the client wrote
                return self.route_request(&inner, v, line, out);
            }
        }
        // whole-line forward: everything else (unparseable lines, empty or
        // malformed batches, admin lines) routes by the raw line bytes, and
        // the backend produces the identical response a single process
        // would, with failover across the replica set
        let targets = inner
            .ring
            .replica_indices(fnv1a_64(line.as_bytes()), self.replicas);
        match self.forward_replicated(&inner, &targets, line) {
            Ok((response, _)) => out.push_str(&response),
            Err(()) => {
                let id = parsed.as_ref().and_then(|v| v.get("id")).cloned();
                self.push_unavailable(id, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // the canonical FNV-1a test vectors
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    fn specs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn ring_lookup_is_deterministic_and_covers_all_backends() {
        let ring = Ring::new(&specs(3));
        assert_eq!(ring.len(), 3 * VNODES_PER_BACKEND);
        let mut seen = [false; 3];
        for key in 0..10_000u64 {
            let idx = ring.lookup(fnv1a_64(&key.to_le_bytes()));
            assert_eq!(
                idx,
                ring.lookup(fnv1a_64(&key.to_le_bytes())),
                "lookup must be pure"
            );
            seen[idx] = true;
        }
        assert_eq!(seen, [true; 3], "every backend owns some keys");
    }

    #[test]
    fn ring_shares_are_roughly_balanced() {
        let ring = Ring::new(&specs(4));
        let mut counts = [0usize; 4];
        for key in 0..40_000u64 {
            counts[ring.lookup(fnv1a_64(&key.to_le_bytes()))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (5_000..=15_000).contains(&c),
                "backend {i} owns {c}/40000 keys — vnode spread is broken: {counts:?}"
            );
        }
    }

    #[test]
    fn adding_a_backend_only_moves_keys_toward_it() {
        // consistent hashing's defining property: growing the ring never
        // moves a key between two pre-existing backends
        let before = Ring::new(&specs(3));
        let after = Ring::new(&specs(4));
        let mut moved = 0usize;
        for key in 0..20_000u64 {
            let hash = fnv1a_64(&key.to_le_bytes());
            let (b, a) = (before.lookup(hash), after.lookup(hash));
            if b != a {
                assert_eq!(a, 3, "key moved between pre-existing backends");
                moved += 1;
            }
        }
        assert!(
            (2_000..=8_000).contains(&moved),
            "a quarter-ish of keys should move to the new backend, moved {moved}"
        );
    }

    #[test]
    fn replica_sets_are_distinct_ordered_and_capped() {
        let ring = Ring::new(&specs(4));
        assert_eq!(ring.backend_count(), 4);
        for key in 0..5_000u64 {
            let hash = fnv1a_64(&key.to_le_bytes());
            let set = ring.replica_indices(hash, 2);
            assert_eq!(set.len(), 2);
            assert_ne!(set[0], set[1], "replicas must be distinct backends");
            assert_eq!(set[0], ring.lookup(hash), "primary must match lookup");
            // asking for more replicas only extends the set, never reorders
            let wider = ring.replica_indices(hash, 3);
            assert_eq!(wider[..2], set[..]);
            // capped at the backend count, covering every backend
            let mut all = ring.replica_indices(hash, 9);
            assert_eq!(all.len(), 4);
            all.sort_unstable();
            assert_eq!(all, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn growing_the_ring_never_moves_a_key_between_old_backends_replicated() {
        // minimal movement, extended to replica sets: after adding a
        // backend, a key's new set is a subset of (old set ∪ {new backend})
        let before = Ring::new(&specs(3));
        let after = Ring::new(&specs(4));
        let mut touched = 0usize;
        for key in 0..20_000u64 {
            let hash = fnv1a_64(&key.to_le_bytes());
            let old_set = before.replica_indices(hash, 2);
            let new_set = after.replica_indices(hash, 2);
            for idx in &new_set {
                assert!(
                    *idx == 3 || old_set.contains(idx),
                    "key {key}: replica moved between pre-existing backends \
                     ({old_set:?} -> {new_set:?})"
                );
            }
            if new_set != old_set {
                touched += 1;
            }
        }
        // the new backend takes over a quarter-ish of primary-or-secondary
        // slots; well under half of all sets may change, never more
        assert!(
            (2_000..=12_000).contains(&touched),
            "replica churn out of range: {touched}/20000 sets changed"
        );
    }

    #[test]
    fn probe_jitter_is_deterministic_and_pairwise_distinct() {
        for idx in 0..64u64 {
            assert_eq!(probe_jitter(idx), probe_jitter(idx), "must be pure");
            // disjoint 1ms intervals per index
            assert!(probe_jitter(idx) >= Duration::from_millis(idx));
            assert!(probe_jitter(idx) < Duration::from_millis(idx + 1));
        }
        for a in 0..64u64 {
            for b in (a + 1)..64 {
                assert_ne!(probe_jitter(a), probe_jitter(b));
            }
        }
    }

    #[test]
    fn two_down_backends_never_share_a_probe_instant() {
        let a = Backend::new("127.0.0.1:19101".to_string(), 0);
        let b = Backend::new("127.0.0.1:19102".to_string(), 1);
        for _ in 0..3 {
            a.mark_down();
            b.mark_down();
            let until_a = a.lock_state().down_until.unwrap();
            let until_b = b.lock_state().down_until.unwrap();
            assert_ne!(
                until_a, until_b,
                "down backends must wake staggered, never as one probe storm"
            );
        }
    }

    #[test]
    fn router_requires_backends_and_validates_specs() {
        assert!(Router::new(&[], 1, DEFAULT_ROUTE_TIMEOUT).is_err());
        assert!(Router::new(&["not a spec".to_string()], 1, DEFAULT_ROUTE_TIMEOUT).is_err());
        let r = Router::new(&specs(2), 1, DEFAULT_ROUTE_TIMEOUT).unwrap();
        assert_eq!(r.backend_specs(), specs(2));
        assert_eq!(r.stats(), RouterStats::default());
        // replica validation: bounds and distinctness
        assert!(Router::new(&specs(2), 0, DEFAULT_ROUTE_TIMEOUT).is_err());
        assert!(Router::new(&specs(2), 3, DEFAULT_ROUTE_TIMEOUT).is_err());
        let dup = vec![specs(1)[0].clone(), specs(1)[0].clone()];
        assert!(Router::new(&dup, 2, DEFAULT_ROUTE_TIMEOUT).is_err());
        assert!(Router::new(&dup, 1, DEFAULT_ROUTE_TIMEOUT).is_ok());
        let r = Router::new(&specs(3), 2, DEFAULT_ROUTE_TIMEOUT).unwrap();
        assert_eq!(r.replica_count(), 2);
        let item = Value::parse(r#"{"dims":[6,6],"nodes":4}"#).unwrap();
        let owners = r.replica_specs(&item);
        assert_eq!(owners.len(), 2);
        assert_ne!(owners[0], owners[1]);
        assert_eq!(owners[0], specs(3)[r.route_index(&item)]);
    }

    #[test]
    fn reshard_validates_membership_changes() {
        // backends are unreachable: validation errors must fire before any
        // warm-up is attempted, so these are instant
        let r = Router::new(&specs(3), 2, DEFAULT_ROUTE_TIMEOUT).unwrap();
        let reshard = |r: &Router, line: &str| {
            let mut out = String::new();
            r.handle_line_into(line, false, &mut out);
            out
        };
        let bad = [
            r#"{"admin":"reshard"}"#,
            r#"{"admin":"reshard","add":"127.0.0.1:7000"}"#,
            r#"{"admin":"reshard","add":"not a spec"}"#,
            r#"{"admin":"reshard","remove":"127.0.0.1:9999"}"#,
        ];
        for line in bad {
            assert!(
                reshard(&r, line).contains("\"status\":\"error\""),
                "{line} must be rejected"
            );
        }
        assert_eq!(r.backend_specs(), specs(3), "failed reshards must not swap");
        // removing below the replica count must be refused: two backends
        // serving two replicas cannot spare either of them
        let r2 = Router::new(&specs(2), 2, DEFAULT_ROUTE_TIMEOUT).unwrap();
        let out = reshard(
            &r2,
            r#"{"id":5,"admin":"reshard","remove":"127.0.0.1:7000"}"#,
        );
        assert!(out.starts_with("{\"id\":5,"));
        assert!(out.contains("\"status\":\"error\""));
        assert!(out.contains("1 backends for 2 replicas"));
        assert_eq!(
            r2.backend_specs(),
            specs(2),
            "failed reshards must not swap"
        );
    }

    #[test]
    fn canonically_equal_requests_route_to_the_same_backend() {
        let r = Router::new(&specs(5), 1, DEFAULT_ROUTE_TIMEOUT).unwrap();
        let a = Value::parse(r#"{"dims":[12,8],"nodes":8,"want_mapping":false}"#).unwrap();
        let b = Value::parse(r#"{"id":99,"dims":[8,12],"nodes":8}"#).unwrap();
        assert_eq!(
            r.route_index(&a),
            r.route_index(&b),
            "a permuted request (different id, different response shape) \
             must colocate with its canonical sibling"
        );
    }

    const MISS: &str =
        r#"{"id":1,"status":"ok","algorithm":"hyperplane","cached":false,"j_sum":1,"j_max":1}"#;

    /// A scripted backend serving one router connection: a write-through
    /// envelope is answered with `reply`, `{"admin":"absorb"}` with ok, and
    /// any other line with [`MISS`].  Returns every line it read once the
    /// router hangs up (or nothing, if no connection arrives within 10 s).
    fn scripted_backend(
        listener: std::net::TcpListener,
        reply: String,
    ) -> std::thread::JoinHandle<Vec<String>> {
        use std::io::BufRead;
        std::thread::spawn(move || {
            listener.set_nonblocking(true).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    Err(_) => return Vec::new(),
                }
            };
            stream.set_nonblocking(false).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut seen = Vec::new();
            for line in std::io::BufReader::new(stream)
                .lines()
                .map_while(Result::ok)
            {
                let reply = if line.starts_with(WRITE_THROUGH) {
                    reply.as_str()
                } else if line.contains("\"admin\":\"absorb\"") {
                    r#"{"status":"ok","admin":"absorb","inserted":1,"skipped":0}"#
                } else {
                    MISS
                };
                writer.write_all(format!("{reply}\n").as_bytes()).unwrap();
                seen.push(line);
            }
            seen
        })
    }

    /// Routes `line` through a `replicas`-way router over two scripted
    /// backends that answer envelopes with `reply`; returns the router's
    /// answer, the lines the serving and the other backend read, and the
    /// fan-out count.
    fn route_scripted_with(
        replicas: usize,
        line: &str,
        reply: &str,
    ) -> (String, Vec<String>, Vec<String>, u64) {
        let listeners: Vec<_> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let specs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let r = Router::new(&specs, replicas, Duration::from_secs(5)).unwrap();
        let v = Value::parse(line).unwrap();
        let item = v
            .get("batch")
            .and_then(|b| b.as_arr())
            .map_or(&v, |b| &b[0]);
        let serving = r.route_index(item);
        let backends: Vec<_> = listeners
            .into_iter()
            .map(|l| scripted_backend(l, reply.to_string()))
            .collect();
        let mut out = String::new();
        r.handle_line_into(line, false, &mut out);
        let fanouts = r.stats().fanouts;
        drop(r); // closes the pooled connections: the backends see EOF
        for spec in &specs {
            // a backend the router never dialed takes this empty
            // connection instead of waiting out its accept deadline
            drop(TcpStream::connect(spec));
        }
        let mut seen: Vec<Vec<String>> = backends.into_iter().map(|b| b.join().unwrap()).collect();
        let other = seen.remove(1 - serving);
        (out, seen.remove(0), other, fanouts)
    }

    fn route_scripted(line: &str, reply: &str) -> (String, Vec<String>, Vec<String>, u64) {
        route_scripted_with(2, line, reply)
    }

    const LINE: &str = r#"{"id":1,"dims":[12,8],"nodes":8}"#;

    fn envelope(request: &str) -> String {
        format!(r#"{{"admin":"write_through","request":{request}}}"#)
    }

    fn answer(log: &str, response: &str) -> String {
        format!(r#"{{"status":"ok","admin":"write_through","log":{log},"response":{response}}}"#)
    }

    #[test]
    fn write_through_absorbs_the_shipped_log_unchanged() {
        let (out, serving, other, fanouts) = route_scripted(LINE, &answer(r#""TE9H""#, MISS));
        assert_eq!(out, MISS, "the serving replica's answer is relayed as-is");
        assert_eq!(
            serving,
            [envelope(LINE)],
            "one round trip to the serving replica"
        );
        assert_eq!(other, [r#"{"admin":"absorb","log":"TE9H"}"#]);
        assert_eq!(fanouts, 1);
    }

    #[test]
    fn write_through_sends_the_raw_line_when_the_records_cannot_ship() {
        let (out, serving, other, fanouts) = route_scripted(LINE, &answer("null", MISS));
        assert_eq!(out, MISS);
        assert_eq!(serving, [envelope(LINE)]);
        assert_eq!(other, [LINE], "the replica computes the entry itself");
        assert_eq!(fanouts, 1);
    }

    #[test]
    fn write_through_of_a_hit_touches_no_other_replica() {
        let hit = MISS.replace("\"cached\":false", "\"cached\":true");
        let (out, serving, other, fanouts) = route_scripted(LINE, &answer(r#""""#, &hit));
        assert_eq!(out, hit);
        assert_eq!(serving, [envelope(LINE)]);
        assert!(other.is_empty(), "{other:?}");
        assert_eq!(fanouts, 0);
    }

    #[test]
    fn a_batch_item_miss_writes_through() {
        let item = r#"{"id":"a","dims":[12,8],"nodes":8}"#;
        let line = format!(r#"{{"batch":[{item}]}}"#);
        let (out, serving, other, fanouts) = route_scripted(&line, &answer(r#""TE9H""#, MISS));
        assert_eq!(out, format!(r#"{{"batch":[{MISS}]}}"#));
        assert_eq!(serving, [envelope(item)]);
        assert_eq!(other, [r#"{"admin":"absorb","log":"TE9H"}"#]);
        assert_eq!(fanouts, 1);
    }

    #[test]
    fn foreign_and_garbled_write_through_replies_are_relayed_or_unavailable() {
        // a line the backend refuses itself: its error line is the answer
        let refused = r#"{"status":"error","error":"request line exceeds the 4194304-byte limit"}"#;
        let (out, _, other, fanouts) = route_scripted(LINE, refused);
        assert_eq!(out, refused);
        assert!(other.is_empty());
        assert_eq!(fanouts, 0);
        // an envelope that does not split carries no answer
        let garbled = format!(r#"{WRITE_THROUGH_ANSWER}"TE9H","response":{MISS}"#);
        let (out, _, other, fanouts) = route_scripted(LINE, &garbled);
        assert_eq!(
            out,
            r#"{"id":1,"status":"error","error":"backend unavailable"}"#
        );
        assert!(other.is_empty());
        assert_eq!(fanouts, 0);
    }

    #[test]
    fn a_request_too_deep_or_too_long_to_wrap_writes_through_raw() {
        // nested to the parser's limit: the envelope would add a level
        let deep = format!(
            r#"{{"id":{}0{},"dims":[12,8],"nodes":8}}"#,
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        // within the envelope's length of the line limit
        let long = format!(
            r#"{{"id":"{}","dims":[12,8],"nodes":8}}"#,
            "x".repeat(MAX_LINE_BYTES - 48)
        );
        assert!(long.len() < MAX_LINE_BYTES);
        // the same request as the one item of a batch under the limit
        let batch = format!(r#"{{"batch":[{long}]}}"#);
        assert!(batch.len() < MAX_LINE_BYTES);
        for (line, sent, want) in [
            (&deep, &deep, MISS.to_string()),
            (&long, &long, MISS.to_string()),
            (&batch, &long, format!(r#"{{"batch":[{MISS}]}}"#)),
        ] {
            let (out, serving, other, fanouts) = route_scripted(line, &answer(r#""TE9H""#, MISS));
            assert_eq!(out, want);
            let sent = std::slice::from_ref(sent);
            assert_eq!(serving, sent, "forwarded raw");
            assert_eq!(other, sent, "the miss reaches the other owner");
            assert_eq!(fanouts, 1);
        }
    }

    #[test]
    fn one_owner_requests_and_batch_items_go_out_raw() {
        let (out, serving, other, fanouts) = route_scripted_with(1, LINE, MISS);
        assert_eq!(out, MISS);
        assert_eq!(serving, [LINE]);
        assert!(other.is_empty(), "{other:?}");
        assert_eq!(fanouts, 0);
        // an item's "admin" and "batch" keys stay behind: a line would
        // obey them, the batch item ignores them
        let item = r#"{"id":"a","admin":"stats","dims":[12,8],"batch":[1],"nodes":8}"#;
        let line = format!(r#"{{"batch":[{item}]}}"#);
        let (out, serving, other, fanouts) = route_scripted_with(1, &line, MISS);
        assert_eq!(out, format!(r#"{{"batch":[{MISS}]}}"#));
        assert_eq!(serving, [r#"{"id":"a","dims":[12,8],"nodes":8}"#]);
        assert!(other.is_empty(), "{other:?}");
        assert_eq!(fanouts, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A genuine write-through answer splits into its log and its
        /// answer R, whatever R's strings hold (quotes, backslashes, braces
        /// or `","response":` itself); a truncated or arbitrary reply never
        /// panics the splitter, and whatever it accepts is a consistent
        /// split of the input.  An R whose only `}` is its last byte is
        /// never accepted truncated.
        #[test]
        fn the_write_through_splitter_finds_r_and_never_panics(
            id_chars in proptest::collection::vec(0usize..12, 0..24),
            error_chars in proptest::collection::vec(0usize..12, 0..24),
            log_bytes in proptest::collection::vec(0u8..=255, 0..30),
            log_kind in 0u8..3,
            noise in proptest::collection::vec(0usize..12, 0..60),
        ) {
            const PIECES: [&str; 12] = [
                "\"", "\\", "}", "{", ",", ":", "r", "null",
                r#"","response":"#, "é", "=", WRITE_THROUGH_ANSWER,
            ];
            let text = |chars: &[usize]| chars.iter().map(|&i| PIECES[i]).collect::<String>();
            let response = MapResponse {
                id: Some(Value::str(text(&id_chars))),
                body: ResponseBody::Error(text(&error_chars)),
            };
            let mut r = String::new();
            response.write_into(&mut r);
            let log = base64_encode(&log_bytes);
            let (log_field, want) = match log_kind {
                0 => ("null".to_string(), None),
                1 => ("\"\"".to_string(), Some("")),
                _ => (format!("\"{log}\""), Some(log.as_str())),
            };
            let reply = answer(&log_field, &r);
            proptest::prop_assert_eq!(split_write_through(&reply), Some((want, r.as_str())));
            let braces = r.matches('}').count();
            let foreign = text(&noise);
            let truncations = (0..reply.len()).filter(|&k| reply.is_char_boundary(k));
            let inputs = truncations
                .map(|k| &reply[..k])
                .chain([foreign.as_str(), &reply[WRITE_THROUGH_ANSWER.len()..]]);
            for input in inputs {
                if let Some((log, rest)) = split_write_through(input) {
                    let field = log.map_or("null".to_string(), |l| format!("\"{l}\""));
                    proptest::prop_assert_eq!(answer(&field, rest), input);
                    proptest::prop_assert!(
                        braces > 1 || input.len() == reply.len(),
                        "a truncated reply was accepted: {}",
                        input
                    );
                }
            }
        }
    }

    #[test]
    fn down_backend_fails_fast_within_its_backoff_window() {
        // an unroutable-but-resolvable address: a bound-then-dropped port
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let spec = listener.local_addr().unwrap().to_string();
        drop(listener);
        let r = Router::new(&[spec], 1, Duration::from_secs(2)).unwrap();
        let mut out = String::new();
        r.handle_line_into(r#"{"id":7,"dims":[4,4],"nodes":4}"#, false, &mut out);
        assert_eq!(
            out,
            r#"{"id":7,"status":"error","error":"backend unavailable"}"#
        );
        let dials = r.stats().reconnects;
        assert!(dials >= 1);
        // inside the backoff window the second line fails fast, no new dial
        let mut out2 = String::new();
        r.handle_line_into(r#"{"id":8,"dims":[4,4],"nodes":4}"#, false, &mut out2);
        assert!(out2.contains(BACKEND_UNAVAILABLE));
        assert_eq!(
            r.stats().reconnects,
            dials,
            "fail-fast must not redial inside the backoff window"
        );
        assert_eq!(r.stats().unavailable, 2);
    }
}
