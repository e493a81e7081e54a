//! Transport frontends: newline-delimited JSON over stdin/stdout or TCP.
//!
//! Both frontends speak the same protocol (see [`crate::protocol`]): one
//! request line in, one response line out, in order.  The stdin frontend
//! makes the service usable in pipelines and offline containers and runs
//! anywhere.  The TCP frontend (Linux: it is built on `epoll(7)`) serves
//! concurrent clients with a **fixed-size worker pool**: the accept loop
//! doubles as a dispatcher sharing one `epoll` instance with the workers.
//! Each connection is registered one-shot (`EPOLLONESHOT`); when its socket
//! turns readable the dispatcher moves it from the parked map to the run
//! queue and a worker wakes, drains the complete lines, answers them in
//! order, and re-arms the registration.  The run queue only ever holds
//! readable connections and nobody sleeps on a timer, so idle connections
//! cost zero CPU no matter how many are parked.
//!
//! A connection is only ever held by one worker at a time, which preserves
//! the per-connection response order (and therefore batch ordering and the
//! byte-identical-across-thread-counts guarantee: responses are produced by
//! the same sequential [`MappingService::handle_line`] calls as under
//! `--stdin`, so TCP transcripts are byte-identical to stdin ones).
//!
//! Both frontends frame lines through [`LineFramer`], which enforces
//! [`MAX_LINE_BYTES`] and answers invalid UTF-8 with an error response
//! instead of dropping the stream — a hostile or broken client can neither
//! balloon memory with an unterminated line nor kill the connection loop
//! with a bad byte.
//!
//! The frontends are decoupled from what answers the lines through
//! [`LineHandler`]: the same accept/park/frame machinery serves the local
//! [`MappingService`] (`--stdin`, `--listen`) and the consistent-hash
//! [`crate::router::Router`] (`--route`), which forwards each line to a
//! backend shard instead of computing.  The full request lifecycle (accept
//! → epoll park → frame → canonicalise → cache/route → serialise) is
//! documented in `docs/ARCHITECTURE.md`.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{MapResponse, ResponseBody};
use crate::service::MappingService;
use epoll::Epoll;

/// What the transport frontends serve: anything that turns one request line
/// into one response line.  Implemented by [`MappingService`] (compute or
/// answer from the local cache) and by [`crate::router::Router`] (forward to
/// a backend shard picked by consistent hashing).  Implementations must
/// append exactly one line of response JSON (without the trailing
/// newline) per call and must be callable concurrently from the worker
/// pool.
pub trait LineHandler: Send + Sync {
    /// Appends the response line for `line` (a request object or a
    /// `{"batch": […]}` wrapper) to `out`, without the trailing newline.
    /// `degrade` is the overload hint: table payloads may be stripped
    /// (flagged `"degraded":true`) to shed serialisation cost.
    fn handle_line_into(&self, line: &str, degrade: bool, out: &mut String);
}

impl LineHandler for MappingService {
    fn handle_line_into(&self, line: &str, degrade: bool, out: &mut String) {
        MappingService::handle_line_into(self, line, degrade, out)
    }
}

/// Maximum bytes of one request line (terminator excluded).  Longer lines
/// are answered with one error response and discarded; the connection stays
/// usable.  4 MiB comfortably fits every legitimate request (a 4800-entry
/// explicit stencil is ~100 KB) while bounding what one line can make the
/// server buffer.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// One framed request line, or why it cannot be served.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete, UTF-8-valid line (possibly blank).
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`] and was discarded.
    TooLong,
    /// The line was not valid UTF-8.
    BadUtf8,
}

/// Incremental newline framing with a size limit, shared by the stdin loop
/// and the TCP worker pool (which reads sockets non-blocking and therefore
/// receives lines in arbitrary chunks).
#[derive(Debug, Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    discarding: bool,
}

impl LineFramer {
    /// Creates an empty framer.
    pub fn new() -> Self {
        Self::default()
    }

    fn take_frame(&mut self) -> Frame {
        let bytes = std::mem::take(&mut self.buf);
        match String::from_utf8(bytes) {
            Ok(line) => Frame::Line(line),
            Err(_) => Frame::BadUtf8,
        }
    }

    /// Feeds `bytes`, appending every completed frame to `frames`.
    pub fn push(&mut self, bytes: &[u8], frames: &mut Vec<Frame>) {
        for &b in bytes {
            if b == b'\n' {
                if self.discarding {
                    self.discarding = false;
                    frames.push(Frame::TooLong);
                } else {
                    frames.push(self.take_frame());
                }
            } else if self.discarding {
                // swallow the rest of an overlong line
            } else {
                self.buf.push(b);
                if self.buf.len() > MAX_LINE_BYTES {
                    self.buf.clear();
                    self.buf.shrink_to_fit();
                    self.discarding = true;
                }
            }
        }
    }

    /// Signals EOF: a trailing unterminated line becomes a final frame.
    pub fn finish(&mut self, frames: &mut Vec<Frame>) {
        if self.discarding {
            self.discarding = false;
            frames.push(Frame::TooLong);
        } else if !self.buf.is_empty() {
            frames.push(self.take_frame());
        }
    }

    /// True while an unterminated line (or an overlong line still being
    /// discarded) is pending.  The TCP pool uses this to distinguish an idle
    /// keep-alive connection (no deadline) from a client that stalled
    /// mid-line (reaped after [`ServeOptions::read_timeout`]).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty() || self.discarding
    }
}

/// Appends the response line (newline-terminated) for one frame to `out`;
/// blank lines append nothing (skipped by the protocol).  A panic while
/// handling a request is caught and converted into an error response so one
/// poisoned request cannot take down the worker (and with it every
/// connection that worker would have served).
fn frame_response(service: &dyn LineHandler, frame: Frame, degrade: bool, out: &mut String) {
    fn error_line(out: &mut String, msg: &str) {
        MapResponse {
            id: None,
            body: ResponseBody::Error(msg.to_string()),
        }
        .write_into(out);
        out.push('\n');
    }
    match frame {
        Frame::Line(line) => {
            if line.trim().is_empty() {
                return;
            }
            let start = out.len();
            let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                service.handle_line_into(&line, degrade, out)
            }));
            match handled {
                Ok(()) => out.push('\n'),
                Err(_) => {
                    // discard whatever the handler managed to write before
                    // panicking so the line stays well-formed
                    out.truncate(start);
                    eprintln!("stencil-serve: request handler panicked; answering with an error");
                    error_line(out, "internal error while handling the request");
                }
            }
        }
        Frame::TooLong => error_line(
            out,
            &format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
        ),
        Frame::BadUtf8 => error_line(out, "request line is not valid UTF-8"),
    }
}

/// Serves requests from `input` to `output` until EOF.  Empty lines are
/// ignored; every request line produces exactly one response line, flushed
/// immediately so interactive pipes see answers promptly.  Overlong and
/// non-UTF-8 lines produce error responses instead of terminating the loop.
pub fn serve_io<R: Read, W: Write>(
    service: &dyn LineHandler,
    mut input: R,
    mut output: W,
) -> std::io::Result<()> {
    let mut framer = LineFramer::new();
    let mut frames = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut response = String::new();
    loop {
        let n = match input.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            framer.finish(&mut frames);
        } else {
            framer.push(&chunk[..n], &mut frames);
        }
        for frame in frames.drain(..) {
            response.clear();
            frame_response(service, frame, false, &mut response);
            if !response.is_empty() {
                output.write_all(response.as_bytes())?;
                output.flush()?;
            }
        }
        if n == 0 {
            return Ok(());
        }
    }
}

/// Serves requests from stdin to stdout until EOF (`--stdin` mode).
pub fn serve_stdin(service: &dyn LineHandler) -> std::io::Result<()> {
    serve_io(service, std::io::stdin().lock(), std::io::stdout().lock())
}

/// Tuning for the TCP frontend's overload and fault behaviour.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker-pool size (clamped to at least 1).
    pub workers: usize,
    /// Maximum simultaneously admitted connections.  A connection arriving
    /// past the limit is answered with [`OVERLOADED_LINE`] and closed
    /// immediately instead of silently queueing behind a saturated pool.
    pub max_conns: usize,
    /// How long a connection may sit with a *partial* line buffered before
    /// it is reaped (answered with [`READ_TIMEOUT_LINE`] and closed).  Idle
    /// keep-alive connections (empty framer) are never reaped — only clients
    /// that started a line and stalled mid-way, which would otherwise pin
    /// framer memory forever.
    pub read_timeout: Duration,
    /// Upper bound on how long one blocking response write may stall a
    /// worker.  Without it, `workers` clients that request large tables and
    /// never read their sockets would block every worker in `write_all`
    /// forever and stall the whole pool; with it, a reader stalled past the
    /// timeout is disconnected (a draining-but-slow reader is fine — the
    /// timer restarts with every partial write).
    pub write_timeout: Duration,
    /// Run-queue depth past which responses degrade: mapping requests that
    /// did not ask a point query are answered cost-only (no table payload,
    /// `"degraded":true`) so the saturated pool spends its cycles on answers
    /// rather than table serialisation.  `usize::MAX` disables degradation.
    pub degrade_queue: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            max_conns: 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            degrade_queue: usize::MAX,
        }
    }
}

/// The exact line written to a connection shed at admission because the
/// server is at [`ServeOptions::max_conns`].  Well-formed protocol JSON, so
/// clients can distinguish overload from a connection reset.  Defined in
/// [`crate::wire`] alongside every other transport error string; re-exported
/// here because the shed path is this module's.
pub use crate::wire::OVERLOADED_LINE;

/// [`OVERLOADED_LINE`] with its terminator, written as **one** buffered
/// `write_all` — two writes under a short timeout could leave a slow client
/// a torn, newline-less line (see `overload_lines_are_single_writes`).
use crate::wire::OVERLOADED_LINE_NL;

/// The exact line written to a connection reaped because it sat on a
/// partial request line past [`ServeOptions::read_timeout`].  Mirrors
/// [`OVERLOADED_LINE`]: the client learns why it was dropped instead of
/// seeing a bare reset.
pub use crate::wire::READ_TIMEOUT_LINE;

/// [`READ_TIMEOUT_LINE`] with its terminator (single buffered write, as
/// with [`OVERLOADED_LINE_NL`]).
use crate::wire::READ_TIMEOUT_LINE_NL;

/// Decrements the pool's live-connection count when a connection is dropped,
/// wherever that happens (worker close, deadline reap, drain).
struct LiveGuard(Arc<PoolState>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Admits one connection against [`ServeOptions::max_conns`] with a
/// compare-exchange increment loop.  The previous load-then-`fetch_add`
/// pair was a TOCTOU: two racing admissions could both pass the load at
/// `max_conns - 1` and overshoot the limit.  The loop only ever increments
/// from a value it has verified is below the limit.
fn try_admit(live: &AtomicUsize, max_conns: usize) -> bool {
    let mut current = live.load(Ordering::Relaxed);
    loop {
        if current >= max_conns {
            return false;
        }
        match live.compare_exchange_weak(current, current + 1, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => return true,
            Err(actual) => current = actual,
        }
    }
}

/// One pooled connection: its socket (non-blocking while queued) plus the
/// framing state carrying bytes between turns.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    peer: String,
    /// When the currently buffered partial line first appeared; `None`
    /// while no partial line is pending.
    partial_since: Option<Instant>,
    /// The connection's epoll token.  Tokens are never reused, so a stale
    /// event for a closed connection can never be confused with its
    /// fd-number successor.
    token: u64,
    /// Whether the fd has been `EPOLL_CTL_ADD`ed already (first park adds,
    /// later parks re-arm the existing one-shot registration).
    registered: bool,
    _live: LiveGuard,
}

/// Shared worker-pool state: the run queue of connections with pending
/// input, parked idle connections, plus overload/drain bookkeeping.
struct PoolState {
    queue: Mutex<VecDeque<Conn>>,
    ready: Condvar,
    /// Connections waiting for readiness, keyed by token.  The park/unpark
    /// lock also serialises the one-shot re-arm against the dispatcher's
    /// event lookup, so an event can never arrive "between" re-arm and
    /// insert and get lost.
    parked: Mutex<HashMap<u64, Conn>>,
    /// Admitted-and-not-yet-closed connection count, for shedding.
    live: AtomicUsize,
    /// Set when the accept loop stops: workers finish in-flight lines on
    /// queued connections, then exit instead of requeueing.
    draining: AtomicBool,
    /// The shared epoll instance.
    epoll: Epoll,
    opts: ServeOptions,
}

enum Turn {
    /// The read budget ran out with the socket still (possibly) readable;
    /// the connection goes straight back on the run queue.
    Ready,
    /// The socket was drained to `WouldBlock` (`progressed` says whether
    /// any bytes were read first); the connection is parked.
    Drained {
        /// Whether this turn read any bytes before hitting `WouldBlock`.
        progressed: bool,
    },
    /// EOF or a connection error; the connection is dropped.
    Closed,
}

/// Reads per turn before a connection is requeued, so one firehose client
/// cannot monopolise a worker while other connections wait.
const TURN_READ_BUDGET: usize = 32;

fn serve_turn(service: &dyn LineHandler, conn: &mut Conn, degrade: bool) -> Turn {
    let mut frames = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut progressed = false;
    for _ in 0..TURN_READ_BUDGET {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.framer.finish(&mut frames);
                let _ = write_responses(service, conn, &mut frames, degrade);
                return Turn::Closed;
            }
            Ok(n) => {
                conn.framer.push(&chunk[..n], &mut frames);
                progressed = true;
                if !frames.is_empty()
                    && write_responses(service, conn, &mut frames, degrade).is_err()
                {
                    return Turn::Closed;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return Turn::Drained { progressed };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("stencil-serve: {}: connection error: {e}", conn.peer);
                return Turn::Closed;
            }
        }
    }
    Turn::Ready
}

/// Answers the drained frames in order, streamed into one buffer and
/// written with a single `write_all`.  The socket is switched to blocking
/// for the write so back-pressure never corrupts the response order; the
/// per-connection [`ServeOptions::write_timeout`] bounds how long that can
/// hold the worker, so a client that stops reading is disconnected instead
/// of pinning a pool thread.
fn write_responses(
    service: &dyn LineHandler,
    conn: &mut Conn,
    frames: &mut Vec<Frame>,
    degrade: bool,
) -> std::io::Result<()> {
    let mut out = String::new();
    for frame in frames.drain(..) {
        frame_response(service, frame, degrade, &mut out);
    }
    if out.is_empty() {
        return Ok(());
    }
    conn.stream.set_nonblocking(false)?;
    let result = conn
        .stream
        .write_all(out.as_bytes())
        .and_then(|()| conn.stream.flush());
    conn.stream.set_nonblocking(true)?;
    result
}

/// Closes a connection that stalled mid-line past the read deadline,
/// answering with one well-formed [`READ_TIMEOUT_LINE`] first (single
/// buffered write, best-effort — the client may already be gone).
fn reap_stalled(mut conn: Conn) {
    eprintln!(
        "stencil-serve: {}: read deadline exceeded mid-line; dropping connection",
        conn.peer
    );
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = conn.stream.write_all(READ_TIMEOUT_LINE_NL.as_bytes());
}

/// Parks a drained connection until its socket turns readable again: the
/// one-shot registration is (re-)armed and the connection moves to the
/// parked map, both under the parked lock so the dispatcher cannot observe
/// the event before the connection is findable.  Re-arming is
/// level-triggered, so bytes that arrived while the worker held the
/// connection fire immediately.
fn park(state: &PoolState, mut conn: Conn) {
    let fd = stream_fd(&conn.stream);
    let mut parked = state.parked.lock().expect("parked map poisoned");
    let armed = if conn.registered {
        state.epoll.rearm(fd, conn.token)
    } else {
        conn.registered = true;
        state.epoll.add(fd, conn.token, true)
    };
    match armed {
        Ok(()) => {
            parked.insert(conn.token, conn);
        }
        Err(e) => {
            // dropping the connection closes the fd (and with it any epoll
            // registration)
            eprintln!("stencil-serve: {}: cannot arm readiness: {e}", conn.peer);
        }
    }
}

fn requeue(state: &PoolState, conn: Conn) {
    let mut queue = state.queue.lock().expect("pool queue poisoned");
    queue.push_back(conn);
    state.ready.notify_one();
}

fn worker_loop(service: Arc<dyn LineHandler>, state: Arc<PoolState>) {
    loop {
        let (mut conn, queue_depth) = {
            let mut queue = state.queue.lock().expect("pool queue poisoned");
            loop {
                match queue.pop_front() {
                    Some(conn) => break (conn, queue.len()),
                    None => {
                        if state.draining.load(Ordering::Acquire) {
                            return;
                        }
                        let (guard, _) = state
                            .ready
                            .wait_timeout(queue, Duration::from_millis(20))
                            .expect("pool queue poisoned");
                        queue = guard;
                    }
                }
            }
        };
        if state.draining.load(Ordering::Acquire) {
            // Finish whatever complete lines this connection already sent,
            // then close it; nothing is requeued during a drain.
            while let Turn::Ready | Turn::Drained { progressed: true } =
                serve_turn(&*service, &mut conn, false)
            {}
            continue;
        }
        let degrade = queue_depth >= state.opts.degrade_queue;
        let turn = serve_turn(&*service, &mut conn, degrade);
        if conn.framer.has_partial() {
            conn.partial_since.get_or_insert_with(Instant::now);
        } else {
            conn.partial_since = None;
        }
        match turn {
            Turn::Closed => {}
            Turn::Ready => requeue(&state, conn),
            Turn::Drained { .. } => park(&state, conn),
        }
    }
}

/// Binds `addr` and serves connections forever on a pool of `workers`
/// threads.  Prints the bound address to stderr (useful with port 0).
pub fn serve_tcp<A: ToSocketAddrs>(
    service: Arc<dyn LineHandler>,
    addr: A,
    workers: usize,
) -> std::io::Result<()> {
    serve_tcp_with(
        service,
        addr,
        ServeOptions {
            workers,
            ..ServeOptions::default()
        },
        Arc::new(AtomicBool::new(false)),
    )
}

/// Binds `addr` and serves connections with full [`ServeOptions`] control,
/// returning cleanly once `shutdown` is set (the SIGTERM drain path).
pub fn serve_tcp_with<A: ToSocketAddrs>(
    service: Arc<dyn LineHandler>,
    addr: A,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("stencil-serve: listening on {}", listener.local_addr()?);
    serve_listener_with(service, listener, opts, shutdown)
}

/// Serves connections accepted from an existing listener (split out so tests
/// can bind an ephemeral port themselves) on a pool of `workers` threads;
/// the calling thread runs the accept loop and never returns under normal
/// operation.  See [`serve_listener_with`] for overload/drain control.
pub fn serve_listener(
    service: Arc<dyn LineHandler>,
    listener: TcpListener,
    workers: usize,
) -> std::io::Result<()> {
    serve_listener_with(
        service,
        listener,
        ServeOptions {
            workers,
            ..ServeOptions::default()
        },
        Arc::new(AtomicBool::new(false)),
    )
}

/// Serves connections accepted from `listener` until `shutdown` is set.
/// Fails at once, before serving anything, when no `epoll` instance can be
/// created (the TCP frontend needs Linux).
///
/// Overload behaviour: a connection arriving while
/// [`ServeOptions::max_conns`] connections are already live is answered with
/// one [`OVERLOADED_LINE`] and closed — load is shed explicitly instead of
/// queueing unboundedly.  When the run queue is deeper than
/// [`ServeOptions::degrade_queue`], responses degrade to cost-only (flagged
/// `"degraded":true`).  A connection stalled mid-line past
/// [`ServeOptions::read_timeout`] is answered with [`READ_TIMEOUT_LINE`]
/// and closed.
///
/// Drain behaviour: once `shutdown` is observed the accept loop stops, the
/// workers finish the complete lines already received on queued connections,
/// every socket is closed, and the call returns `Ok(())` — the caller can
/// then flush and compact persistence before exiting.
pub fn serve_listener_with(
    service: Arc<dyn LineHandler>,
    listener: TcpListener,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let epoll = Epoll::new()?;
    let state = Arc::new(PoolState {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        parked: Mutex::new(HashMap::new()),
        live: AtomicUsize::new(0),
        draining: AtomicBool::new(false),
        epoll,
        opts,
    });
    let mut handles = Vec::new();
    for _ in 0..state.opts.workers.max(1) {
        let service = Arc::clone(&service);
        let state = Arc::clone(&state);
        handles.push(std::thread::spawn(move || worker_loop(service, state)));
    }
    listener.set_nonblocking(true)?;
    let result = dispatch(&state, &listener, &shutdown);
    state.draining.store(true, Ordering::Release);
    state.ready.notify_all();
    for handle in handles {
        let _ = handle.join();
    }
    // parked connections have no complete lines pending (they were drained
    // before parking); closing them is the whole drain
    state.parked.lock().expect("parked map poisoned").clear();
    result
}

/// Admits, configures and wraps one accepted connection; `None` when it was
/// shed at admission or could not be configured (the live count is already
/// balanced either way).
fn try_accept(state: &Arc<PoolState>, stream: TcpStream, peer: String, token: u64) -> Option<Conn> {
    if !try_admit(&state.live, state.opts.max_conns) {
        shed(stream, &peer);
        return None;
    }
    let live = LiveGuard(Arc::clone(state));
    // TCP_NODELAY: without it, once two answers overlap on a connection,
    // Nagle holds every later answer until the client's next request ACKs
    if let Err(e) = stream
        .set_nonblocking(true)
        .and_then(|()| stream.set_nodelay(true))
        .and_then(|()| stream.set_write_timeout(Some(state.opts.write_timeout)))
    {
        eprintln!("stencil-serve: {peer}: cannot configure socket: {e}");
        return None; // dropping `live` releases the admission slot
    }
    Some(Conn {
        stream,
        framer: LineFramer::new(),
        peer,
        partial_since: None,
        token,
        registered: false,
        _live: live,
    })
}

/// The epoll token of the listening socket (connections count from 1).
const LISTENER_TOKEN: u64 = 0;

/// The dispatcher's `epoll_wait` timeout: bounds how stale the shutdown
/// flag and the mid-line reap deadlines can get.  This is *not* a
/// per-connection poll — an idle deployment wakes one thread 20×/s total,
/// independent of connection count.
const DISPATCH_TICK_MS: i32 = 50;

/// The epoll dispatcher: the accept loop and the readiness pump in one
/// thread.  Listener events accept-drain new connections straight onto the
/// run queue; connection events unpark the connection for the workers; each
/// tick also reaps parked connections that stalled mid-line past the read
/// deadline.
fn dispatch(
    state: &Arc<PoolState>,
    listener: &TcpListener,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let epoll = &state.epoll;
    // the listener stays level-triggered (not one-shot): it keeps firing
    // until every pending connection is accepted
    epoll.add(listener_fd(listener), LISTENER_TOKEN, false)?;
    let mut events = Vec::with_capacity(256);
    let mut next_token: u64 = 1;
    while !shutdown.load(Ordering::Acquire) {
        epoll.wait(&mut events, DISPATCH_TICK_MS)?;
        for event in &events {
            let token = event.token;
            if token == LISTENER_TOKEN {
                accept_ready(state, listener, &mut next_token);
            } else {
                let unparked = state
                    .parked
                    .lock()
                    .expect("parked map poisoned")
                    .remove(&token);
                // a token already reaped (or never parked) is stale: ignore
                if let Some(conn) = unparked {
                    requeue(state, conn);
                }
            }
        }
        reap_expired(state);
    }
    Ok(())
}

/// Accepts every pending connection (the listener is level-triggered, so
/// stopping at `WouldBlock` is lossless).
fn accept_ready(state: &Arc<PoolState>, listener: &TcpListener, next_token: &mut u64) {
    loop {
        let (stream, addr) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                eprintln!("stencil-serve: accept failed: {e}");
                // persistent accept errors (e.g. EMFILE) fail instantly —
                // back off instead of busy-spinning on the level-triggered
                // listener event
                std::thread::sleep(Duration::from_millis(100));
                return;
            }
        };
        let token = *next_token;
        *next_token += 1;
        if let Some(conn) = try_accept(state, stream, addr.to_string(), token) {
            // straight to the workers: a fresh socket may already hold a
            // request, and if not the first serve turn parks it
            requeue(state, conn);
        }
    }
}

/// Reaps parked connections whose partial line outlived the read deadline.
/// Sockets are written to and closed outside the parked lock.
fn reap_expired(state: &PoolState) {
    let mut expired = Vec::new();
    {
        let mut parked = state.parked.lock().expect("parked map poisoned");
        let deadline = state.opts.read_timeout;
        let tokens: Vec<u64> = parked
            .iter()
            .filter(|(_, conn)| {
                conn.partial_since
                    .is_some_and(|since| since.elapsed() >= deadline)
            })
            .map(|(&token, _)| token)
            .collect();
        for token in tokens {
            if let Some(conn) = parked.remove(&token) {
                expired.push(conn);
            }
        }
    }
    for conn in expired {
        reap_stalled(conn);
    }
}

#[cfg(unix)]
fn stream_fd(stream: &TcpStream) -> epoll::RawFd {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(unix)]
fn listener_fd(listener: &TcpListener) -> epoll::RawFd {
    use std::os::unix::io::AsRawFd;
    listener.as_raw_fd()
}

#[cfg(not(unix))]
fn stream_fd(_stream: &TcpStream) -> epoll::RawFd {
    unreachable!("no epoll instance exists off-Linux")
}

#[cfg(not(unix))]
fn listener_fd(_listener: &TcpListener) -> epoll::RawFd {
    unreachable!("no epoll instance exists off-Linux")
}

/// Answers a connection shed at admission with one well-formed error line
/// in a single buffered write.  Best-effort: the client may already be gone.
fn shed(mut stream: TcpStream, peer: &str) {
    eprintln!("stencil-serve: {peer}: shedding connection (overloaded)");
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(OVERLOADED_LINE_NL.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    #[test]
    fn serve_io_answers_line_per_line_and_skips_blanks() {
        let service = MappingService::new(&ServiceConfig::default());
        let input = "\n{\"id\":1,\"dims\":[6,6],\"nodes\":4,\"want_mapping\":false}\n\n{bad\n";
        let mut out = Vec::new();
        serve_io(&service, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[1].contains("\"status\":\"error\""));
    }

    #[test]
    fn serve_io_answers_trailing_line_without_newline() {
        let service = MappingService::new(&ServiceConfig::default());
        let input = "{\"id\":1,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}";
        let mut out = Vec::new();
        serve_io(&service, input.as_bytes(), &mut out).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("\"status\":\"ok\""));
    }

    #[test]
    fn framer_reassembles_split_lines_and_flags_bad_input() {
        let mut framer = LineFramer::new();
        let mut frames = Vec::new();
        framer.push(b"{\"a\":", &mut frames);
        assert!(frames.is_empty(), "no frame before the newline");
        framer.push(b"1}\n\xff\xfe\n", &mut frames);
        framer.push(b"tail", &mut frames);
        framer.finish(&mut frames);
        assert_eq!(
            frames,
            vec![
                Frame::Line("{\"a\":1}".to_string()),
                Frame::BadUtf8,
                Frame::Line("tail".to_string()),
            ]
        );
    }

    #[test]
    fn framer_discards_overlong_lines_but_keeps_the_stream_usable() {
        let mut framer = LineFramer::new();
        let mut frames = Vec::new();
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..5 {
            framer.push(&chunk, &mut frames);
        }
        assert!(frames.is_empty(), "still inside the overlong line");
        framer.push(b"\n{\"ok\":1}\n", &mut frames);
        assert_eq!(
            frames,
            vec![Frame::TooLong, Frame::Line("{\"ok\":1}".to_string())]
        );
    }

    #[test]
    fn overload_and_timeout_lines_pair_with_their_single_write_forms() {
        assert_eq!(OVERLOADED_LINE_NL, format!("{OVERLOADED_LINE}\n"));
        assert_eq!(READ_TIMEOUT_LINE_NL, format!("{READ_TIMEOUT_LINE}\n"));
        // both are well-formed protocol error lines
        for line in [OVERLOADED_LINE, READ_TIMEOUT_LINE] {
            let v = crate::json::Value::parse(line).unwrap();
            assert_eq!(
                v.get("status").and_then(crate::json::Value::as_str),
                Some("error")
            );
            assert!(v.get("error").is_some());
        }
    }

    #[test]
    fn try_admit_increments_only_below_the_limit() {
        let live = AtomicUsize::new(0);
        assert!(try_admit(&live, 2));
        assert!(try_admit(&live, 2));
        assert!(!try_admit(&live, 2));
        assert_eq!(live.load(Ordering::Relaxed), 2, "no overshoot");
        live.fetch_sub(1, Ordering::AcqRel);
        assert!(try_admit(&live, 2));
        assert!(!try_admit(&live, 0), "zero limit always sheds");
    }

    #[test]
    fn try_admit_never_overshoots_under_contention() {
        // hammer admission at the boundary from many threads; the
        // compare-exchange loop must keep the count at or below the limit
        // at every instant (the old load-then-fetch_add raced here)
        const LIMIT: usize = 4;
        const THREADS: usize = 8;
        const ROUNDS: usize = 5_000;
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let live = Arc::clone(&live);
            let peak = Arc::clone(&peak);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    if try_admit(&live, LIMIT) {
                        let now = live.load(Ordering::Acquire);
                        peak.fetch_max(now, Ordering::AcqRel);
                        live.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(live.load(Ordering::Relaxed), 0);
        let peak = peak.load(Ordering::Relaxed);
        assert!(peak <= LIMIT, "admission overshot the limit: peak {peak}");
    }

    #[test]
    fn tcp_roundtrip_shares_the_cache_across_connections() {
        let service = Arc::new(MappingService::new(&ServiceConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let _ = serve_listener(service, listener, 2);
            });
        }
        let ask = |line: &str| -> String {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(line.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            BufReader::new(conn).read_line(&mut reply).unwrap();
            reply
        };
        let first = ask(r#"{"dims":[6,6],"nodes":4,"want_mapping":false}"#);
        assert!(first.contains("\"cached\":false"), "{first}");
        let second = ask(r#"{"dims":[6,6],"nodes":4,"want_mapping":false}"#);
        assert!(second.contains("\"cached\":true"), "{second}");
        assert_eq!(service.cache_stats().len, 1);
    }
}
