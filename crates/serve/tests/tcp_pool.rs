//! Real-socket tests of the TCP worker pool: more clients than workers,
//! interleaved and pipelined requests, per-connection response order.
//!
//! PR 3's loadgen and smoke step only exercised the service in-process or
//! over stdin; these tests drive actual `TcpStream`s against
//! `serve_listener_with` so the frontend's readiness machinery (epoll
//! parking, non-blocking reads, blocking writes) is what serves the bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stencil_serve::json::Value;
use stencil_serve::server::{serve_listener_with, LineHandler, ServeOptions};
use stencil_serve::service::{MappingService, ServiceConfig};

/// Binds an ephemeral port and serves it with the given options.
fn start_server(opts: ServeOptions) -> (Arc<MappingService>, std::net::SocketAddr) {
    let service = Arc::new(MappingService::new(&ServiceConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _ = serve_listener_with(service, listener, opts, Arc::new(AtomicBool::new(false)));
        });
    }
    (service, addr)
}

fn pool_opts(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        ..ServeOptions::default()
    }
}

/// Twelve clients on a two-worker pool, requests interleaved round-robin
/// across the connections (one request per client per round, responses
/// read *after* all writes of the round), so connections outnumber worker
/// threads 6x and every connection is mid-stream while others are served.
/// Each client must see exactly its own responses, in its own send order.
#[test]
fn more_clients_than_workers_interleaved_requests_keep_per_connection_order() {
    const CLIENTS: usize = 12;
    const WORKERS: usize = 2;
    const ROUNDS: usize = 8;
    let (_service, addr) = start_server(pool_opts(WORKERS));

    let mut conns: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let mut readers: Vec<BufReader<TcpStream>> = conns
        .iter()
        .map(|c| BufReader::new(c.try_clone().unwrap()))
        .collect();

    for round in 0..ROUNDS {
        // interleave writes: every client sends one request before any
        // response of this round is read
        for (client, conn) in conns.iter_mut().enumerate() {
            let id = round * CLIENTS + client;
            // vary the instance per client so hits and misses interleave
            let nodes = 2 + (client % 3) * 2;
            let line = format!(
                "{{\"id\":{id},\"dims\":[{nodes},6],\"nodes\":{nodes},\"want_mapping\":false}}\n"
            );
            conn.write_all(line.as_bytes()).unwrap();
        }
        for (client, reader) in readers.iter_mut().enumerate() {
            let id = round * CLIENTS + client;
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let v = Value::parse(reply.trim_end()).unwrap();
            assert_eq!(
                v.get("id").and_then(Value::as_usize),
                Some(id),
                "client {client} round {round} got someone \
                 else's response: {reply}"
            );
            assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        }
    }
}

/// One connection pipelines a burst of requests (including a batch and an
/// error) without reading; the responses must come back 1:1 in order.
#[test]
fn pipelined_burst_on_one_connection_answers_in_order() {
    let (_service, addr) = start_server(pool_opts(2));
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    for id in 0..20 {
        burst.push_str(&format!(
            "{{\"id\":{id},\"dims\":[6,4],\"nodes\":4,\"want_mapping\":false}}\n"
        ));
    }
    burst.push_str("{\"batch\":[{\"id\":\"x\",\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false},{\"id\":\"y\",\"dims\":[3,3]}]}\n");
    burst.push_str("{broken\n");
    conn.write_all(burst.as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();

    let reader = BufReader::new(conn);
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 22);
    for (id, line) in lines[..20].iter().enumerate() {
        let v = Value::parse(line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_usize), Some(id), "{line}");
    }
    let batch = Value::parse(&lines[20]).unwrap();
    let items = batch.get("batch").and_then(Value::as_arr).unwrap();
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].get("id").and_then(Value::as_str), Some("x"));
    assert_eq!(
        items[1].get("status").and_then(Value::as_str),
        Some("error")
    );
    assert!(lines[21].contains("\"status\":\"error\""));
}

/// A request split into tiny TCP writes (including a mid-line pause) must
/// still be framed into one request; a second connection making progress in
/// the meantime proves the pool is not blocked on the dribbling client.
#[test]
fn slow_dribbling_client_does_not_block_the_pool() {
    let (_service, addr) = start_server(pool_opts(1)); // a single worker, even
    let mut slow = TcpStream::connect(addr).unwrap();
    let line = b"{\"id\":7,\"dims\":[6,4],\"nodes\":4,\"want_mapping\":false}\n";
    let (head, tail) = line.split_at(10);
    slow.write_all(head).unwrap();
    slow.flush().unwrap();

    // while the slow client's line is incomplete, a fast client is served
    let mut fast = TcpStream::connect(addr).unwrap();
    fast.write_all(b"{\"id\":1,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n")
        .unwrap();
    let mut fast_reply = String::new();
    BufReader::new(fast.try_clone().unwrap())
        .read_line(&mut fast_reply)
        .unwrap();
    assert!(fast_reply.contains("\"id\":1"), "{fast_reply}");

    slow.write_all(tail).unwrap();
    let mut slow_reply = String::new();
    BufReader::new(slow.try_clone().unwrap())
        .read_line(&mut slow_reply)
        .unwrap();
    assert!(slow_reply.contains("\"id\":7"), "{slow_reply}");
}

/// Connections closed abruptly (mid-line, or right after connecting) must
/// not take a worker down; later clients are still served.
#[test]
fn abrupt_disconnects_leave_the_pool_healthy() {
    let (_service, addr) = start_server(pool_opts(2));
    for _ in 0..8 {
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"{\"half\":").unwrap();
        drop(c); // vanish mid-line
        let c2 = TcpStream::connect(addr).unwrap();
        drop(c2); // vanish without a byte
    }
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"{\"id\":9,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"id\":9"), "{reply}");
}

/// `ESTABLISHED` in the `st` column of `/proc/net/tcp`.
const TCP_ESTABLISHED: u8 = 0x01;

/// The TCP state of the server's end of the loopback connection between
/// `server_port` and the client's `client_port`, read from `/proc/net/tcp`
/// (the TCP frontend is Linux-only); `None` once the socket is gone.
fn server_side_state(server_port: u16, client_port: u16) -> Option<u8> {
    let table = std::fs::read_to_string("/proc/net/tcp").unwrap();
    let port = |addr: &str| u16::from_str_radix(addr.rsplit(':').next()?, 16).ok();
    table.lines().skip(1).find_map(|row| {
        // sl local_address rem_address st ...
        let fields: Vec<&str> = row.split_whitespace().collect();
        let (local, remote, state) = (fields.get(1)?, fields.get(2)?, fields.get(3)?);
        if port(local)? == server_port && port(remote)? == client_port {
            u8::from_str_radix(state, 16).ok()
        } else {
            None
        }
    })
}

/// A client that pipelines large responses and stops reading stalls
/// the server's blocking `write_all`; once [`ServeOptions::write_timeout`]
/// expires the connection must be torn down — whatever bytes made it out are
/// well-formed lines (plus at most one torn tail), EOF follows, and the
/// socket never serves a later request — while the pool stays healthy for
/// other clients.
#[test]
fn write_timeout_tears_down_a_client_that_stops_reading() {
    let (_service, addr) = start_server(ServeOptions {
        workers: 2,
        write_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    // ~260 KiB of compact node table per response, ~16 MiB across all
    // 60.  Two sizing constraints, both learned the hard way:
    //
    // * The total must overrun what the kernel will buffer for a
    //   receiver that never reads: the server's send buffer plus the
    //   client's *initial* receive buffer (TCP auto-tuning only grows
    //   it for a reading peer) — measured ~3-4 MiB on loopback here.
    //   16 MiB leaves a ~4x margin.
    // * Responses must be cheap to *produce*, so the batch reaches the
    //   blocked write quickly.  Compact tables are memoised on the cache
    //   entry (generation is a memcpy); verbose tables are re-serialised
    //   per response.
    let request = "{\"dims\":[500,400],\"nodes\":100,\"encoding\":\"compact\"}\n";

    // Warm the cache on a well-behaved connection first so the stuck
    // connection's responses are all memoised hits (no multi-second
    // cold compute on the stuck path).
    {
        let mut warm = TcpStream::connect(addr).unwrap();
        warm.write_all(request.as_bytes()).unwrap();
        let mut line = String::new();
        BufReader::new(warm).read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"ok\""), "{line}");
    }

    let mut stuck = TcpStream::connect(addr).unwrap();
    for _ in 0..60 {
        stuck.write_all(request.as_bytes()).unwrap();
    }
    // Do not read: the server's write_all must block and then time out.
    // Draining before the server has closed its end would reopen the
    // window and rescue the blocked write, so wait (bounded) until the
    // server's socket for this client leaves ESTABLISHED.
    let client_port = stuck.local_addr().unwrap().port();
    let deadline = Instant::now() + Duration::from_secs(20);
    while server_side_state(addr.port(), client_port) == Some(TCP_ESTABLISHED) {
        assert!(
            Instant::now() < deadline,
            "the server's end is still open after 20 s — the write never timed out"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // drain what did make it out: every complete line is well formed,
    // nothing valid follows a torn tail, and the stream ends in EOF
    stuck
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stuck.read(&mut chunk) {
            Ok(0) => break, // EOF: the server closed the connection
            Ok(n) => received.extend_from_slice(&chunk[..n]),
            // A reset is also a valid teardown signal: dropping the
            // connection with bytes still queued can surface as RST.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("expected EOF after write timeout, got {e}"),
        }
    }
    let text = String::from_utf8(received).unwrap();
    let mut parts = text.split('\n');
    let torn_tail = parts.next_back().unwrap(); // after the last '\n'
    let complete = parts.collect::<Vec<_>>();
    assert!(
        complete.len() < 60,
        "all 60 responses arrived — the write never timed out"
    );
    for line in &complete {
        assert!(
            Value::parse(line).is_ok(),
            "torn line followed by more output: {:?}",
            &line[..line.len().min(120)]
        );
    }
    let _ = torn_tail; // a torn tail is fine — it is the final bytes

    // the torn-down socket never serves a later request: a fresh write
    // either fails outright or is answered only by EOF
    let mut after = String::new();
    if stuck.write_all(request.as_bytes()).is_ok() {
        let n = stuck.read(&mut chunk).unwrap_or(0);
        after = String::from_utf8_lossy(&chunk[..n]).into_owned();
    }
    assert!(
        after.is_empty(),
        "a closed connection served a request: {after:?}"
    );

    // the pool is healthy: a fresh client is served promptly
    let mut fresh = TcpStream::connect(addr).unwrap();
    fresh
        .write_all(b"{\"id\":1,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(fresh).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
}

/// Pipelined answers of several MiB, read slowly: the worker writes what
/// the socket takes without blocking, then the remainder in blocking mode
/// while the client sleeps between reads.  Every byte must arrive, equal
/// to the same lines' in-process answers, and the socket must be
/// non-blocking again afterwards: on a one-worker pool a second client is
/// served only if the worker's next read on the first connection returns.
#[test]
fn slowly_read_pipelined_answers_arrive_whole() {
    let (_service, addr) = start_server(pool_opts(1));
    // 240 000 node ids below 100 per table: ~0.7 MB verbose, ~0.3 MB
    // compact, in the canonical and a permuted dimension order
    let lines: Vec<String> = [
        r#""dims":[400,600]"#,
        r#""dims":[600,400]"#,
        r#""dims":[600,400],"encoding":"compact""#,
        r#""dims":[400,600],"encoding":"compact""#,
    ]
    .iter()
    .cycle()
    .take(10)
    .enumerate()
    .map(|(id, fields)| format!(r#"{{"id":{id},{fields},"nodes":100}}"#))
    .collect();
    let reference = MappingService::new(&ServiceConfig::default());
    let mut want = String::new();
    for line in &lines {
        reference.handle_line_into(line, false, &mut want);
        want.push('\n');
    }
    assert!(want.len() > 4 << 20, "{} B of answers", want.len());

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all((lines.join("\n") + "\n").as_bytes())
        .unwrap();
    let mut got = Vec::with_capacity(want.len());
    let mut chunk = [0u8; 32 * 1024];
    while got.len() < want.len() {
        std::thread::sleep(Duration::from_millis(1));
        let n = conn.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF after {} of {} B", got.len(), want.len());
        got.extend_from_slice(&chunk[..n]);
    }
    assert!(
        got == want.as_bytes(),
        "the answers differ from the in-process ones"
    );

    let mut other = TcpStream::connect(addr).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    other
        .write_all(b"{\"id\":1,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(other).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
}

/// A handler that blocks a worker on a `hold` line until released and
/// answers every other line with the `degrade` flag it was called with.
struct Holder {
    held: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl LineHandler for Holder {
    fn handle_line_into(&self, line: &str, degrade: bool, out: &mut String) {
        if line == "hold" {
            self.held.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            out.push_str("released");
        } else {
            out.push_str(if degrade { "degraded" } else { "full" });
        }
    }
}

fn send_line(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

/// A pool serving [`Holder`] with `opts`: its address, shutdown flag and
/// serving thread, plus the channels that report and release a hold.
struct HeldPool {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    server: std::thread::JoinHandle<std::io::Result<()>>,
    held: Receiver<()>,
    release: Sender<()>,
}

fn start_holder(opts: ServeOptions) -> HeldPool {
    let (held_tx, held) = channel();
    let (release, release_rx) = channel();
    let holder = Arc::new(Holder {
        held: Mutex::new(held_tx),
        release: Mutex::new(release_rx),
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let server = std::thread::spawn(move || serve_listener_with(holder, listener, opts, flag));
    HeldPool {
        addr,
        shutdown,
        server,
        held,
        release,
    }
}

/// Runs one `hold` on a two-worker pool with the given `degrade_queue` and
/// returns what a probe line on another connection sees while the hold
/// lasts, and what a probe sees after the release.
fn probe_around_a_hold(degrade_queue: usize) -> (String, String) {
    let pool = start_holder(ServeOptions {
        workers: 2,
        degrade_queue,
        ..ServeOptions::default()
    });
    let mut holding = TcpStream::connect(pool.addr).unwrap();
    let mut holding_reader = BufReader::new(holding.try_clone().unwrap());
    holding.write_all(b"hold\n").unwrap();
    pool.held.recv().unwrap(); // one worker is now inside its serve turn

    let mut probe = TcpStream::connect(pool.addr).unwrap();
    let mut probe_reader = BufReader::new(probe.try_clone().unwrap());
    let during = send_line(&mut probe, &mut probe_reader, "probe");

    pool.release.send(()).unwrap();
    let mut released = String::new();
    holding_reader.read_line(&mut released).unwrap();
    assert_eq!(released, "released\n");
    // the held connection is re-armed only after its worker has left the
    // turn, so a probe on it cannot count that worker as busy
    let after = send_line(&mut holding, &mut holding_reader, "probe");

    pool.shutdown.store(true, Ordering::Release);
    drop((holding, holding_reader, probe, probe_reader));
    pool.server.join().unwrap().unwrap();
    (during, after)
}

/// `degrade_queue` counts the *other* workers inside a serve turn: with
/// two workers and a limit of 1, a line served while the other worker is
/// held degrades; with a limit of 2 it cannot, and after the release
/// neither does.  A limit of 0 always degrades.
#[test]
fn lines_served_while_other_workers_are_busy_degrade() {
    assert_eq!(
        probe_around_a_hold(0),
        ("degraded".to_string(), "degraded".to_string())
    );
    assert_eq!(
        probe_around_a_hold(1),
        ("degraded".to_string(), "full".to_string())
    );
    assert_eq!(
        probe_around_a_hold(2),
        ("full".to_string(), "full".to_string())
    );
}

/// A line that arrives after the drain has begun, on a connection admitted
/// before it, is still answered: the only worker is held while the
/// shutdown flag is set, the line is sent once the accept loop has had time
/// to write the wake byte (so its event usually queues behind the wake and
/// the drain serves it; if not, the worker serves it before it sees the
/// wake), and then the hold is released.
#[test]
fn drain_answers_lines_that_arrive_while_the_workers_are_busy() {
    let pool = start_holder(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut late = TcpStream::connect(pool.addr).unwrap();
    let mut late_reader = BufReader::new(late.try_clone().unwrap());
    assert_eq!(send_line(&mut late, &mut late_reader, "probe"), "full");
    let mut holding = TcpStream::connect(pool.addr).unwrap();
    let mut holding_reader = BufReader::new(holding.try_clone().unwrap());
    holding.write_all(b"hold\n").unwrap();
    pool.held.recv().unwrap();

    pool.shutdown.store(true, Ordering::Release);
    // the accept loop notices the flag within its 50 ms tick
    std::thread::sleep(Duration::from_millis(300));
    late.write_all(b"probe\n").unwrap();
    pool.release.send(()).unwrap();

    let mut released = String::new();
    holding_reader.read_line(&mut released).unwrap();
    assert_eq!(released, "released\n");
    // an unanswered line is closed with its bytes unread: EOF or a reset
    let mut answer = String::new();
    let _ = late_reader.read_line(&mut answer);
    assert_eq!(answer, "full\n", "the drain must answer the late line");
    pool.server.join().unwrap().unwrap();
}
