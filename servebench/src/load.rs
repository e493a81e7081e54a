//! The load generator: closed- and open-loop clients over at most two
//! connections (one thread each), recording latencies and keeping every
//! response the oracle has to look at after the timed phase.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::Rng;

use crate::workload::{conn_rng, Pick, Workload};

/// How long an answer may take before the run is declared broken.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// What the clients saw in the timed phase.
#[derive(Default)]
pub struct Capture {
    /// Request latencies in milliseconds, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Completion times, in completion order.
    pub done: Vec<Instant>,
    /// Per line: answers byte-equal to the hit form of its reference.
    pub equal: Vec<u64>,
    /// Answers that differ from their reference's hit form (misses after
    /// an eviction, or wrong answers), for the oracle.
    pub deviants: Vec<(usize, Vec<u8>)>,
    /// First answers of lines that have no reference (fresh keys), for the
    /// oracle.
    pub fresh: Vec<(usize, Vec<u8>)>,
    /// Requests sent that got no answer.
    pub unanswered: u64,
    /// Open loop only: the largest delay between a request's due time and
    /// its send.
    pub max_send_lag_ms: f64,
}

impl Capture {
    fn new(lines: usize) -> Capture {
        Capture {
            equal: vec![0; lines],
            ..Capture::default()
        }
    }

    fn record(&mut self, refs: &[Option<Vec<u8>>], line: usize, answer: &[u8]) {
        match &refs[line] {
            Some(hit) if hit.as_slice() == answer => self.equal[line] += 1,
            Some(_) => self.deviants.push((line, answer.to_vec())),
            None => self.fresh.push((line, answer.to_vec())),
        }
    }

    pub fn completed(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    fn merge(&mut self, other: Capture) {
        self.latencies_ms.extend(other.latencies_ms);
        self.done.extend(other.done);
        for (a, b) in self.equal.iter_mut().zip(other.equal) {
            *a += b;
        }
        self.deviants.extend(other.deviants);
        self.fresh.extend(other.fresh);
        self.unanswered += other.unanswered;
        self.max_send_lag_ms = self.max_send_lag_ms.max(other.max_send_lag_ms);
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("TCP_NODELAY: {e}"))?;
    Ok(stream)
}

/// Sends `lines` one at a time over one connection and returns the
/// answers, newline stripped.  Set-up warm-up.
pub fn send_sequential(addr: &str, wl: &Workload, lines: &[usize]) -> Result<Vec<Vec<u8>>, String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(ANSWER_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader =
        BufReader::with_capacity(1 << 18, stream.try_clone().map_err(|e| e.to_string())?);
    let mut answers = Vec::with_capacity(lines.len());
    for &line in lines {
        stream
            .write_all(wl.lines[line].wire.as_bytes())
            .map_err(|e| format!("warm-up write: {e}"))?;
        let mut answer = Vec::new();
        match reader.read_until(b'\n', &mut answer) {
            Ok(n) if n > 0 && answer.ends_with(b"\n") => {
                answer.pop();
                answers.push(answer);
            }
            other => return Err(format!("warm-up answer missing: {other:?}")),
        }
    }
    Ok(answers)
}

/// Closed loop over `conns` connections until `seconds` have passed (or a
/// `Pick::Fresh` range is used up).
pub fn closed_loop(
    addr: &str,
    wl: &Workload,
    refs: &[Option<Vec<u8>>],
    conns: usize,
    pick: &Pick,
    seconds: f64,
) -> Result<(Capture, Instant), String> {
    let next_fresh = AtomicUsize::new(0);
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Capture, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (conn, stream) in streams.into_iter().enumerate() {
            let next_fresh = &next_fresh;
            handles
                .push(scope.spawn(move || {
                    closed_conn(stream, wl, refs, pick, conn, deadline, next_fresh)
                }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut capture = Capture::new(wl.lines.len());
    for r in results {
        capture.merge(r?);
    }
    Ok((capture, start))
}

fn closed_conn(
    mut stream: TcpStream,
    wl: &Workload,
    refs: &[Option<Vec<u8>>],
    pick: &Pick,
    conn: usize,
    deadline: Instant,
    next_fresh: &AtomicUsize,
) -> Result<Capture, String> {
    stream
        .set_read_timeout(Some(ANSWER_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader =
        BufReader::with_capacity(1 << 18, stream.try_clone().map_err(|e| e.to_string())?);
    let mut rng = conn_rng(wl.seed, conn);
    let mut capture = Capture::new(wl.lines.len());
    let mut answer = Vec::with_capacity(1 << 16);
    while Instant::now() < deadline {
        let line = match pick {
            Pick::Uniform(range) => rng.gen_range(range.clone()),
            Pick::Fresh(range) => {
                let k = next_fresh.fetch_add(1, Ordering::Relaxed);
                if k >= range.len() {
                    break;
                }
                range.start + k
            }
        };
        let sent = Instant::now();
        if let Err(e) = stream.write_all(wl.lines[line].wire.as_bytes()) {
            return Err(format!("request write: {e}"));
        }
        answer.clear();
        match reader.read_until(b'\n', &mut answer) {
            Ok(n) if n > 0 && answer.ends_with(b"\n") => {
                let done = Instant::now();
                capture
                    .latencies_ms
                    .push(done.duration_since(sent).as_secs_f64() * 1e3);
                capture.done.push(done);
                capture.record(refs, line, &answer[..answer.len() - 1]);
            }
            _ => {
                capture.unanswered += 1;
                break;
            }
        }
    }
    Ok(capture)
}

mod ffi {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    extern "C" {
        // `ppoll(2)` from the libc std already links: unlike a socket read
        // timeout it sleeps on a high-resolution timer, so requests leave
        // on time.
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
}

/// Waits until `stream` is readable (or writable, with `want_write`) or
/// `timeout` passes.
fn wait(stream: &TcpStream, want_write: bool, timeout: Duration) {
    let mut fd = ffi::PollFd {
        fd: stream.as_raw_fd(),
        events: ffi::POLLIN | if want_write { ffi::POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = ffi::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask; the
    // pointers outlive the call.
    unsafe {
        ffi::ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Open loop: request `i` of `sequence` is due at `start + i / rate` and
/// goes out on connection `i % 2`.  Latency counts from the due time.
pub fn open_loop(
    addr: &str,
    wl: &Workload,
    refs: &[Option<Vec<u8>>],
    sequence: &[usize],
    rate: f64,
) -> Result<(Capture, Instant), String> {
    let streams: Vec<TcpStream> = (0..2).map(|_| connect(addr)).collect::<Result<_, _>>()?;
    // the first request leaves a little after both threads are up
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<Capture, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(conn, stream)| {
                scope.spawn(move || open_conn(stream, wl, refs, sequence, conn, rate, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut capture = Capture::new(wl.lines.len());
    for r in results {
        capture.merge(r?);
    }
    Ok((capture, start))
}

fn open_conn(
    mut stream: TcpStream,
    wl: &Workload,
    refs: &[Option<Vec<u8>>],
    sequence: &[usize],
    conn: usize,
    rate: f64,
    start: Instant,
) -> Result<Capture, String> {
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("non-blocking socket: {e}"))?;
    let mine: Vec<usize> = (conn..sequence.len()).step_by(2).collect();
    let due = |k: usize| start + Duration::from_secs_f64(mine[k] as f64 / rate);
    let last_due = if mine.is_empty() {
        start
    } else {
        due(mine.len() - 1)
    };
    let mut capture = Capture::new(wl.lines.len());
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 18);
    let mut scanned = 0;
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next_send, mut next_recv) = (0, 0);
    while next_recv < mine.len() {
        let now = Instant::now();
        while next_send < mine.len() && due(next_send) <= now {
            let lag = now.duration_since(due(next_send)).as_secs_f64() * 1e3;
            capture.max_send_lag_ms = capture.max_send_lag_ms.max(lag);
            out.extend_from_slice(wl.lines[sequence[mine[next_send]]].wire.as_bytes());
            next_send += 1;
        }
        if out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("request write: {e}")),
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        let mut got = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    capture.unanswered += (mine.len() - next_recv) as u64;
                    return Ok(capture);
                }
                Ok(n) => {
                    inbuf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("answer read: {e}")),
            }
        }
        if got {
            let done = Instant::now();
            let mut consumed = 0;
            // an answer can only belong to a request already sent
            while next_recv < next_send {
                let Some(pos) = inbuf[scanned..].iter().position(|&b| b == b'\n') else {
                    // a partial line: nothing left to scan until more arrives
                    scanned = inbuf.len();
                    break;
                };
                let end = scanned + pos;
                let latency = done.duration_since(due(next_recv)).as_secs_f64() * 1e3;
                capture.latencies_ms.push(latency);
                capture.done.push(done);
                capture.record(refs, sequence[mine[next_recv]], &inbuf[consumed..end]);
                next_recv += 1;
                consumed = end + 1;
                scanned = consumed;
            }
            inbuf.drain(..consumed);
            scanned -= consumed;
            continue;
        }
        if now > last_due + ANSWER_TIMEOUT {
            capture.unanswered += (mine.len() - next_recv) as u64;
            return Ok(capture);
        }
        let timeout = if next_send < mine.len() {
            due(next_send).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        if !timeout.is_zero() {
            wait(&stream, out_pos < out.len(), timeout);
        }
    }
    Ok(capture)
}
