//! Emits `BENCH_serve.json` — the perf-trajectory baseline of the caching
//! mapping service: throughput and latency percentiles of synthetic request
//! mixes replayed against an in-process [`MappingService`].
//!
//! ```text
//! cargo run --release -p stencil-bench --bin loadgen -- [--quick] [--out BENCH_serve.json]
//! ```
//!
//! The replayed mixes (all deterministic):
//!
//! * **cache_hit** — one cold p = 4800 VieM-style (multilevel) request, then
//!   the same request repeated: every repeat is a canonical cache hit,
//!   served without touching the engine.  The cold-vs-hit ratio is the
//!   headline number of the service.
//! * **cache_hit_compact** — the same hit stream with
//!   `"encoding":"compact"`: the node table rides as one base64
//!   delta-varint string instead of a 4800-element JSON array.
//! * **cache_hit_nomap** — the same hit stream with `want_mapping: false`
//!   (cost-only responses).
//! * **new_rank_of** — point lookups (`"query":"new_rank_of"`) against the
//!   warm entry: the response carries three nodes, not 4800.
//! * **cache_miss** — a sweep of distinct instances (every request a miss),
//!   measuring the engine + cache-insert path.
//! * **mixed** — 90% hits / 10% misses interleaved, the shape "Mapping
//!   Matters" reports for recurring job configurations.
//! * **batch** — `{"batch": […]}` lines of hit requests, measuring the
//!   batched path (in-order per-item processing, one parse/serialise per
//!   line).
//! * **persistence** — the p = 4800 entry plus a 255-entry fleet are
//!   computed into a persisted service, the service restarted, and the
//!   request re-issued: the restart must answer it as a cache hit (no
//!   recomputation), and the reload throughput (entries/s replayed from the
//!   log) is a gated metric.
//! * **write_amplification** — sustained recency-changing hit traffic
//!   against a persisted service with a small online-compaction threshold:
//!   reports how many records and flushes the traffic cost and proves the
//!   log stayed bounded across compaction cycles.
//! * **tcp_hit / routed_hit / routed_replica_hit** — the p = 4800
//!   cost-only hit stream replayed over real TCP: once against a single
//!   `stencil-serve --listen` process, once through `stencil-serve
//!   --route` fronting two backend processes, and once through a
//!   `--replicas 2` router fronting three backends (every miss written
//!   through to both replicas, reads from the primary).
//!   Requests are pipelined on one connection for the throughput number; a
//!   sequential round-trip pass supplies the latency percentiles.  These
//!   sections spawn the real server binary — build it first
//!   (`cargo build --release -p stencil-serve`), point at another build
//!   with `--serve-bin PATH`, or skip them with `--no-route`.
//!
//! With `--flood ADDR` the binary instead acts as the overload smoke
//! client: it opens `--conns N` simultaneous TCP connections against a
//! running `stencil-serve --listen` and verifies that excess connections
//! are shed with the well-formed, newline-terminated overloaded error line
//! while admitted ones are served.
//!
//! With `--send ADDR` it is a transcript replay client: request lines are
//! read from stdin, pipelined over one TCP connection, and the response
//! lines are echoed to stdout 1:1 — CI uses this to prove the TCP frontend
//! answers a request file byte-identically to `--stdin` mode.
//!
//! With `--idle ADDR --pid P` it is the idle-cost smoke client: it parks
//! `--conns N` keep-alive connections (each proven live with one request
//! first) against a running server, then samples the server's CPU time from
//! `/proc/P/stat` over `--secs S` and fails if the idle fleet cost more
//! than `--cpu-budget` seconds of CPU — the epoll frontend's "idle
//! connections cost zero" guarantee, checked against the real binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cluster_sim::stats::{median, quantile};
use stencil_serve::json::Value;
use stencil_serve::service::{MappingService, ServiceConfig};

/// Replays `lines` one by one, asserting every response line succeeds, and
/// returns the per-line latencies in seconds (in replay order).
fn replay(service: &MappingService, lines: &[String]) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(lines.len());
    for line in lines {
        let start = Instant::now();
        let response = service.handle_line(line);
        latencies.push(start.elapsed().as_secs_f64());
        assert!(
            !response.contains("\"status\":\"error\""),
            "loadgen request failed: {line} -> {response}"
        );
        std::hint::black_box(&response);
    }
    latencies
}

/// Summarises one mix as a flat JSON section.  `p50_s` and `p99_s` are
/// linearly interpolated quantiles ([`cluster_sim::stats::quantile`]).
fn section(latencies: &[f64], extra: Vec<(&str, Value)>) -> Value {
    let total: f64 = latencies.iter().sum();
    let mut fields = vec![
        ("requests", Value::Num(latencies.len() as f64)),
        ("throughput_rps", Value::Num(latencies.len() as f64 / total)),
        ("p50_s", Value::Num(median(latencies))),
        ("p99_s", Value::Num(quantile(latencies, 0.99))),
        ("total_s", Value::Num(total)),
    ];
    fields.extend(extra);
    Value::obj(fields)
}

/// Overload smoke client: holds `conns` simultaneous connections against a
/// live server, writes one request per connection, and classifies the first
/// response line of each.  With more connections than the server's
/// `--max-conns` this must observe both served and shed connections.
fn flood(addr: &str, conns: usize) -> i32 {
    let request = "{\"dims\":[12,8],\"nodes\":8,\"want_mapping\":false}\n";
    let mut streams = Vec::with_capacity(conns);
    for i in 0..conns {
        match TcpStream::connect(addr) {
            Ok(s) => streams.push(s),
            Err(e) => {
                eprintln!("flood: connect {i} to {addr} failed: {e}");
                break;
            }
        }
    }
    let (mut served, mut shed, mut torn, mut dead) = (0usize, 0usize, 0usize, 0usize);
    for stream in &mut streams {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        // A shed connection may already be closed server-side; the write can
        // fail with EPIPE while the overloaded line is still readable.
        let _ = stream.write_all(request.as_bytes());
        let mut line = String::new();
        let mut reader = BufReader::new(&mut *stream);
        match reader.read_line(&mut line) {
            // every shed line must arrive whole: newline-terminated, in one
            // piece (the server writes it as a single buffered write)
            Ok(n) if n > 0 && line.contains("\"error\":\"overloaded\"") => {
                if line.ends_with('\n') {
                    shed += 1;
                } else {
                    eprintln!("flood: torn shed line (no trailing newline): {line:?}");
                    torn += 1;
                }
            }
            Ok(n) if n > 0 && line.contains("\"status\":\"ok\"") => served += 1,
            _ => dead += 1,
        }
    }
    eprintln!(
        "flood: {} connections -> {served} served, {shed} shed, {torn} torn, {dead} dead",
        streams.len()
    );
    println!(
        "{{\"connections\":{},\"served\":{served},\"shed\":{shed},\"torn\":{torn},\"dead\":{dead}}}",
        streams.len()
    );
    if torn > 0 {
        eprintln!("flood: FAILED — shed lines must be newline-terminated");
        return 1;
    }
    if served == 0 || shed == 0 {
        eprintln!("flood: FAILED — expected both served and shed connections");
        return 1;
    }
    0
}

/// Transcript replay client: pipelines every stdin line over one TCP
/// connection and echoes exactly one response line per request line to
/// stdout.  Blank lines and `#` comments are skipped (matching the golden
/// transcript format); the server answers every other line — malformed
/// ones with an error line — so the mapping stays 1:1.
fn send(addr: &str) -> i32 {
    let mut input = String::new();
    if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut input) {
        eprintln!("send: reading stdin: {e}");
        return 1;
    }
    let requests: Vec<&str> = input
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .collect();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("send: connect to {addr} failed: {e}");
            return 1;
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    for line in &requests {
        if let Err(e) = stream.write_all(format!("{line}\n").as_bytes()) {
            eprintln!("send: write failed: {e}");
            return 1;
        }
    }
    let mut reader = BufReader::new(&mut stream);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for i in 0..requests.len() {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                if out.write_all(line.as_bytes()).is_err() {
                    return 1;
                }
            }
            other => {
                eprintln!(
                    "send: response {} of {} missing: {other:?}",
                    i + 1,
                    requests.len()
                );
                return 1;
            }
        }
    }
    0
}

/// A spawned `stencil-serve` process and the address it bound, for the
/// TCP-path sections.  Killed on drop.
struct ServeProc {
    child: std::process::Child,
    addr: String,
}

impl ServeProc {
    /// Spawns `bin` with `--listen 127.0.0.1:0` plus `extra_args` and waits
    /// for the "listening on" banner on stderr.  The rest of stderr drains
    /// in a background thread so the child can never block on the pipe.
    fn spawn(bin: &str, extra_args: &[&str]) -> Result<ServeProc, String> {
        let mut child = std::process::Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {bin}: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(0) => return Err(format!("{bin} exited before printing its address")),
                Ok(_) => {
                    if let Some(rest) = line.trim_end().split("listening on ").nth(1) {
                        break rest.to_string();
                    }
                }
                Err(e) => return Err(format!("reading {bin} stderr: {e}")),
            }
        };
        std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut stderr, &mut rest);
        });
        Ok(ServeProc { child, addr })
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pipelines `count` copies of `line` over one connection to `addr`
/// (writer thread; responses read on the caller) and returns the wall time
/// for the whole window.  Every response must be an `"ok"` line.
fn tcp_pipeline(addr: &str, line: &str, count: usize) -> Result<f64, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let payload = format!("{line}\n");
    let start = Instant::now();
    let w = std::thread::spawn(move || -> Result<(), String> {
        for _ in 0..count {
            writer
                .write_all(payload.as_bytes())
                .map_err(|e| format!("pipelined write: {e}"))?;
        }
        Ok(())
    });
    let mut reader = BufReader::new(stream);
    for i in 0..count {
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {
                if !reply.contains("\"status\":\"ok\"") {
                    return Err(format!("pipelined response {i}: {reply}"));
                }
            }
            other => return Err(format!("pipelined response {i} missing: {other:?}")),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    w.join().unwrap()?;
    Ok(wall)
}

/// Sequential round-trip latencies of `count` copies of `line` (one
/// in-flight request at a time), for the percentile columns.
fn tcp_roundtrips(addr: &str, line: &str, count: usize) -> Result<Vec<f64>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let payload = format!("{line}\n");
    let mut latencies = Vec::with_capacity(count);
    for i in 0..count {
        let start = Instant::now();
        stream
            .write_all(payload.as_bytes())
            .map_err(|e| format!("round-trip write {i}: {e}"))?;
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 && reply.contains("\"status\":\"ok\"") => {
                latencies.push(start.elapsed().as_secs_f64());
            }
            other => {
                return Err(format!(
                    "round-trip response {i} failed: {other:?} {reply:?}"
                ))
            }
        }
    }
    Ok(latencies)
}

/// One TCP section (`tcp_hit` or `routed_hit`): pipelined throughput plus
/// sequential-round-trip percentiles of the p = 4800 cost-only hit stream.
fn tcp_section(
    addr: &str,
    line: &str,
    pipelined: usize,
    roundtrips: usize,
    extra: Vec<(&str, Value)>,
) -> Result<Value, String> {
    // one request warms the entry (and proves the path end to end)
    let first = tcp_roundtrips(addr, line, 1)?;
    drop(first);
    let wall = tcp_pipeline(addr, line, pipelined)?;
    let latencies = tcp_roundtrips(addr, line, roundtrips)?;
    let mut fields = vec![
        ("requests", Value::Num(pipelined as f64)),
        ("throughput_rps", Value::Num(pipelined as f64 / wall)),
        ("p50_s", Value::Num(median(&latencies))),
        ("p99_s", Value::Num(quantile(&latencies, 0.99))),
        ("total_s", Value::Num(wall)),
    ];
    fields.extend(extra);
    Ok(Value::obj(fields))
}

/// Total CPU time (user + system) of `pid` in clock ticks, read from
/// `/proc/<pid>/stat`.  The command name (field 2) may itself contain
/// spaces, so fields are counted from the closing parenthesis.
fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // stat(5): utime and stime are fields 14 and 15 (1-based); the slice
    // after ')' starts at field 3 (state)
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Idle-cost smoke client: parks `conns` proven-live keep-alive connections
/// against a running server and asserts the server's CPU time over `secs`
/// stays within `cpu_budget` seconds.  The epoll frontend parks the silent
/// fleet until a socket turns readable, so it should cost nothing; any
/// per-connection polling would show up here.
fn idle(addr: &str, conns: usize, pid: u32, secs: f64, cpu_budget: f64) -> i32 {
    let request = "{\"dims\":[12,8],\"nodes\":8,\"want_mapping\":false}\n";
    let mut streams = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("idle: connect {i} to {addr} failed: {e}");
                return 1;
            }
        };
        // one served request proves the connection is admitted and live
        // before it goes idle
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        if stream.write_all(request.as_bytes()).is_err() {
            eprintln!("idle: connection {i} rejected its warmup request");
            return 1;
        }
        let mut line = String::new();
        match BufReader::new(&mut stream).read_line(&mut line) {
            Ok(n) if n > 0 && line.contains("\"status\":\"ok\"") => {}
            other => {
                eprintln!("idle: connection {i} warmup failed: {other:?} {line:?}");
                return 1;
            }
        }
        streams.push(stream);
    }
    // let the server park the now-silent fleet before sampling
    std::thread::sleep(Duration::from_millis(300));
    let Some(before) = cpu_ticks(pid) else {
        eprintln!("idle: cannot read /proc/{pid}/stat (Linux only)");
        return 1;
    };
    std::thread::sleep(Duration::from_secs_f64(secs));
    let Some(after) = cpu_ticks(pid) else {
        eprintln!("idle: server {pid} vanished mid-measurement");
        return 1;
    };
    // CLK_TCK is 100 on every Linux configuration this repo targets
    let cpu_s = (after - before) as f64 / 100.0;
    eprintln!(
        "idle: {} idle connections for {secs}s -> {cpu_s:.3}s server CPU \
         (budget {cpu_budget}s)",
        streams.len()
    );
    println!(
        "{{\"connections\":{},\"window_s\":{secs},\"server_cpu_s\":{cpu_s},\"cpu_budget_s\":{cpu_budget}}}",
        streams.len()
    );
    if cpu_s > cpu_budget {
        eprintln!("idle: FAILED — idle connections are burning CPU");
        return 1;
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(addr) = stencil_bench::arg_value(&args, "--flood") {
        let conns = stencil_bench::arg_value(&args, "--conns")
            .map(|v| v.parse::<usize>().expect("--conns expects a number"))
            .unwrap_or(16);
        std::process::exit(flood(&addr, conns));
    }
    if let Some(addr) = stencil_bench::arg_value(&args, "--send") {
        std::process::exit(send(&addr));
    }
    if let Some(addr) = stencil_bench::arg_value(&args, "--idle") {
        let conns = stencil_bench::arg_value(&args, "--conns")
            .map(|v| v.parse::<usize>().expect("--conns expects a number"))
            .unwrap_or(64);
        let pid = stencil_bench::arg_value(&args, "--pid")
            .map(|v| v.parse::<u32>().expect("--pid expects a process id"))
            .expect("--idle requires --pid SERVER_PID");
        let secs = stencil_bench::arg_value(&args, "--secs")
            .map(|v| v.parse::<f64>().expect("--secs expects seconds"))
            .unwrap_or(2.0);
        let cpu_budget = stencil_bench::arg_value(&args, "--cpu-budget")
            .map(|v| v.parse::<f64>().expect("--cpu-budget expects seconds"))
            .unwrap_or(0.2);
        std::process::exit(idle(&addr, conns, pid, secs, cpu_budget));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path =
        stencil_bench::arg_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    let hit_requests = if quick { 200 } else { 2000 };
    let miss_requests = if quick { 12 } else { 48 };
    let mixed_requests = if quick { 100 } else { 500 };
    let batch_lines = if quick { 10 } else { 50 };
    let batch_size = 32usize;

    eprintln!(
        "loadgen: threads = {}, quick = {quick}",
        rayon::current_num_threads()
    );
    let service = MappingService::new(&ServiceConfig::default());

    // --- cache_hit: cold p=4800 multilevel, then pure hits ------------------
    // The paper's largest throughput instance (100 nodes x 48 procs on a
    // 75 x 64 grid) through the expensive VieM-style pipeline: the worst
    // case the cache absorbs.
    let headline = r#"{"id":0,"dims":[75,64],"nodes":100,"algorithm":"viem","seed":1}"#.to_string();
    let cold_start = Instant::now();
    let cold_response = service.handle_line(&headline);
    let cold_s = cold_start.elapsed().as_secs_f64();
    assert!(
        cold_response.contains("\"cached\":false"),
        "first request must miss"
    );
    let hit_lines: Vec<String> = vec![headline.clone(); hit_requests];
    let hit_latencies = replay(&service, &hit_lines);
    let hit_p50 = median(&hit_latencies);
    let speedup = cold_s / hit_p50;
    eprintln!(
        "  cache_hit p=4800 (viem): cold {cold_s:.6}s, hit p50 {hit_p50:.6}s \
         ({speedup:.0}x), {:.0} req/s",
        hit_latencies.len() as f64 / hit_latencies.iter().sum::<f64>()
    );

    // --- cache_hit_compact: the same hits, compact node-table encoding ------
    let compact_line =
        r#"{"id":0,"dims":[75,64],"nodes":100,"algorithm":"viem","seed":1,"encoding":"compact"}"#
            .to_string();
    let compact_lines: Vec<String> = vec![compact_line; hit_requests];
    let compact_latencies = replay(&service, &compact_lines);
    eprintln!(
        "  cache_hit_compact: {:.0} req/s",
        compact_latencies.len() as f64 / compact_latencies.iter().sum::<f64>()
    );

    // --- cache_hit_nomap: the same hits, cost-only responses ----------------
    let nomap_line =
        r#"{"id":0,"dims":[75,64],"nodes":100,"algorithm":"viem","seed":1,"want_mapping":false}"#
            .to_string();
    let nomap_lines: Vec<String> = vec![nomap_line; hit_requests];
    let nomap_latencies = replay(&service, &nomap_lines);
    eprintln!(
        "  cache_hit_nomap: {:.0} req/s",
        nomap_latencies.len() as f64 / nomap_latencies.iter().sum::<f64>()
    );

    // --- new_rank_of: point lookups against the warm entry ------------------
    let point_lines: Vec<String> = (0..hit_requests)
        .map(|i| {
            let r = (i * 37) % 4800; // deterministic spread over the grid
            format!(
                r#"{{"id":{i},"dims":[75,64],"nodes":100,"algorithm":"viem","seed":1,"query":"new_rank_of","ranks":[{r},{},{}]}}"#,
                (r + 1600) % 4800,
                (r + 3200) % 4800
            )
        })
        .collect();
    let point_latencies = replay(&service, &point_lines);
    eprintln!(
        "  new_rank_of (3 ranks/query): {:.0} req/s",
        point_latencies.len() as f64 / point_latencies.iter().sum::<f64>()
    );

    // --- cache_miss: every request a distinct instance ----------------------
    // Distinct (nodes, grid) pairs through Hyperplane: measures the
    // canonicalize + engine + insert path.
    let miss_lines: Vec<String> = (0..miss_requests)
        .map(|i| {
            let nodes = 8 + i; // unique node count => unique dims and alloc
            format!(r#"{{"id":{i},"dims":[{nodes},12],"nodes":{nodes}}}"#)
        })
        .collect();
    let miss_latencies = replay(&service, &miss_lines);
    eprintln!(
        "  cache_miss (hyperplane, distinct instances): {:.0} req/s",
        miss_latencies.len() as f64 / miss_latencies.iter().sum::<f64>()
    );

    // --- mixed: 90% hits, 10% misses ----------------------------------------
    let mixed_service = MappingService::new(&ServiceConfig::default());
    let warm = r#"{"dims":[50,48],"nodes":50,"algorithm":"hyperplane"}"#.to_string();
    mixed_service.handle_line(&warm);
    let mixed_lines: Vec<String> = (0..mixed_requests)
        .map(|i| {
            if i % 10 == 9 {
                // a fresh instance: guaranteed miss
                let nodes = 200 + i;
                format!(r#"{{"dims":[{nodes},12],"nodes":{nodes}}}"#)
            } else {
                warm.clone()
            }
        })
        .collect();
    let mixed_latencies = replay(&mixed_service, &mixed_lines);
    let mixed_stats = mixed_service.cache_stats();
    let hit_fraction = mixed_stats.hits as f64 / (mixed_stats.hits + mixed_stats.misses) as f64;
    eprintln!(
        "  mixed (90/10): {:.0} req/s, measured hit rate {hit_fraction:.2}",
        mixed_latencies.len() as f64 / mixed_latencies.iter().sum::<f64>()
    );

    // --- batch: lines of `batch_size` hit requests --------------------------
    let batch_item = r#"{"dims":[50,48],"nodes":50,"algorithm":"kdtree"}"#;
    let batch_line = format!(
        r#"{{"batch":[{}]}}"#,
        vec![batch_item; batch_size].join(",")
    );
    service.handle_line(&batch_line); // warm the entry
    let batch_line_vec: Vec<String> = vec![batch_line; batch_lines];
    let batch_latencies = replay(&service, &batch_line_vec);
    let batch_total: f64 = batch_latencies.iter().sum();
    eprintln!(
        "  batch (x{batch_size} hits/line): {:.0} req/s",
        (batch_lines * batch_size) as f64 / batch_total
    );

    // --- persistence: restart answers the expensive entry as a hit ----------
    // The headline entry plus a 255-entry fleet of small instances: the
    // reload replays all 256 log records, so entries/s is a real replay
    // throughput, not a single-record open.  The fleet size is identical in
    // --quick and full runs so the perf gate's scale guard always matches.
    let persist_entries = 256usize;
    let persist_path =
        std::env::temp_dir().join(format!("stencil-serve-loadgen-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&persist_path);
    let persist_cfg = ServiceConfig {
        persist_path: Some(persist_path.clone()),
        ..ServiceConfig::default()
    };
    {
        let persisted = MappingService::open(&persist_cfg).expect("persistence setup");
        let warm = persisted.handle_line(&headline);
        assert!(warm.contains("\"cached\":false"));
        for n in 2..(persist_entries + 1) {
            let line = format!(r#"{{"dims":[{n},4],"nodes":{n},"want_mapping":false}}"#);
            let response = persisted.handle_line(&line);
            assert!(
                !response.contains("\"status\":\"error\""),
                "fleet fill: {response}"
            );
        }
        // dropping flushes the write-behind log
    }
    let reload_start = Instant::now();
    let restarted = MappingService::open(&persist_cfg).expect("persistence reload");
    let reload_s = reload_start.elapsed().as_secs_f64();
    let report = restarted.load_report();
    assert_eq!(
        (report.entries, report.skipped),
        (persist_entries, 0),
        "reload must replay the whole fleet"
    );
    let reload_entries_per_s = report.entries as f64 / reload_s;
    let hit_start = Instant::now();
    let after = restarted.handle_line(&headline);
    let restart_hit_s = hit_start.elapsed().as_secs_f64();
    assert!(
        after.contains("\"cached\":true"),
        "restart must answer the persisted entry as a hit: {after}"
    );
    assert_eq!(
        restarted.cache_stats().misses,
        0,
        "the engine must not recompute after a restart"
    );
    let _ = std::fs::remove_file(&persist_path);
    eprintln!(
        "  persistence: reload {reload_s:.6}s ({persist_entries} entries, \
         {reload_entries_per_s:.0}/s), warm hit after restart \
         {restart_hit_s:.6}s (vs {cold_s:.6}s cold recompute)"
    );

    // --- write_amplification: recency traffic vs a bounded log --------------
    // Alternating hits between two keys in the same (single) shard flip the
    // MRU slot every request, so each hit appends a touch record; with a
    // small online-compaction threshold the log must stay bounded no matter
    // how long the traffic runs.  Reported counters come from the
    // persistence worker itself.
    let wa_requests = if quick { 500 } else { 5000 };
    let wa_path = std::env::temp_dir().join(format!(
        "stencil-serve-loadgen-wa-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&wa_path);
    let wa_cfg = ServiceConfig {
        persist_path: Some(wa_path.clone()),
        compact_bytes: 32 * 1024,
        cache_shards: 1,
        ..ServiceConfig::default()
    };
    let wa_service = MappingService::open(&wa_cfg).expect("write-amplification setup");
    let wa_a = r#"{"dims":[20,12],"nodes":10,"want_mapping":false}"#.to_string();
    let wa_b = r#"{"dims":[24,10],"nodes":12,"want_mapping":false}"#.to_string();
    wa_service.handle_line(&wa_a);
    wa_service.handle_line(&wa_b);
    let wa_lines: Vec<String> = (0..wa_requests)
        .map(|i| {
            if i % 2 == 0 {
                wa_a.clone()
            } else {
                wa_b.clone()
            }
        })
        .collect();
    let wa_latencies = replay(&wa_service, &wa_lines);
    wa_service.flush_persistence();
    let wa_stats = wa_service
        .persist_stats()
        .expect("write-amplification stats");
    let wa_log_bytes = std::fs::metadata(&wa_path).map(|m| m.len()).unwrap_or(0);
    drop(wa_service);
    let _ = std::fs::remove_file(&wa_path);
    eprintln!(
        "  write_amplification: {wa_requests} hits -> {} records, {} flushes, \
         {} compactions, final log {wa_log_bytes} bytes",
        wa_stats.appended, wa_stats.flushes, wa_stats.compactions
    );

    // --- tcp_hit / routed_hit: the hit stream over real sockets -------------
    // The same cost-only hit line, but answered by the real binary over
    // TCP: first by one backend directly, then through the consistent-hash
    // router fronting two backends.  The delta between the two sections is
    // the router's forwarding overhead.
    let mut net_sections: Vec<(&str, Value)> = Vec::new();
    if !args.iter().any(|a| a == "--no-route") {
        let serve_bin = stencil_bench::arg_value(&args, "--serve-bin").unwrap_or_else(|| {
            let sibling = std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(|d| d.join("stencil-serve")));
            match sibling {
                Some(p) if p.exists() => p.to_string_lossy().into_owned(),
                _ => {
                    eprintln!(
                        "loadgen: stencil-serve binary not found next to loadgen; build it \
                         (`cargo build --release -p stencil-serve`), pass --serve-bin PATH, \
                         or skip the TCP sections with --no-route"
                    );
                    std::process::exit(1);
                }
            }
        });
        let net_line = r#"{"id":0,"dims":[75,64],"nodes":100,"algorithm":"viem","seed":1,"want_mapping":false}"#;
        let pipelined = if quick { 500 } else { 5000 };
        let roundtrips = if quick { 100 } else { 500 };
        let net = (|| -> Result<(), String> {
            let single = ServeProc::spawn(&serve_bin, &[])?;
            let tcp = tcp_section(
                &single.addr,
                net_line,
                pipelined,
                roundtrips,
                vec![("processes", Value::Num(4800.0))],
            )?;
            drop(single);
            let b1 = ServeProc::spawn(&serve_bin, &[])?;
            let b2 = ServeProc::spawn(&serve_bin, &[])?;
            let route = format!("{},{}", b1.addr, b2.addr);
            let router = ServeProc::spawn(&serve_bin, &["--route", &route])?;
            let routed = tcp_section(
                &router.addr,
                net_line,
                pipelined,
                roundtrips,
                vec![
                    ("processes", Value::Num(4800.0)),
                    ("backends", Value::Num(2.0)),
                ],
            )?;
            drop(router);
            drop(b1);
            drop(b2);
            let b1 = ServeProc::spawn(&serve_bin, &[])?;
            let b2 = ServeProc::spawn(&serve_bin, &[])?;
            let b3 = ServeProc::spawn(&serve_bin, &[])?;
            let route = format!("{},{},{}", b1.addr, b2.addr, b3.addr);
            let router = ServeProc::spawn(&serve_bin, &["--route", &route, "--replicas", "2"])?;
            let replicated = tcp_section(
                &router.addr,
                net_line,
                pipelined,
                roundtrips,
                vec![
                    ("processes", Value::Num(4800.0)),
                    ("backends", Value::Num(3.0)),
                    ("replicas", Value::Num(2.0)),
                ],
            )?;
            for (name, sec) in [
                ("tcp_hit", &tcp),
                ("routed_hit", &routed),
                ("routed_replica_hit", &replicated),
            ] {
                eprintln!("  {name}: {}", sec.compact());
            }
            net_sections.push(("tcp_hit", tcp));
            net_sections.push(("routed_hit", routed));
            net_sections.push(("routed_replica_hit", replicated));
            Ok(())
        })();
        if let Err(e) = net {
            eprintln!("loadgen: TCP sections failed: {e}");
            std::process::exit(1);
        }
    }

    let mut doc_fields = vec![
        ("schema", Value::str("stencilmap/serve-loadgen/v1")),
        ("threads", Value::Num(rayon::current_num_threads() as f64)),
        ("quick", Value::Bool(quick)),
        (
            "cache_hit",
            section(
                &hit_latencies,
                vec![
                    ("processes", Value::Num(4800.0)),
                    ("cold_multilevel_s", Value::Num(cold_s)),
                    ("speedup_cold_over_hit", Value::Num(speedup)),
                ],
            ),
        ),
        (
            "cache_hit_compact",
            section(&compact_latencies, vec![("processes", Value::Num(4800.0))]),
        ),
        (
            "cache_hit_nomap",
            section(&nomap_latencies, vec![("processes", Value::Num(4800.0))]),
        ),
        (
            "new_rank_of",
            section(
                &point_latencies,
                vec![
                    ("processes", Value::Num(4800.0)),
                    ("ranks_per_query", Value::Num(3.0)),
                ],
            ),
        ),
        ("cache_miss", section(&miss_latencies, vec![])),
        (
            "mixed",
            section(
                &mixed_latencies,
                vec![("hit_fraction", Value::Num(hit_fraction))],
            ),
        ),
        (
            "batch",
            section(
                &batch_latencies,
                vec![
                    ("batch_size", Value::Num(batch_size as f64)),
                    (
                        "requests_per_s",
                        Value::Num((batch_lines * batch_size) as f64 / batch_total),
                    ),
                ],
            ),
        ),
        (
            "persistence",
            Value::obj(vec![
                ("processes", Value::Num(4800.0)),
                ("entries", Value::Num(persist_entries as f64)),
                ("reload_s", Value::Num(reload_s)),
                ("reload_entries_per_s", Value::Num(reload_entries_per_s)),
                ("hit_after_restart_s", Value::Num(restart_hit_s)),
                ("cold_recompute_s", Value::Num(cold_s)),
            ]),
        ),
        (
            "write_amplification",
            section(
                &wa_latencies,
                vec![
                    ("compact_bytes", Value::Num((32 * 1024) as f64)),
                    ("appended_records", Value::Num(wa_stats.appended as f64)),
                    ("flushes", Value::Num(wa_stats.flushes as f64)),
                    ("compactions", Value::Num(wa_stats.compactions as f64)),
                    ("final_log_bytes", Value::Num(wa_log_bytes as f64)),
                ],
            ),
        ),
    ];
    doc_fields.extend(net_sections);
    let doc = Value::obj(doc_fields);
    std::fs::write(&out_path, doc.pretty()).unwrap_or_else(|e| {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");

    // sanity floor for the acceptance criterion: the hit path must beat the
    // cold multilevel mapping by a wide margin
    if speedup < 50.0 {
        eprintln!("loadgen: WARNING — cache-hit speedup {speedup:.0}x is below the 50x target");
    }
}
