//! `stencil-serve` — the caching mapping service and its router.
//!
//! ```text
//! stencil-serve --stdin                          # NDJSON over stdin/stdout
//! stencil-serve --listen 127.0.0.1:7077          # NDJSON over TCP
//!     [--cache-capacity 1024] [--shards 8]
//! stencil-serve --listen 127.0.0.1:7070 \
//!     --route 127.0.0.1:7077,127.0.0.1:7078     # consistent-hash router
//! stencil-serve --handoff 127.0.0.1:7077 --persist warm.log  # ship a log
//! ```
//!
//! See `docs/OPERATIONS.md` for the full operator's manual,
//! `docs/PROTOCOL.md` for the wire protocol, and the crate docs
//! ([`stencil_serve`]) for the library API.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use stencil_serve::cache::EvictionPolicy;
use stencil_serve::json::{base64_decode, Value};
use stencil_serve::router::{Router, DEFAULT_ROUTE_TIMEOUT};
use stencil_serve::server::{LineHandler, ServeOptions};
use stencil_serve::service::{MappingService, ServiceConfig, DEFAULT_COMPACT_BYTES};

const USAGE: &str = "\
usage: stencil-serve [--stdin | --listen ADDR] [--cache-capacity N] [--shards N]
                     [--workers N] [--persist FILE] [--compact-bytes N]
                     [--eviction lru|gdsf] [--max-conns N] [--read-timeout SECS]
                     [--degrade-queue N]
                     [--route B1,B2,... [--replicas R]] [--route-timeout SECS]
       stencil-serve --handoff ADDR --persist FILE

modes (default: --stdin):
  --stdin              serve newline-delimited JSON requests from stdin to stdout
  --listen ADDR        bind ADDR (e.g. 127.0.0.1:7077) and serve TCP clients
                       (Linux only: idle connections wait in epoll at zero CPU)
  --route B1,B2,...    route mode: instead of computing locally, forward each
                       request to one of the comma-separated backend servers
                       (host:port each), picked by consistent-hashing its
                       canonical key; combine with --listen (or --stdin) for
                       the frontend.  Cache/persistence flags are ignored —
                       caching happens on the backends.
  --handoff ADDR       one-shot client: ask the backend at ADDR to flush and
                       compact its persistence log and ship it; the log is
                       written to the --persist FILE so a new backend can
                       start warm from it.  Exits after the transfer.

options:
  --cache-capacity N   total cache entries across all shards (default 1024; 0 disables caching)
  --shards N           number of independently locked cache shards (default 8)
  --workers N          TCP worker-pool threads (default 4; connections are not
                       bound to threads, so N clients >> N workers is fine)
  --persist FILE       append-only cache persistence log: loaded (and compacted)
                       on start, written behind while serving, so cached
                       mappings survive restarts
  --compact-bytes N    compact the persistence log online once it exceeds N
                       bytes (default 67108864 = 64 MiB; 0 disables online
                       compaction)
  --eviction POLICY    cache eviction policy: lru (default) or gdsf
                       (cost-aware: expensive-to-recompute mappings are
                       retained over cheap ones)
  --max-conns N        shed TCP connections past N simultaneous clients with
                       an {\"error\":\"overloaded\"} line (default 1024)
  --read-timeout SECS  reap connections stalled mid-line for SECS seconds
                       (default 10; idle keep-alives are never reaped)
  --degrade-queue N    serve cost-only responses while the worker queue holds
                       N or more connections (default: off)
  --replicas R         route mode: own each key on the R distinct ring-successor
                       backends (default 1).  Misses write through to every
                       replica; reads serve from the primary and fail over in
                       ring order, so any single backend can die without error
                       lines.  Requires R <= number of backends.
  --route-timeout SECS per-forward deadline in route mode, covering connect,
                       write and response read (default 10); a backend (and
                       with --replicas, every replica) that cannot answer in
                       time yields one {\"error\":\"backend unavailable\"} line
                       instead of a hang

signals: SIGTERM drains — the listener stops accepting, in-flight lines are
answered, the persistence log is flushed and compacted, and the process
exits 0.

protocol: one JSON request per line, one JSON response per line, e.g.
  printf '{\"id\":1,\"dims\":[50,48],\"nodes\":50,\"want_mapping\":false}\\n' | stencil-serve --stdin
";

// Duplicated from `stencil_bench::arg_value`: stencil-bench depends on this
// crate (for `loadgen`), so depending back on it would cycle.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// SIGTERM handler plumbing: the handler must be a plain `extern "C"` fn, so
/// the shutdown flag it sets lives in a process-global `OnceLock`.  Both the
/// `OnceLock::get` (one atomic load) and the `AtomicBool::store` are
/// async-signal-safe: no allocation, no locking.
#[cfg(unix)]
mod sigterm {
    use super::*;

    static SHUTDOWN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    const SIGTERM: i32 = 15;

    extern "C" {
        // `signal(2)` from libc, which std already links.  Good enough here:
        // one handler, installed once, no SA_RESTART subtleties matter
        // because the accept loop is non-blocking and polls the flag.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigterm(_sig: i32) {
        if let Some(flag) = SHUTDOWN.get() {
            flag.store(true, Ordering::Release);
        }
    }

    pub fn install(flag: Arc<AtomicBool>) {
        let _ = SHUTDOWN.set(flag);
        unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }
}

/// The `--handoff` client: asks the backend at `addr` to flush + compact
/// its persistence log and ship it, then writes the decoded log to `dest`.
/// A fresh backend started with `--persist dest` replays it and answers the
/// shipped keys as cache hits from its first request on.
fn run_handoff(addr: &str, dest: &std::path::Path) -> Result<(), String> {
    let mut conn =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    conn.write_all(b"{\"admin\":\"handoff\"}\n")
        .and_then(|()| conn.flush())
        .map_err(|e| format!("cannot send the handoff request: {e}"))?;
    let mut line = String::new();
    BufReader::new(conn)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read the handoff response: {e}"))?;
    let v =
        Value::parse(line.trim_end()).map_err(|e| format!("malformed handoff response: {e}"))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        let reason = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("malformed response");
        return Err(format!("backend refused the handoff: {reason}"));
    }
    let log = v
        .get("log")
        .and_then(Value::as_str)
        .ok_or("handoff response carries no log")?;
    let bytes = base64_decode(log).map_err(|e| format!("undecodable log payload: {e}"))?;
    std::fs::write(dest, &bytes).map_err(|e| format!("cannot write {}: {e}", dest.display()))?;
    eprintln!(
        "stencil-serve: handoff from {addr}: {} entries, {} bytes -> {}",
        v.get("entries").and_then(Value::as_u64).unwrap_or(0),
        bytes.len(),
        dest.display()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let value_flags = [
        "--listen",
        "--cache-capacity",
        "--shards",
        "--workers",
        "--persist",
        "--compact-bytes",
        "--eviction",
        "--max-conns",
        "--read-timeout",
        "--degrade-queue",
        "--route",
        "--replicas",
        "--route-timeout",
        "--handoff",
    ];
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--stdin" {
            i += 1;
        } else if value_flags.contains(&a.as_str()) {
            // the value must exist and must not itself be a flag
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => {
                    eprintln!("stencil-serve: {a} requires a value\n{USAGE}");
                    std::process::exit(2);
                }
            }
        } else {
            eprintln!("stencil-serve: unknown argument {a:?}\n{USAGE}");
            std::process::exit(2);
        }
    }

    let parse_num = |flag: &str, default: usize| -> usize {
        match arg_value(&args, flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("stencil-serve: {flag} expects a non-negative integer, got {v:?}");
                std::process::exit(2);
            }),
        }
    };
    let eviction = match arg_value(&args, "--eviction") {
        None => EvictionPolicy::Lru,
        Some(name) => EvictionPolicy::from_name(&name).unwrap_or_else(|| {
            eprintln!("stencil-serve: --eviction expects 'lru' or 'gdsf', got {name:?}");
            std::process::exit(2);
        }),
    };
    let cfg = ServiceConfig {
        cache_capacity: parse_num("--cache-capacity", 1024),
        cache_shards: parse_num("--shards", 8),
        persist_path: arg_value(&args, "--persist").map(std::path::PathBuf::from),
        eviction,
        compact_bytes: parse_num("--compact-bytes", DEFAULT_COMPACT_BYTES as usize) as u64,
    };
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        workers: parse_num("--workers", 4),
        max_conns: parse_num("--max-conns", 1024),
        read_timeout: std::time::Duration::from_secs(parse_num(
            "--read-timeout",
            defaults.read_timeout.as_secs() as usize,
        ) as u64),
        degrade_queue: parse_num("--degrade-queue", defaults.degrade_queue),
        write_timeout: defaults.write_timeout,
    };
    let listen = arg_value(&args, "--listen");

    // --handoff: one-shot client, no frontend, no local service
    if let Some(addr) = arg_value(&args, "--handoff") {
        let Some(dest) = arg_value(&args, "--persist") else {
            eprintln!("stencil-serve: --handoff needs --persist FILE as the destination\n{USAGE}");
            std::process::exit(2);
        };
        if let Err(e) = run_handoff(&addr, std::path::Path::new(&dest)) {
            eprintln!("stencil-serve: handoff: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }

    // --route: serve the same frontends, but behind a consistent-hash
    // router instead of a local computing service
    if let Some(list) = arg_value(&args, "--route") {
        if arg_value(&args, "--persist").is_some() {
            eprintln!(
                "stencil-serve: --persist is ignored in route mode (caching and persistence \
                 happen on the backends)"
            );
        }
        let specs: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let timeout = std::time::Duration::from_secs(parse_num(
            "--route-timeout",
            DEFAULT_ROUTE_TIMEOUT.as_secs() as usize,
        ) as u64);
        let replicas = parse_num("--replicas", 1);
        let router = match Router::new(&specs, replicas, timeout) {
            Ok(r) => Arc::new(r),
            Err(e) => {
                eprintln!("stencil-serve: {e}");
                std::process::exit(2);
            }
        };
        eprintln!(
            "stencil-serve: routing across {} backends ({} replica{} per key): {}",
            specs.len(),
            replicas,
            if replicas == 1 { "" } else { "s" },
            specs.join(", ")
        );
        let shutdown = Arc::new(AtomicBool::new(false));
        #[cfg(unix)]
        sigterm::install(Arc::clone(&shutdown));
        let handler: Arc<dyn LineHandler> = Arc::clone(&router) as Arc<dyn LineHandler>;
        let result = match listen {
            Some(addr) => stencil_serve::server::serve_tcp_with(
                handler,
                addr.as_str(),
                opts,
                Arc::clone(&shutdown),
            ),
            None => stencil_serve::server::serve_stdin(&*router),
        };
        if let Err(e) = result {
            eprintln!("stencil-serve: {e}");
            std::process::exit(1);
        }
        let stats = router.stats();
        eprintln!(
            "stencil-serve: router drained; {} forwarded, {} unavailable, {} dials, \
             {} failovers, {} fanouts",
            stats.forwarded, stats.unavailable, stats.reconnects, stats.failovers, stats.fanouts
        );
        std::process::exit(0);
    }

    let service = match MappingService::open(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stencil-serve: {e}");
            std::process::exit(1);
        }
    };
    if cfg.persist_path.is_some() {
        let report = service.load_report();
        eprintln!(
            "stencil-serve: persistence replayed {} records ({} skipped), {} entries warm",
            report.replayed, report.skipped, report.entries
        );
    }
    let service = Arc::new(service);

    let shutdown = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    sigterm::install(Arc::clone(&shutdown));

    let result = match listen {
        Some(addr) => {
            let handler: Arc<dyn LineHandler> = Arc::clone(&service) as Arc<dyn LineHandler>;
            stencil_serve::server::serve_tcp_with(
                handler,
                addr.as_str(),
                opts,
                Arc::clone(&shutdown),
            )
        }
        None => stencil_serve::server::serve_stdin(&*service),
    };
    if let Err(e) = result {
        eprintln!("stencil-serve: {e}");
        std::process::exit(1);
    }
    // Clean exit (stdin EOF or SIGTERM drain): make the persistence log both
    // durable and compact before handing the process back.
    service.flush_persistence();
    service.compact_persistence();
    if shutdown.load(Ordering::Acquire) {
        eprintln!("stencil-serve: drained on SIGTERM; persistence flushed and compacted");
    }
    std::process::exit(0);
}
