//! Crash-matrix and overload robustness suite.
//!
//! * **Crash matrix**: for every registered fault point around online log
//!   compaction and explicit flushes, a child process runs a deterministic
//!   workload, arms the point via `STENCIL_FAULTPOINT`, and is killed
//!   (`abort`, the `kill -9` stand-in) mid-operation.  The parent reloads
//!   the surviving log and asserts the recovered per-shard cache contents
//!   and recency order are **byte-identical** to a no-fault oracle run.
//! * **`#KILL9` golden transcript**: a checked-in request file is replayed
//!   up to a kill marker, the process dies mid-compaction (after the
//!   temporary file is written, before the rename), a second process
//!   resumes from the surviving log, and the concatenated response
//!   transcript must be byte-identical across `RAYON_NUM_THREADS ∈ {1,4}`.
//! * **Overload and isolation**: connections past `max_conns` are shed
//!   with a well-formed error line, a panicking request cannot take a pool
//!   worker down, and setting the shutdown flag drains and returns.
//! * **SIGTERM drain**: the real binary is sent SIGTERM and must answer
//!   in-flight work, flush + compact its log, and exit 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use stencil_serve::faultpoint::{self, Action};
use stencil_serve::server::{
    serve_listener_with, ServeOptions, OVERLOADED_LINE, READ_TIMEOUT_LINE,
};
use stencil_serve::service::{MappingService, ServiceConfig};

/// Fault arming is process-global, and unarmed `reach` calls still consume
/// hit counts: every test in this binary that arms a point *or* drives
/// requests in-process takes this lock so one test cannot eat another's
/// armed hit.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg(path: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        cache_capacity: 6,
        cache_shards: 2,
        persist_path: path,
        ..ServiceConfig::default()
    }
}

fn data(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stencil-crash-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic crash workload: 10 distinct keys over a capacity-6
/// cache, so it exercises inserts, recency-changing hits and evictions.
fn workload(s: &MappingService) {
    for i in 0..24usize {
        let n = 2 + (i * 7) % 10;
        let line = format!(r#"{{"dims":[{n},4],"nodes":{n},"want_mapping":false}}"#);
        let out = s.handle_line(&line);
        assert!(out.contains("\"status\":\"ok\""), "{out}");
    }
}

/// Child half of the crash matrix (no-op unless spawned by the parent
/// test): runs the workload against a persisted service, makes it durable,
/// then walks the flush and compaction paths where the armed fault point
/// kills the process.  The first flush is hit 1 (state durable before the
/// kill), so flush points are armed at hit 2.
#[test]
fn crash_child_runs_workload_then_flush_and_compact() {
    let (Ok(path), Ok(_)) = (
        std::env::var("STENCIL_CRASH_LOG"),
        std::env::var("STENCIL_CRASH_CHILD"),
    ) else {
        return;
    };
    let s = MappingService::open(&cfg(Some(PathBuf::from(path)))).unwrap();
    workload(&s);
    s.flush_persistence(); // flush hit 1: the full state is durable
    s.compact_persistence(); // compaction points (armed at 1) die in here
    s.flush_persistence(); // flush hit 2: flush points die in here
}

/// The crash matrix: every fault point, kill + restart, recovered cache
/// byte-identical to the oracle.
#[test]
#[cfg(unix)]
fn crash_matrix_every_fault_point_recovers_byte_identically() {
    use std::os::unix::process::ExitStatusExt;
    let _g = fault_lock();

    // the oracle: the same workload, no persistence, no faults
    let oracle = MappingService::new(&cfg(None));
    workload(&oracle);
    let expect: Vec<Vec<_>> = (0..oracle.cache_num_shards())
        .map(|sh| oracle.cache_shard_entries_lru_first(sh))
        .collect();
    assert!(expect.iter().map(Vec::len).sum::<usize>() > 0);

    let exe = std::env::current_exe().expect("test executable path");
    let dir = tmp_dir("matrix");
    let matrix = [
        ("persist.compact.begin", 1u64),
        ("persist.compact.frozen", 1),
        ("persist.compact.mid_tmp", 1),
        ("persist.compact.tmp_written", 1),
        ("persist.compact.renamed", 1),
        ("persist.compact.done", 1),
        ("persist.flush.before", 2),
        ("persist.flush.after", 2),
    ];
    for (point, at) in matrix {
        let path = dir.join(format!("{}.log", point.replace('.', "-")));
        let _ = std::fs::remove_file(&path);
        let out = Command::new(&exe)
            .args([
                "crash_child_runs_workload_then_flush_and_compact",
                "--exact",
                "--test-threads=1",
            ])
            .env("STENCIL_CRASH_CHILD", "1")
            .env("STENCIL_CRASH_LOG", &path)
            .env("STENCIL_FAULTPOINT", format!("{point}:{at}"))
            .output()
            .expect("spawning the crash child");
        assert_eq!(
            out.status.signal(),
            Some(libc_sigabrt()),
            "{point}: the armed child must die by abort, got {:?}:\n{}{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let s = MappingService::open(&cfg(Some(path.clone()))).unwrap();
        for (shard, want) in expect.iter().enumerate() {
            let got = s.cache_shard_entries_lru_first(shard);
            assert_eq!(got.len(), want.len(), "{point}: shard {shard} size");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.0, w.0, "{point}: shard {shard} key order");
                assert_eq!(*g.1, *w.1, "{point}: shard {shard} entry payload");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// SIGABRT without pulling in the libc crate.
#[cfg(unix)]
fn libc_sigabrt() -> i32 {
    6
}

/// Child half of the `#KILL9` golden transcript (no-op unless spawned).
/// Phase 1 replays the requests before the marker, flushes, then starts a
/// compaction that the armed fault point turns into a kill; phase 2 reopens
/// the same log and replays the requests after the marker.  Responses go to
/// stdout line-buffered, so everything printed survives the abort.
#[test]
fn crash_transcript_child() {
    let (Ok(phase), Ok(path)) = (
        std::env::var("STENCIL_CRASH_GOLD_CHILD"),
        std::env::var("STENCIL_CRASH_GOLD_LOG"),
    ) else {
        return;
    };
    let requests = data("crash_transcript_requests.txt");
    let all: Vec<&str> = requests.lines().collect();
    let marker = all
        .iter()
        .position(|l| l.trim() == "#KILL9")
        .expect("crash transcript needs a #KILL9 marker line");
    let s = MappingService::open(&cfg(Some(PathBuf::from(path)))).unwrap();
    let lines = if phase == "1" {
        &all[..marker]
    } else {
        &all[marker + 1..]
    };
    for line in lines {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // the "#>" marker lets the parent cut responses out of the libtest
        // harness chatter (the first println shares a line with the
        // "test ... " header under --nocapture)
        println!("#>{}", s.handle_line(line));
    }
    if phase == "1" {
        s.flush_persistence();
        s.compact_persistence(); // the armed point aborts mid-swap
        panic!("the armed fault point never fired");
    }
}

/// The `#KILL9`/`#RESTART` golden: kill mid-compaction, restart, and the
/// concatenated transcript is byte-identical across thread counts, with the
/// post-restart repeats served from the recovered cache.
#[test]
#[cfg(unix)]
fn kill9_transcript_is_byte_identical_across_thread_counts() {
    use std::os::unix::process::ExitStatusExt;
    let exe = std::env::current_exe().expect("test executable path");
    let dir = tmp_dir("gold");
    let json_lines = |raw: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(raw)
            .lines()
            .filter_map(|l| l.split_once("#>").map(|(_, r)| r.to_string()))
            .collect()
    };
    let mut transcripts = Vec::new();
    for threads in ["1", "4"] {
        let path = dir.join(format!("gold-{threads}.log"));
        let _ = std::fs::remove_file(&path);
        let child = |phase: &str, armed: bool| {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "crash_transcript_child",
                "--exact",
                "--test-threads=1",
                "--nocapture",
            ])
            .env("STENCIL_CRASH_GOLD_CHILD", phase)
            .env("STENCIL_CRASH_GOLD_LOG", &path)
            .env("RAYON_NUM_THREADS", threads);
            if armed {
                cmd.env("STENCIL_FAULTPOINT", "persist.compact.tmp_written:1");
            }
            cmd.output().expect("spawning the transcript child")
        };
        let killed = child("1", true);
        assert_eq!(
            killed.status.signal(),
            Some(libc_sigabrt()),
            "phase 1 must die mid-compaction, got {:?}:\n{}",
            killed.status,
            String::from_utf8_lossy(&killed.stderr)
        );
        let resumed = child("2", false);
        assert!(
            resumed.status.success(),
            "phase 2 failed:\n{}{}",
            String::from_utf8_lossy(&resumed.stdout),
            String::from_utf8_lossy(&resumed.stderr)
        );
        let part2 = json_lines(&resumed.stdout);
        assert!(
            part2[0].contains("\"cached\":true") && part2[1].contains("\"cached\":true"),
            "post-restart repeats must be served from the recovered log:\n{part2:#?}"
        );
        let mut all = json_lines(&killed.stdout);
        all.extend(part2);
        transcripts.push((threads, all));
        let _ = std::fs::remove_file(&path);
    }
    let (_, reference) = &transcripts[0];
    for (threads, transcript) in &transcripts {
        assert_eq!(
            transcript, reference,
            "RAYON_NUM_THREADS={threads}: crash transcript diverged"
        );
    }
}

fn start_server(
    opts: ServeOptions,
) -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let service = Arc::new(MappingService::new(&cfg(None)));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || serve_listener_with(service, listener, opts, flag));
    (addr, shutdown, handle)
}

fn ask(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.write_all(line.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply
}

/// A panicking request is answered with an error line and the worker (there
/// is only one) keeps serving the same connection.
#[test]
fn a_panicking_request_cannot_take_a_pool_worker_down() {
    let _g = fault_lock();
    let (addr, shutdown, handle) = start_server(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    faultpoint::arm(Some(("serve.request", 1, Action::Panic)));
    let reply = ask(
        &mut conn,
        &mut reader,
        r#"{"dims":[4,4],"nodes":4,"want_mapping":false}"#,
    );
    faultpoint::arm(None);
    assert!(
        reply.contains("internal error"),
        "the panic must surface as an error response: {reply}"
    );
    let reply = ask(
        &mut conn,
        &mut reader,
        r#"{"dims":[4,4],"nodes":4,"want_mapping":false}"#,
    );
    assert!(
        reply.contains("\"status\":\"ok\""),
        "the worker must survive the panic: {reply}"
    );
    shutdown.store(true, Ordering::Release);
    drop((conn, reader));
    handle.join().unwrap().unwrap();
}

/// Connections past `max_conns` get one well-formed overloaded line and are
/// closed; closing an admitted connection frees its slot.
#[test]
fn connections_past_max_conns_are_shed_with_an_error_line() {
    let _g = fault_lock();
    let (addr, shutdown, handle) = start_server(ServeOptions {
        workers: 1,
        max_conns: 2,
        ..ServeOptions::default()
    });
    let request = r#"{"dims":[4,4],"nodes":4,"want_mapping":false}"#;
    let mut c1 = TcpStream::connect(addr).unwrap();
    let mut r1 = BufReader::new(c1.try_clone().unwrap());
    assert!(ask(&mut c1, &mut r1, request).contains("\"status\":\"ok\""));
    let mut c2 = TcpStream::connect(addr).unwrap();
    let mut r2 = BufReader::new(c2.try_clone().unwrap());
    assert!(ask(&mut c2, &mut r2, request).contains("\"status\":\"ok\""));

    // both slots taken: the third connection is shed with the error line
    // (newline included — the shed write must not tear)
    let c3 = TcpStream::connect(addr).unwrap();
    let mut line = String::new();
    BufReader::new(c3).read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "shed line torn: {line:?}");
    assert_eq!(line.trim_end(), OVERLOADED_LINE);

    // closing an admitted connection frees its slot (the worker has to
    // notice the close on its next poll, so retry briefly)
    drop((c1, r1));
    let mut admitted = false;
    for _ in 0..200 {
        let mut c = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        if ask(&mut c, &mut r, request).contains("\"status\":\"ok\"") {
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(admitted, "a freed slot must admit a new connection");
    shutdown.store(true, Ordering::Release);
    drop((c2, r2));
    handle.join().unwrap().unwrap();
}

/// A client that starts a line and stalls mid-way is answered with one
/// well-formed read-timeout line and closed after the read deadline; an
/// idle keep-alive connection with an empty framer is not.
#[test]
fn dribbling_clients_are_reaped_but_idle_keepalives_survive() {
    let _g = fault_lock();
    let (addr, shutdown, handle) = start_server(ServeOptions {
        workers: 1,
        read_timeout: Duration::from_millis(200),
        ..ServeOptions::default()
    });
    let request = r#"{"dims":[4,4],"nodes":4,"want_mapping":false}"#;

    // idle keep-alive: no bytes sent, connection must outlive the deadline
    let mut idle = TcpStream::connect(addr).unwrap();
    let mut idle_reader = BufReader::new(idle.try_clone().unwrap());

    // dribbler: half a line, then silence
    let mut dribble = TcpStream::connect(addr).unwrap();
    dribble.write_all(&request.as_bytes()[..10]).unwrap();

    std::thread::sleep(Duration::from_millis(600));

    // the dribbler was told why before the close: one newline-terminated
    // read-timeout error line, then EOF (not a silent drop)
    dribble
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut dribble_reader = BufReader::new(dribble.try_clone().unwrap());
    let mut reaped = String::new();
    dribble_reader.read_line(&mut reaped).unwrap();
    assert!(reaped.ends_with('\n'), "reap line torn: {reaped:?}");
    assert_eq!(reaped.trim_end(), READ_TIMEOUT_LINE);
    let mut rest = String::new();
    assert_eq!(
        dribble_reader.read_line(&mut rest).unwrap_or(0),
        0,
        "the mid-line staller must be disconnected after \
         the error line, got {rest:?}"
    );

    // the idle connection still serves
    let reply = ask(&mut idle, &mut idle_reader, request);
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");

    shutdown.store(true, Ordering::Release);
    drop((idle, idle_reader, dribble, dribble_reader));
    handle.join().unwrap().unwrap();
}

/// Setting the shutdown flag drains: already-sent lines are answered, the
/// accept loop returns `Ok`, and the listener port closes.
#[test]
fn drain_answers_sent_lines_and_returns_cleanly() {
    let _g = fault_lock();
    let (addr, shutdown, handle) = start_server(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(b"{\"dims\":[6,6],\"nodes\":4,\"want_mapping\":false}\n")
        .unwrap();
    // let the line reach the server before draining, then drain
    std::thread::sleep(Duration::from_millis(100));
    shutdown.store(true, Ordering::Release);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.contains("\"status\":\"ok\""),
        "the in-flight line must be answered during the drain: {reply}"
    );
    handle.join().unwrap().unwrap();
    // the listener is gone: new connections are refused (or immediately
    // closed if the OS had them queued in the backlog)
    if let Ok(mut late) = TcpStream::connect(addr) {
        late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(late.read(&mut buf).unwrap_or(0), 0, "server must be gone");
    }
    drop((conn, reader));
}

/// SIGTERM against the real binary: it stops accepting, flushes and
/// compacts its log, and exits 0; a fresh process reloads the warm cache.
#[test]
#[cfg(unix)]
fn sigterm_drains_compacts_and_exits_zero() {
    let dir = tmp_dir("sigterm");
    let log = dir.join("sigterm.log");
    let _ = std::fs::remove_file(&log);
    let mut child = Command::new(env!("CARGO_BIN_EXE_stencil-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--persist",
            log.to_str().unwrap(),
        ])
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawning stencil-serve");
    let stderr = child.stderr.take().unwrap();
    let mut stderr_reader = BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            stderr_reader.read_line(&mut line).unwrap(),
            0,
            "server exited before printing its address"
        );
        if let Some(rest) = line.trim_end().split("listening on ").nth(1) {
            break rest.to_string();
        }
    };
    // drain the rest of stderr in the background so the child never blocks
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = stderr_reader.read_to_string(&mut rest);
        rest
    });

    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let reply = ask(
        &mut conn,
        &mut reader,
        r#"{"dims":[12,8],"nodes":8,"want_mapping":false}"#,
    );
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("running kill");
    assert!(term.success());
    let status = child.wait().expect("waiting for stencil-serve");
    assert!(
        status.success(),
        "SIGTERM drain must exit 0, got {status:?}:\n{}",
        drain.join().unwrap()
    );

    // the flushed + compacted log reloads warm: pure inserts, zero skips
    let reload_cfg = ServiceConfig {
        persist_path: Some(log.clone()),
        ..ServiceConfig::default()
    };
    let s = MappingService::open(&reload_cfg).unwrap();
    let report = s.load_report();
    assert_eq!(
        (report.entries, report.skipped),
        (1, 0),
        "drain must leave a clean compacted log: {report:?}"
    );
    let out = s.handle_line(r#"{"dims":[12,8],"nodes":8,"want_mapping":false}"#);
    assert!(out.contains("\"cached\":true"), "{out}");
    let _ = std::fs::remove_file(&log);
}
