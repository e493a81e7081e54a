//! Router integration suite: the consistent-hash router in front of real
//! backend processes.
//!
//! * **Placement purity** (proptest): the backend a request routes to is a
//!   pure function of its canonical cache key and the backend set — every
//!   dimension permutation of a request, and every change to non-key
//!   fields (`id`, `want_mapping`, `encoding`), lands on the same shard.
//! * **Golden byte-identity**: the checked-in transcript request file is
//!   replayed against a single `stencil-serve` process and against a
//!   router fronting two backend processes; the two response transcripts
//!   must match **byte-exactly**, under `RAYON_NUM_THREADS ∈ {1, 4}`.
//! * **Backend loss**: SIGKILL one backend under traffic — requests owned
//!   by the dead shard answer with a well-formed
//!   `{"error":"backend unavailable"}` line (no hang, no torn line), the
//!   other shard keeps serving, and after a restart on the same port the
//!   dead shard rejoins without touching the router.
//! * **Warm handoff**: `--handoff` pulls a compacted persistence log from
//!   a live backend and a new backend started on that file answers the
//!   donor's cached entries as hits.
//! * **Replication**: with `--replicas 2` over three backends, SIGKILLing
//!   any one backend yields zero error lines and byte-identical responses
//!   (misses were written through to every replica, reads fail over), and
//!   `{"admin":"stats"}` aggregates the fleet into one line.
//! * **Live resharding**: `{"admin":"reshard","add"/"remove":ADDR}` swaps
//!   the ring atomically after warm-handing-off exactly the moving key
//!   ranges — no key ever answers cold across a membership change.
//! * **Router crash matrix**: the router is SIGABRTed at each of its four
//!   fault points (mid-forward, mid-fan-out, mid-handoff-stream, ring
//!   prepared but unswapped); a fresh router over the same backends must
//!   recover byte-identically, and an interrupted reshard must re-run to
//!   completion.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use stencil_serve::json::Value;
use stencil_serve::router::{Router, BACKEND_UNAVAILABLE, DEFAULT_ROUTE_TIMEOUT};

/// A `stencil-serve` child process plus the address it bound.  Killed on
/// drop so a failing assertion cannot leak servers.
struct Server {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<String>>,
}

impl Server {
    /// Spawns the real binary with `args` (plus `--listen addr`), waits for
    /// its "listening on" banner, and drains the rest of stderr in the
    /// background so the child can never block on a full pipe.
    fn spawn(listen: &str, args: &[&str], envs: &[(&str, &str)]) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_stencil-serve"));
        cmd.arg("--listen")
            .arg(listen)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawning stencil-serve");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            assert_ne!(
                stderr.read_line(&mut line).unwrap(),
                0,
                "server exited before printing its address"
            );
            if let Some(rest) = line.trim_end().split("listening on ").nth(1) {
                break rest.to_string();
            }
        };
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        Server {
            child,
            addr,
            drain: Some(drain),
        }
    }

    /// SIGKILLs the process — the `kill -9` half of the backend-loss test.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// One request line in, one response line out, over an existing connection.
fn ask(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.write_all(line.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.ends_with('\n'),
        "torn response line (connection closed mid-line?): {reply:?}"
    );
    reply.trim_end().to_string()
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(conn.try_clone().unwrap());
    (conn, reader)
}

/// The golden request lines: every non-comment line of the transcript
/// file.  `#RESTART` is a persistence-restart marker for the transcript
/// suite; here both sides run restart-free, and the post-marker lines
/// repeat earlier requests, so they exercise the routed warm-hit path.
fn golden_requests() -> Vec<String> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/transcript_requests.txt");
    std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

/// Replays `requests` one at a time against `addr`, returning the response
/// lines in order.
fn replay(addr: &str, requests: &[String]) -> Vec<String> {
    let (mut conn, mut reader) = connect(addr);
    requests
        .iter()
        .map(|r| ask(&mut conn, &mut reader, r))
        .collect()
}

/// Reserves a free localhost port: bind, read it back, release.  Racy in
/// principle, but the window is tiny and the backend-loss test needs a
/// *fixed* port so the killed backend can be reborn at the same address.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

// ---------------------------------------------------------------------------
// placement purity
// ---------------------------------------------------------------------------

/// Backend specs that resolve (IP literals) without anything listening:
/// `route_index` never dials.
fn offline_specs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("127.0.0.1:{}", 19_000 + i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routing is a pure function of the canonical key and the backend
    /// set: any rotation of the dimension vector, and any change to
    /// non-key fields, routes to the same backend; the same request on
    /// the same ring always answers the same index.
    #[test]
    fn route_index_is_pure_in_the_canonical_key(
        dims in proptest::collection::vec(2usize..10, 2..4),
        rot in 0usize..4,
        nodes in 2usize..6,
        id in 0u64..1000,
        want_mapping in proptest::bool::ANY,
    ) {
        // keep the request valid (p divisible by nodes): invalid requests
        // deliberately route by raw bytes, not by canonical key
        let mut dims = dims;
        dims[0] *= nodes;
        let router = Router::new(&offline_specs(5), 1, DEFAULT_ROUTE_TIMEOUT).unwrap();
        let fmt = |d: &[usize], extra: &str| {
            let dims = d.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",");
            format!(r#"{{"dims":[{dims}],"nodes":{nodes}{extra}}}"#)
        };
        let base = Value::parse(&fmt(&dims, "")).unwrap();
        let home = router.route_index(&base);
        prop_assert_eq!(router.route_index(&base), home, "lookup must be pure");

        let mut rotated = dims.clone();
        rotated.rotate_left(rot % dims.len());
        let permuted = Value::parse(&fmt(&rotated, "")).unwrap();
        prop_assert_eq!(
            router.route_index(&permuted), home,
            "a dimension permutation changed the shard: {:?} vs {:?}", dims, rotated
        );

        let noisy = Value::parse(&fmt(
            &dims,
            &format!(r#","id":{id},"want_mapping":{want_mapping},"encoding":"compact""#),
        )).unwrap();
        prop_assert_eq!(
            router.route_index(&noisy), home,
            "a non-key field changed the shard"
        );
    }

    /// Replica sets: the R owners of any key are R *distinct* backends, are
    /// a pure function of the canonical key (dimension permutations and
    /// non-key fields change nothing), and growing the backend set obeys
    /// minimal movement extended to sets — every member of the new replica
    /// set is either the added backend or was already a replica.
    #[test]
    fn replica_sets_are_distinct_pure_and_minimally_moving(
        dims in proptest::collection::vec(2usize..10, 2..4),
        rot in 0usize..4,
        nodes in 2usize..6,
        id in 0u64..1000,
    ) {
        let mut dims = dims;
        dims[0] *= nodes;
        let router = Router::new(&offline_specs(5), 3, DEFAULT_ROUTE_TIMEOUT).unwrap();
        let fmt = |d: &[usize], extra: &str| {
            let dims = d.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",");
            format!(r#"{{"dims":[{dims}],"nodes":{nodes}{extra}}}"#)
        };
        let base = Value::parse(&fmt(&dims, "")).unwrap();
        let owners = router.replica_specs(&base);
        prop_assert_eq!(owners.len(), 3, "three replicas requested");
        for (i, a) in owners.iter().enumerate() {
            for b in &owners[i + 1..] {
                prop_assert_ne!(a, b);
            }
        }
        prop_assert_eq!(
            &owners[0],
            &offline_specs(5)[router.route_index(&base)],
            "the primary replica is the single-owner lookup"
        );

        let mut rotated = dims.clone();
        rotated.rotate_left(rot % dims.len());
        let permuted = Value::parse(&fmt(&rotated, "")).unwrap();
        prop_assert_eq!(
            router.replica_specs(&permuted), owners.clone(),
            "a dimension permutation changed the replica set"
        );
        let noisy = Value::parse(&fmt(
            &dims,
            &format!(r#","id":{id},"want_mapping":true,"encoding":"compact""#),
        )).unwrap();
        prop_assert_eq!(
            router.replica_specs(&noisy), owners.clone(),
            "a non-key field changed the replica set"
        );

        // minimal movement: add a sixth backend, same replica count
        let grown = Router::new(&offline_specs(6), 3, DEFAULT_ROUTE_TIMEOUT).unwrap();
        let new_spec = &offline_specs(6)[5];
        for owner in grown.replica_specs(&base) {
            prop_assert!(
                owner == *new_spec || owners.contains(&owner),
                "growing the ring moved a replica between pre-existing \
                 backends: {} not in {:?}", owner, owners
            );
        }
    }
}

// ---------------------------------------------------------------------------
// golden byte-identity through real processes
// ---------------------------------------------------------------------------

/// The full golden request file answered through a router fronting two
/// backends must be byte-identical to a single process answering it
/// directly — for 1 and 4 rayon threads on the serving processes.
#[test]
fn routed_golden_transcript_matches_single_process() {
    let requests = golden_requests();
    for threads in ["1", "4"] {
        let env = [("RAYON_NUM_THREADS", threads)];
        let single = Server::spawn("127.0.0.1:0", &[], &env);
        let b1 = Server::spawn("127.0.0.1:0", &[], &env);
        let b2 = Server::spawn("127.0.0.1:0", &[], &env);
        let route = format!("{},{}", b1.addr, b2.addr);
        let router = Server::spawn("127.0.0.1:0", &["--route", &route], &env);

        let direct = replay(&single.addr, &requests);
        let routed = replay(&router.addr, &requests);
        assert_eq!(direct.len(), routed.len());
        for (i, (d, r)) in direct.iter().zip(&routed).enumerate() {
            assert_eq!(
                d,
                r,
                "response {} diverged between single process and router \
                 (RAYON_NUM_THREADS={threads}): request {:?}",
                i + 1,
                requests[i]
            );
        }
    }
}

// ---------------------------------------------------------------------------
// backend loss and rejoin
// ---------------------------------------------------------------------------

/// Finds one request per backend: dims `[n,4]`, n grown until the ring
/// places the request on the wanted index.
fn request_owned_by(router: &Router, want: usize) -> String {
    for n in 2..200usize {
        let line = format!(r#"{{"dims":[{n},4],"nodes":4,"want_mapping":false}}"#);
        if router.route_index(&Value::parse(&line).unwrap()) == want {
            return line;
        }
    }
    panic!("no probe request routes to backend {want}");
}

#[test]
fn killed_backend_answers_error_lines_and_rejoins_after_restart() {
    let (p1, p2) = (free_port(), free_port());
    let (a1, a2) = (format!("127.0.0.1:{p1}"), format!("127.0.0.1:{p2}"));
    let mut b1 = Server::spawn(&a1, &[], &[]);
    let _b2 = Server::spawn(&a2, &[], &[]);
    let route = format!("{a1},{a2}");
    let router_proc = Server::spawn("127.0.0.1:0", &["--route", &route], &[]);

    // the same specs in-process tell us which shard owns which probe
    let oracle = Router::new(&[a1.clone(), a2.clone()], 1, DEFAULT_ROUTE_TIMEOUT).unwrap();
    let on_dead = request_owned_by(&oracle, 0);
    let on_live = request_owned_by(&oracle, 1);

    let (mut conn, mut reader) = connect(&router_proc.addr);
    assert!(ask(&mut conn, &mut reader, &on_dead).contains("\"status\":\"ok\""));
    assert!(ask(&mut conn, &mut reader, &on_live).contains("\"status\":\"ok\""));

    b1.kill9();

    // every response while the shard is dead must be a well-formed JSON
    // line: either a normal answer (live shard) or the unavailable error
    let mut saw_unavailable = false;
    for _ in 0..6 {
        let reply = ask(&mut conn, &mut reader, &on_dead);
        let parsed = Value::parse(&reply)
            .unwrap_or_else(|e| panic!("torn or malformed error line {reply:?}: {e}"));
        let err = parsed.get("error").and_then(Value::as_str).unwrap_or("");
        assert_eq!(
            err, BACKEND_UNAVAILABLE,
            "dead shard must answer the documented error line, got {reply:?}"
        );
        saw_unavailable = true;
        // the other shard is untouched
        let live = ask(&mut conn, &mut reader, &on_live);
        assert!(live.contains("\"status\":\"ok\""), "{live}");
    }
    assert!(saw_unavailable);

    // a batch touching both shards splits cleanly: per-item error, in order
    let batch = format!(
        r#"{{"batch":[{},{}]}}"#,
        on_dead.replacen('{', r#"{"id":"dead","#, 1),
        on_live.replacen('{', r#"{"id":"live","#, 1)
    );
    let reply = ask(&mut conn, &mut reader, &batch);
    let parsed = Value::parse(&reply).expect("batch response must stay well-formed");
    let items = match parsed.get("batch") {
        Some(Value::Arr(items)) => items,
        other => panic!("expected a batch response, got {other:?}"),
    };
    assert_eq!(items.len(), 2);
    assert_eq!(
        items[0].get("error").and_then(Value::as_str),
        Some(BACKEND_UNAVAILABLE)
    );
    assert_eq!(items[1].get("status").and_then(Value::as_str), Some("ok"));

    // rebirth on the same port: the router must pick the shard back up by
    // itself once the backoff window (≤ 2s) lapses
    let _b1_again = Server::spawn(&a1, &[], &[]);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let reply = ask(&mut conn, &mut reader, &on_dead);
        if reply.contains("\"status\":\"ok\"") {
            break;
        }
        assert!(
            reply.contains(BACKEND_UNAVAILABLE),
            "only the documented error is acceptable while down: {reply}"
        );
        assert!(
            Instant::now() < deadline,
            "restarted backend never rejoined the router"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

// ---------------------------------------------------------------------------
// warm handoff
// ---------------------------------------------------------------------------

#[test]
fn handoff_ships_a_warm_cache_image() {
    let dir = std::env::temp_dir().join(format!("stencil-router-handoff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let donor_log = dir.join("donor.log");
    let new_log = dir.join("warmed.log");
    let _ = std::fs::remove_file(&donor_log);
    let _ = std::fs::remove_file(&new_log);

    let donor = Server::spawn(
        "127.0.0.1:0",
        &["--persist", donor_log.to_str().unwrap()],
        &[],
    );
    let (mut conn, mut reader) = connect(&donor.addr);
    let warm = r#"{"dims":[16,6],"nodes":8,"want_mapping":false}"#;
    assert!(ask(&mut conn, &mut reader, warm).contains("\"cached\":false"));
    assert!(ask(
        &mut conn,
        &mut reader,
        r#"{"dims":[9,9],"nodes":3,"want_mapping":false}"#
    )
    .contains("\"status\":\"ok\""));

    // pull the donor's compacted image into a fresh log file
    let status = Command::new(env!("CARGO_BIN_EXE_stencil-serve"))
        .args([
            "--handoff",
            &donor.addr,
            "--persist",
            new_log.to_str().unwrap(),
        ])
        .status()
        .expect("running --handoff");
    assert!(status.success(), "--handoff must exit 0");

    // a brand-new backend on the shipped log answers the donor's entries warm
    let reborn = Server::spawn(
        "127.0.0.1:0",
        &["--persist", new_log.to_str().unwrap()],
        &[],
    );
    let (mut conn, mut reader) = connect(&reborn.addr);
    let reply = ask(&mut conn, &mut reader, warm);
    assert!(
        reply.contains("\"cached\":true"),
        "handed-off entry must be a warm hit: {reply}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// replicated shards: failover, stats fan-out, live resharding
// ---------------------------------------------------------------------------

/// The tentpole guarantee: with `--replicas 2` over three backends,
/// SIGKILLing any one backend under load yields **zero** error lines and a
/// transcript byte-identical to a single process.  The warm pass writes
/// every miss through to both replicas; after the kill, keys owned by the
/// dead primary fail over to their warm secondary and answer
/// `"cached":true` exactly as the single process does.
#[test]
fn replica_failover_is_invisible_and_byte_identical() {
    let requests = golden_requests();
    let single = Server::spawn("127.0.0.1:0", &[], &[]);
    let mut b1 = Server::spawn("127.0.0.1:0", &[], &[]);
    let b2 = Server::spawn("127.0.0.1:0", &[], &[]);
    let b3 = Server::spawn("127.0.0.1:0", &[], &[]);
    let route = format!("{},{},{}", b1.addr, b2.addr, b3.addr);
    let router = Server::spawn("127.0.0.1:0", &["--route", &route, "--replicas", "2"], &[]);

    // warm pass: byte-identical while everything is up
    let direct_warm = replay(&single.addr, &requests);
    let routed_warm = replay(&router.addr, &requests);
    assert_eq!(direct_warm, routed_warm, "warm pass diverged");

    b1.kill9();

    // every key is now served by its surviving replica — no error lines,
    // still byte-identical to the single process replaying the same lines
    let direct_after = replay(&single.addr, &requests);
    let routed_after = replay(&router.addr, &requests);
    for (i, (d, r)) in direct_after.iter().zip(&routed_after).enumerate() {
        assert!(
            !r.contains(BACKEND_UNAVAILABLE),
            "request {} answered an error line despite a live replica: {r}",
            i + 1
        );
        assert_eq!(
            d,
            r,
            "response {} diverged after backend loss: request {:?}",
            i + 1,
            requests[i]
        );
    }
}

/// A batch item answers as a plain request object even when it carries
/// `"admin"` or `"batch"` keys, which a line on its own would obey: through
/// a one-owner and a two-owner router, cold and warm, the answers are
/// byte-equal to a single process.
#[test]
fn batch_items_with_admin_or_batch_keys_answer_as_request_objects() {
    let batch = r#"{"batch":[{"id":1,"admin":"stats","dims":[12,8],"nodes":8},{"id":2,"batch":[],"dims":[9,8],"nodes":8,"algorithm":"kdtree","want_mapping":false},{"id":3,"admin":"handoff","batch":[1]}]}"#;
    let lines = [batch.to_string(), batch.to_string()];
    let single = Server::spawn("127.0.0.1:0", &[], &[]);
    let direct = replay(&single.addr, &lines);
    assert_eq!(
        direct[0].matches("\"cached\":false").count(),
        2,
        "{direct:?}"
    );
    assert_eq!(
        direct[1].matches("\"cached\":true").count(),
        2,
        "{direct:?}"
    );
    for replicas in ["1", "2"] {
        let backends: Vec<Server> = (0..3)
            .map(|_| Server::spawn("127.0.0.1:0", &[], &[]))
            .collect();
        let specs: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
        let route = specs.join(",");
        let router = Server::spawn(
            "127.0.0.1:0",
            &["--route", &route, "--replicas", replicas],
            &[],
        );
        assert_eq!(
            replay(&router.addr, &lines),
            direct,
            "--replicas {replicas}"
        );
    }
}

/// The stats answer of one backend, asked directly (not through the router).
fn backend_stats(addr: &str) -> (u64, u64, u64) {
    let (mut conn, mut reader) = connect(addr);
    let reply = ask(&mut conn, &mut reader, r#"{"admin":"stats"}"#);
    let v = Value::parse(&reply).unwrap();
    let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap();
    (field("hits"), field("misses"), field("entries"))
}

/// Write-through ships the entry the serving backend computed: after one
/// viem miss through the router, the secondary holds the entry without
/// having computed it (`misses:0`), and once the primary is SIGKILLed the
/// secondary answers `"cached":true`, byte-equal to a single process.  A
/// batch item's miss is shipped the same way.
#[test]
fn write_through_ships_the_entry_and_the_secondary_computes_nothing() {
    let single = Server::spawn("127.0.0.1:0", &[], &[]);
    let mut backends: Vec<Server> = (0..3)
        .map(|_| Server::spawn("127.0.0.1:0", &[], &[]))
        .collect();
    let specs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let router = Server::spawn(
        "127.0.0.1:0",
        &["--route", &specs.join(","), "--replicas", "2"],
        &[],
    );
    let line =
        r#"{"id":5,"dims":[24,20],"nodes":8,"algorithm":"viem","seed":3,"encoding":"compact"}"#;
    let oracle = Router::new(&specs, 2, DEFAULT_ROUTE_TIMEOUT).unwrap();
    let owners = oracle.replica_specs(&Value::parse(line).unwrap());
    let index_of = |spec: &String| specs.iter().position(|s| s == spec).unwrap();
    let (primary, secondary) = (index_of(&owners[0]), index_of(&owners[1]));

    let (mut conn, mut reader) = connect(&router.addr);
    let cold = ask(&mut conn, &mut reader, line);
    assert!(cold.contains("\"cached\":false"), "{cold}");
    assert_eq!(replay(&single.addr, &[line.to_string()]), [cold]);
    assert_eq!(backend_stats(&specs[primary]), (0, 1, 1));
    assert_eq!(
        backend_stats(&specs[secondary]),
        (0, 0, 1),
        "the secondary must absorb the entry, not compute it"
    );

    // a batch item owned by the same pair: its miss ships too
    let item = (1..)
        .map(|seed| {
            format!(
                r#"{{"id":6,"dims":[24,20],"nodes":8,"algorithm":"viem","seed":{}}}"#,
                3 + seed
            )
        })
        .find(|item| oracle.replica_specs(&Value::parse(item).unwrap()) == owners)
        .unwrap();
    let batch = format!(r#"{{"batch":[{item}]}}"#);
    let cold_batch = ask(&mut conn, &mut reader, &batch);
    assert!(cold_batch.contains("\"cached\":false"), "{cold_batch}");
    assert_eq!(
        replay(&single.addr, std::slice::from_ref(&batch)),
        [cold_batch]
    );
    assert_eq!(backend_stats(&specs[primary]), (0, 2, 2));
    assert_eq!(backend_stats(&specs[secondary]), (0, 0, 2));

    backends[primary].kill9();
    let warm = ask(&mut conn, &mut reader, line);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(replay(&single.addr, &[line.to_string()]), [warm]);
    let warm_batch = ask(&mut conn, &mut reader, &batch);
    assert!(warm_batch.contains("\"cached\":true"), "{warm_batch}");
    assert_eq!(replay(&single.addr, &[batch]), [warm_batch]);
}

/// `{"admin":"stats"}` is answered by the router itself: one line
/// aggregating every backend's cache counters and the router's own
/// up/down/backoff view — including `up:false` for a killed backend.
#[test]
fn admin_stats_fans_out_and_aggregates() {
    let mut b1 = Server::spawn("127.0.0.1:0", &[], &[]);
    let b2 = Server::spawn("127.0.0.1:0", &[], &[]);
    let b3 = Server::spawn("127.0.0.1:0", &[], &[]);
    let route = format!("{},{},{}", b1.addr, b2.addr, b3.addr);
    let router = Server::spawn("127.0.0.1:0", &["--route", &route, "--replicas", "2"], &[]);

    let (mut conn, mut reader) = connect(&router.addr);
    let miss = r#"{"dims":[20,4],"nodes":4,"want_mapping":false}"#;
    assert!(ask(&mut conn, &mut reader, miss).contains("\"cached\":false"));
    assert!(ask(&mut conn, &mut reader, miss).contains("\"cached\":true"));

    let reply = ask(&mut conn, &mut reader, r#"{"id":42,"admin":"stats"}"#);
    let v = Value::parse(&reply).expect("stats must be one well-formed line");
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(42));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(v.get("admin").and_then(Value::as_str), Some("stats"));
    assert_eq!(v.get("replicas").and_then(Value::as_u64), Some(2));
    assert_eq!(v.get("up").and_then(Value::as_u64), Some(3));
    // the miss was written through to both replicas: two cached copies
    assert_eq!(v.get("entries").and_then(Value::as_u64), Some(2));
    assert!(v.get("hits").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let per_backend = v.get("backends").and_then(Value::as_arr).unwrap();
    assert_eq!(per_backend.len(), 3);
    assert!(per_backend
        .iter()
        .all(|b| b.get("up").and_then(Value::as_bool) == Some(true)));
    let router_stats = v.get("router").expect("router counters");
    assert!(
        router_stats
            .get("forwarded")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            >= 2
    );
    assert_eq!(router_stats.get("fanouts").and_then(Value::as_u64), Some(1));

    // a killed backend shows up as down in the next aggregate
    b1.kill9();
    let reply = ask(&mut conn, &mut reader, r#"{"admin":"stats"}"#);
    let v = Value::parse(&reply).unwrap();
    assert_eq!(v.get("up").and_then(Value::as_u64), Some(2));
    let down: Vec<_> = v
        .get("backends")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter(|b| b.get("up").and_then(Value::as_bool) == Some(false))
        .map(|b| {
            b.get("backend")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(down, vec![b1.addr.clone()]);
}

/// Sixteen request lines chosen against the *grown* three-backend ring so
/// that exactly eight keys will move to the added backend (ring index 2)
/// and eight stay put.  Ports are assigned dynamically, so the ring — and
/// which `dims` values move — differs per run; picking keys through an
/// in-process ring oracle keeps the moved count deterministic and
/// guarantees the handoff path actually streams something.
fn reshard_keys(specs3: &[String]) -> Vec<String> {
    let oracle = Router::new(specs3, 1, DEFAULT_ROUTE_TIMEOUT).unwrap();
    let (mut movers, mut stayers) = (0usize, 0usize);
    let mut keys = Vec::new();
    for n in 2usize.. {
        let line = format!(r#"{{"dims":[{n},4],"nodes":4,"want_mapping":false}}"#);
        let moves = oracle.route_index(&Value::parse(&line).unwrap()) == 2;
        if moves && movers < 8 {
            movers += 1;
        } else if !moves && stayers < 8 {
            stayers += 1;
        } else if movers == 8 && stayers == 8 {
            break;
        } else {
            continue;
        }
        keys.push(line);
    }
    keys
}

/// Live resharding: `{"admin":"reshard","add":ADDR}` swaps in the grown
/// ring after warm-handing-off exactly the moving key ranges, so keys that
/// change owners stay warm (`"cached":true`, byte-identical responses);
/// `"remove"` shrinks the ring back and the old owners are still warm.
#[test]
fn reshard_moves_key_ranges_warm() {
    let dir = std::env::temp_dir().join(format!("stencil-reshard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let b1 = Server::spawn("127.0.0.1:0", &["--persist", &log("b1.log")], &[]);
    let b2 = Server::spawn("127.0.0.1:0", &["--persist", &log("b2.log")], &[]);
    let b3 = Server::spawn("127.0.0.1:0", &["--persist", &log("b3.log")], &[]);
    let route = format!("{},{}", b1.addr, b2.addr);
    let router = Server::spawn("127.0.0.1:0", &["--route", &route], &[]);

    // warm a spread of keys through the two-backend ring, twice (second
    // pass pins the warm `"cached":true` response bytes)
    let specs3 = [b1.addr.clone(), b2.addr.clone(), b3.addr.clone()];
    let keys = reshard_keys(&specs3);
    replay(&router.addr, &keys);
    let warm = replay(&router.addr, &keys);
    assert!(warm.iter().all(|r| r.contains("\"cached\":true")));

    // grow the ring: the moving ranges must be streamed to b3 before the swap
    let (mut conn, mut reader) = connect(&router.addr);
    let reply = ask(
        &mut conn,
        &mut reader,
        &format!(r#"{{"id":1,"admin":"reshard","add":"{}"}}"#, b3.addr),
    );
    let v = Value::parse(&reply).expect("reshard must answer one well-formed line");
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("ok"),
        "{reply}"
    );
    assert_eq!(v.get("backends").and_then(Value::as_u64), Some(3));
    assert_eq!(v.get("donors").and_then(Value::as_u64), Some(2));
    assert_eq!(v.get("skipped_donors").and_then(Value::as_u64), Some(0));
    assert_eq!(v.get("absorb_errors").and_then(Value::as_u64), Some(0));
    let moved = v.get("moved_entries").and_then(Value::as_u64).unwrap();
    assert_eq!(moved, 8, "exactly the eight oracle-chosen movers must move");

    // every key — moved or not — still answers warm and byte-identically
    let after_add = replay(&router.addr, &keys);
    assert_eq!(warm, after_add, "responses changed across reshard add");

    // the moved ranges really live on b3: it answers its share as hits
    let oracle3 = Router::new(&specs3, 1, DEFAULT_ROUTE_TIMEOUT).unwrap();
    let on_b3: Vec<String> = keys
        .iter()
        .filter(|k| oracle3.route_index(&Value::parse(k).unwrap()) == 2)
        .cloned()
        .collect();
    assert_eq!(on_b3.len() as u64, moved, "moved count must match the ring");
    let direct_b3 = replay(&b3.addr, &on_b3);
    assert!(
        direct_b3.iter().all(|r| r.contains("\"cached\":true")),
        "b3 must hold its absorbed ranges warm: {direct_b3:?}"
    );

    // shrink back: keys return to owners that never dropped them
    let reply = ask(
        &mut conn,
        &mut reader,
        &format!(r#"{{"admin":"reshard","remove":"{}"}}"#, b3.addr),
    );
    let v = Value::parse(&reply).unwrap();
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("ok"),
        "{reply}"
    );
    assert_eq!(v.get("backends").and_then(Value::as_u64), Some(2));
    let after_remove = replay(&router.addr, &keys);
    assert_eq!(
        warm, after_remove,
        "responses changed across reshard remove"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// router crash matrix: kill -9 at every router fault point, prove recovery
// ---------------------------------------------------------------------------

/// Waits for the router child to die at its armed fault point and asserts
/// it was SIGABRT (the in-process `kill -9` stand-in), not a clean exit.
#[cfg(unix)]
fn wait_abort(server: &mut Server) {
    use std::os::unix::process::ExitStatusExt;
    let status = server.child.wait().unwrap();
    assert_eq!(
        status.signal(),
        Some(6),
        "router must abort at the armed fault point, got {status:?}"
    );
    if let Some(d) = server.drain.take() {
        let _ = d.join();
    }
}

/// Sends one line and tolerates the connection dropping without a response
/// — the expected shape when the armed fault point kills the router.
fn fire_expect_drop(addr: &str, line: &str) {
    let (mut conn, mut reader) = connect(addr);
    conn.write_all(line.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    let mut reply = String::new();
    let _ = reader.read_line(&mut reply);
}

/// Forward-path crash points: the router is killed between writing a
/// request to a backend and relaying the response (`router.forward_sent`),
/// or between serving a miss and fanning it out to the other replicas
/// (`router.replica_fanout_partial`).  In both cases the backend keeps the
/// computed entry; a fresh router over the same backends must replay the
/// full workload byte-identically to a single process that also saw the
/// half-done request — with zero unavailable lines.
#[cfg(unix)]
fn forward_crash_recovers(point: &str) {
    let requests = golden_requests();
    let probe = requests[0].clone();
    let single = Server::spawn("127.0.0.1:0", &[], &[]);
    let b1 = Server::spawn("127.0.0.1:0", &[], &[]);
    let b2 = Server::spawn("127.0.0.1:0", &[], &[]);
    let b3 = Server::spawn("127.0.0.1:0", &[], &[]);
    let route = format!("{},{},{}", b1.addr, b2.addr, b3.addr);
    let args = ["--route", &route, "--replicas", "2"];
    let arm = format!("{point}:1");
    let mut doomed = Server::spawn("127.0.0.1:0", &args, &[("STENCIL_FAULTPOINT", &arm)]);

    fire_expect_drop(&doomed.addr, &probe);
    wait_abort(&mut doomed);

    // the backends survived the router's death with the probe cached; the
    // single process sees the probe too, then both replay the whole file
    let recovered = Server::spawn("127.0.0.1:0", &args, &[]);
    let direct = replay(&single.addr, std::slice::from_ref(&probe));
    assert!(direct[0].contains("\"cached\":false"));
    let direct = replay(&single.addr, &requests);
    let routed = replay(&recovered.addr, &requests);
    for (i, (d, r)) in direct.iter().zip(&routed).enumerate() {
        assert!(!r.contains(BACKEND_UNAVAILABLE), "request {}: {r}", i + 1);
        assert_eq!(
            d,
            r,
            "response {} diverged after router crash recovery",
            i + 1
        );
    }
}

#[cfg(unix)]
#[test]
fn crash_at_forward_sent_recovers_byte_identical() {
    forward_crash_recovers("router.forward_sent");
}

#[cfg(unix)]
#[test]
fn crash_at_replica_fanout_partial_recovers_byte_identical() {
    forward_crash_recovers("router.replica_fanout_partial");
}

/// Reshard-path crash points: the router is killed after streaming a warm
/// handoff chunk into the gaining backend (`router.handoff_streamed`) or
/// with the new ring fully prepared but not yet swapped
/// (`router.ring_swap_prepared`).  Nothing was swapped, so a fresh router
/// over the *old* backend set serves every key warm; re-running the
/// reshard completes it (absorb skips the half-streamed entries), and the
/// responses never change.
#[cfg(unix)]
fn reshard_crash_recovers(point: &str) {
    let dir = std::env::temp_dir().join(format!("stencil-crash-{point}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let b1 = Server::spawn("127.0.0.1:0", &["--persist", &log("b1.log")], &[]);
    let b2 = Server::spawn("127.0.0.1:0", &["--persist", &log("b2.log")], &[]);
    let b3 = Server::spawn("127.0.0.1:0", &["--persist", &log("b3.log")], &[]);
    let route = format!("{},{}", b1.addr, b2.addr);
    let args = ["--route", &route];
    let arm = format!("{point}:1");
    let mut doomed = Server::spawn("127.0.0.1:0", &args, &[("STENCIL_FAULTPOINT", &arm)]);

    let keys = reshard_keys(&[b1.addr.clone(), b2.addr.clone(), b3.addr.clone()]);
    replay(&doomed.addr, &keys);
    let warm = replay(&doomed.addr, &keys);
    assert!(warm.iter().all(|r| r.contains("\"cached\":true")));

    let reshard_line = format!(r#"{{"admin":"reshard","add":"{}"}}"#, b3.addr);
    fire_expect_drop(&doomed.addr, &reshard_line);
    wait_abort(&mut doomed);

    // the swap never landed: a fresh router on the old pair is whole
    let recovered = Server::spawn("127.0.0.1:0", &args, &[]);
    assert_eq!(replay(&recovered.addr, &keys), warm, "old ring lost keys");

    // the interrupted reshard re-runs to completion on the fresh router
    let (mut conn, mut reader) = connect(&recovered.addr);
    let reply = ask(&mut conn, &mut reader, &reshard_line);
    let v = Value::parse(&reply).unwrap();
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("ok"),
        "{reply}"
    );
    assert_eq!(v.get("absorb_errors").and_then(Value::as_u64), Some(0));
    assert_eq!(replay(&recovered.addr, &keys), warm, "new ring lost keys");

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn crash_at_handoff_streamed_recovers_and_reshard_completes() {
    reshard_crash_recovers("router.handoff_streamed");
}

#[cfg(unix)]
#[test]
fn crash_at_ring_swap_prepared_recovers_and_reshard_completes() {
    reshard_crash_recovers("router.ring_swap_prepared");
}
