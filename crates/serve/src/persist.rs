//! Write-behind persistence of canonical cache entries.
//!
//! The cache's canonical entries are the expensive part of the service —
//! a p = 4800 multilevel mapping costs ~25 ms to recompute (the `cold_viem`
//! p50 of `servebench/`) but ~6 KB to store.  This module makes them
//! survive restarts with an **append-only log**: every cache insert (a
//! computed miss) and every recency-*changing* cache hit (touches of an
//! already-MRU key replay as no-ops and are skipped, so a hot key costs one
//! record ever) is serialised to one JSON line and handed to a background
//! writer thread over a bounded queue, so the request path never waits on
//! the filesystem.  The writer appends and
//! flushes, so even a `kill -9` loses at most the records still queued; if
//! the disk cannot keep up, records are dropped and counted instead of
//! buffering without bound.
//!
//! On start the log is replayed in order through the fresh cache — inserts
//! insert, touches re-order recency — which reproduces the exact per-shard
//! LRU contents and recency order the previous process had persisted.  The
//! replayed state is then **compacted**: the log is rewritten as one insert
//! record per resident entry, least recently used first per shard, so the
//! file stays proportional to the cache instead of the request history.
//!
//! A long-lived process no longer needs to restart for that: the writer
//! thread also runs **online compaction**.  When the live log passes a byte
//! threshold (`--compact-bytes`), the writer freezes cache mutations via a
//! [`CacheSnapshotter`] (taking every per-shard persistence lock), drains
//! the queue into the old log, writes a fresh compacted log *beside* the
//! live one and atomically swaps it in with a rename, then reopens its
//! append handle on the new file.  Every step preserves the torn-tail skip
//! rules: before the rename the old log is complete and flushed, after the
//! rename the new log is complete and flushed, so a `kill -9` at any byte
//! of the swap recovers to exactly the frozen cache state.  The
//! [`crate::faultpoint`] hooks around each step are what the crash-matrix
//! suite arms to prove that.
//!
//! Records are self-describing JSON lines (node tables in the compact
//! base64 codec of [`crate::json`]); unparseable or inconsistent lines —
//! e.g. the torn tail of a killed writer — are skipped, never fatal.
//!
//! Where this sits in the serve tier — and how the router's warm-handoff
//! path ships a compacted log to warm a new shard — is described in
//! `docs/ARCHITECTURE.md` (persistence section).

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cache::ShardedLru;
use crate::faultpoint;
use crate::json::{decode_nodes_compact, encode_nodes_compact, Value};
use crate::protocol::Algorithm;
use crate::service::{entry_cost, CacheEntry, CacheKey};

/// One replayed log record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A computed entry was inserted under its canonical key.
    Insert(CacheKey, CacheEntry),
    /// A cached entry was served (recency touch).
    Touch(CacheKey),
}

fn key_fields(key: &CacheKey) -> Vec<(&'static str, Value)> {
    vec![
        (
            "dims",
            Value::Arr(key.dims.iter().map(|&d| Value::Num(d as f64)).collect()),
        ),
        (
            "stencil",
            Value::Arr(key.stencil.iter().map(|&o| Value::Num(o as f64)).collect()),
        ),
        ("periodic", Value::Bool(key.periodic)),
        (
            "alloc",
            Value::Arr(key.alloc.iter().map(|&s| Value::Num(s as f64)).collect()),
        ),
        ("algorithm", Value::str(key.algorithm.wire_name())),
        ("seed", Value::Num(key.seed as f64)),
    ]
}

/// Serialises an insert record (one line, no trailing newline).
pub fn insert_line(key: &CacheKey, entry: &CacheEntry) -> String {
    let mut fields = vec![("op", Value::str("insert"))];
    fields.extend(key_fields(key));
    fields.push(("j_sum", Value::Num(entry.j_sum as f64)));
    fields.push(("j_max", Value::Num(entry.j_max as f64)));
    fields.push(("nodes", Value::str(encode_nodes_compact(&entry.nodes))));
    Value::obj(fields).compact()
}

/// Serialises a touch record (one line, no trailing newline).
pub fn touch_line(key: &CacheKey) -> String {
    let mut fields = vec![("op", Value::str("touch"))];
    fields.extend(key_fields(key));
    Value::obj(fields).compact()
}

fn parse_usize_arr(v: &Value, what: &str) -> Result<Vec<usize>, String> {
    v.as_arr()
        .ok_or(format!("{what} must be an array"))?
        .iter()
        .map(|x| {
            x.as_usize()
                .ok_or(format!("{what} entries must be integers"))
        })
        .collect()
}

/// Parses one log line back into a [`Record`], validating it is
/// self-consistent (grid volume matches the node table, node ids stay
/// within the allocation) so a corrupt line can never poison the cache.
pub fn parse_record(line: &str) -> Result<Record, String> {
    let v = Value::parse(line)?;
    let dims = parse_usize_arr(v.get("dims").ok_or("missing dims")?, "dims")?;
    if dims.is_empty() || dims.contains(&0) {
        return Err("invalid dims".to_string());
    }
    // checked product + the same bound live requests obey: a corrupt line
    // must not overflow (debug panic) or smuggle in a grid no request could
    // ever have created
    let volume = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&p| p <= crate::protocol::MAX_GRID_VOLUME)
        .ok_or("grid volume out of range")?;
    let stencil: Vec<i64> = v
        .get("stencil")
        .ok_or("missing stencil")?
        .as_arr()
        .ok_or("stencil must be an array")?
        .iter()
        .map(|x| x.as_i64().ok_or("stencil entries must be integers"))
        .collect::<Result<_, _>>()?;
    if !stencil.len().is_multiple_of(dims.len()) {
        return Err("stencil length does not match dimensionality".to_string());
    }
    let periodic = v
        .get("periodic")
        .and_then(Value::as_bool)
        .ok_or("missing periodic")?;
    let alloc = parse_usize_arr(v.get("alloc").ok_or("missing alloc")?, "alloc")?;
    // node sizes are bounded by the volume (≤ MAX_GRID_VOLUME), so the sum
    // of up to `volume` such entries cannot overflow usize on 64-bit
    if alloc.is_empty()
        || alloc.contains(&0)
        || alloc.len() > volume
        || alloc.iter().any(|&s| s > volume)
        || alloc.iter().sum::<usize>() != volume
    {
        return Err("allocation does not cover the grid".to_string());
    }
    let algorithm = Algorithm::from_wire(
        v.get("algorithm")
            .and_then(Value::as_str)
            .ok_or("missing algorithm")?,
    )?;
    let seed = v
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or("missing seed")?;
    let key = CacheKey {
        dims,
        stencil,
        periodic,
        alloc: alloc.clone(),
        algorithm,
        seed,
    };
    match v.get("op").and_then(Value::as_str) {
        Some("touch") => Ok(Record::Touch(key)),
        Some("insert") => {
            let nodes = decode_nodes_compact(
                v.get("nodes")
                    .and_then(Value::as_str)
                    .ok_or("missing nodes")?,
            )?;
            if nodes.len() != volume {
                return Err(format!(
                    "node table holds {} entries for a volume-{volume} grid",
                    nodes.len()
                ));
            }
            if nodes.iter().any(|&n| n as usize >= key.alloc.len()) {
                return Err("node id outside the allocation".to_string());
            }
            let j_sum = v
                .get("j_sum")
                .and_then(Value::as_u64)
                .ok_or("missing j_sum")?;
            let j_max = v
                .get("j_max")
                .and_then(Value::as_u64)
                .ok_or("missing j_max")?;
            Ok(Record::Insert(key, CacheEntry::new(nodes, j_sum, j_max)))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// What [`load_and_compact`] found in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Records replayed successfully.
    pub replayed: usize,
    /// Lines skipped as unparseable or inconsistent (torn writes).
    pub skipped: usize,
    /// Entries resident after the replay.
    pub entries: usize,
}

/// Replays the log at `path` into `cache` (inserts insert, touches
/// re-order) and rewrites it compacted: one insert record per resident
/// entry, least recently used first per shard, so replaying the rewritten
/// file reproduces the exact per-shard contents and recency.  A missing
/// file is an empty log.  Returns what was replayed.
pub fn load_and_compact(
    path: &Path,
    cache: &ShardedLru<CacheKey, Arc<CacheEntry>>,
) -> Result<LoadReport, String> {
    let mut report = LoadReport::default();
    match File::open(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot open {}: {e}", path.display())),
        Ok(file) => {
            for line in BufReader::new(file).split(b'\n') {
                let line = line.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                if line.iter().all(|b| b.is_ascii_whitespace()) {
                    continue;
                }
                let parsed = std::str::from_utf8(&line)
                    .map_err(|e| e.to_string())
                    .and_then(parse_record);
                match parsed {
                    Ok(Record::Insert(key, entry)) => {
                        // re-derive the GDSF cost (a pure function of the
                        // key) instead of persisting it; ignored under LRU
                        let cost = entry_cost(&key);
                        cache.insert_with_cost(key, Arc::new(entry), cost);
                        report.replayed += 1;
                    }
                    Ok(Record::Touch(key)) => {
                        cache.touch(&key);
                        report.replayed += 1;
                    }
                    Err(_) => report.skipped += 1,
                }
            }
        }
    }
    report.entries = cache.len();

    // compaction: rewrite as the minimal insert sequence reproducing the
    // replayed state, atomically (write-temp + rename) so a crash here
    // cannot lose the old log
    let tmp = path.with_extension("compacting");
    {
        let file =
            File::create(&tmp).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        let mut w = BufWriter::new(file);
        for shard in 0..cache.num_shards() {
            for (key, entry) in cache.shard_entries_lru_first(shard) {
                writeln!(w, "{}", insert_line(&key, &entry))
                    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
            }
        }
        w.flush()
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot replace {}: {e}", path.display()))?;
    Ok(report)
}

enum Msg {
    Line(String),
    Flush(SyncSender<()>),
    Compact(SyncSender<()>),
}

/// How many records may queue between the request path and the writer
/// thread.  If the disk cannot keep up, further records are *dropped and
/// counted* rather than allowed to grow memory without bound — persistence
/// is an optimisation (a dropped record costs a recompute after the next
/// restart), so it must never be able to take the serving path down.
const PERSIST_QUEUE_CAP: usize = 1 << 16;

/// How long appended records may sit in the writer's buffer before a flush
/// (light traffic pays one flush per interval instead of one per record).
const FLUSH_INTERVAL: Duration = Duration::from_millis(50);

/// How many buffered bytes force a flush before the interval elapses, so a
/// burst bounds its unflushed (kill-loss) window by volume as well as time.
const FLUSH_BYTES: u64 = 256 * 1024;

/// Monotonic counters of everything the writer thread has done, for
/// diagnostics and the write-amplification benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistStats {
    /// Records written to the log (appends; compaction snapshots excluded).
    pub appended: u64,
    /// Records lost to a full queue or write errors.
    pub dropped: u64,
    /// `flush` syscalls issued (explicit, interval, byte-threshold and
    /// compaction flushes).
    pub flushes: u64,
    /// Online compactions completed (log rewritten and swapped).
    pub compactions: u64,
}

#[derive(Default)]
struct StatCells {
    appended: AtomicU64,
    dropped: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
}

/// Freezes the cache for online compaction: holds every per-shard
/// persistence lock (the request path holds its shard's lock around each
/// (cache op, record send) pair, so once all locks are held, every applied
/// mutation's record is already in the writer's queue) and hands the writer
/// the compacted insert lines, least recently used first per shard.
#[derive(Clone)]
pub struct CacheSnapshotter {
    cache: Arc<ShardedLru<CacheKey, Arc<CacheEntry>>>,
    locks: Arc<Vec<Mutex<()>>>,
}

impl CacheSnapshotter {
    /// Builds a snapshotter over the service's cache and its per-shard
    /// persistence locks.
    pub fn new(
        cache: Arc<ShardedLru<CacheKey, Arc<CacheEntry>>>,
        locks: Arc<Vec<Mutex<()>>>,
    ) -> CacheSnapshotter {
        CacheSnapshotter { cache, locks }
    }

    /// Runs `f` on the compacted line image of the cache while all cache
    /// mutations (and their record sends) are blocked.
    fn with_frozen<R>(&self, f: impl FnOnce(&[String]) -> R) -> R {
        let _guards: Vec<_> = self
            .locks
            .iter()
            .map(|l| l.lock().expect("persistence shard lock poisoned"))
            .collect();
        let mut lines = Vec::new();
        for shard in 0..self.cache.num_shards() {
            for (key, entry) in self.cache.shard_entries_lru_first(shard) {
                lines.push(insert_line(&key, &entry));
            }
        }
        f(&lines)
    }
}

/// The write-behind log writer: a background thread appending records so
/// the request path only pays one bounded channel send.  Through its
/// [`CacheSnapshotter`] the thread also compacts the log in place (atomic
/// tmp-write + rename swap) whenever it outgrows the configured threshold —
/// see the module docs for the crash-safety argument.
pub struct PersistLog {
    tx: Option<SyncSender<Msg>>,
    handle: Option<std::thread::JoinHandle<()>>,
    stats: Arc<StatCells>,
    path: PathBuf,
}

/// Everything the writer thread owns.
struct WriterState {
    rx: Receiver<Msg>,
    w: BufWriter<File>,
    path: PathBuf,
    /// Bytes in the live log (file + buffered).
    live_bytes: u64,
    /// Bytes written since the last flush.
    unflushed: u64,
    /// Compact once `live_bytes` reaches this (0 = online compaction off).
    compact_at: u64,
    /// The configured threshold `--compact-bytes` (0 = off).
    compact_bytes: u64,
    snapshotter: CacheSnapshotter,
    stats: Arc<StatCells>,
}

impl WriterState {
    fn write_line(&mut self, line: &str) {
        if self.w.write_all(line.as_bytes()).is_err() || self.w.write_all(b"\n").is_err() {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.stats.appended.fetch_add(1, Ordering::Relaxed);
        let bytes = line.len() as u64 + 1;
        self.live_bytes += bytes;
        self.unflushed += bytes;
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
        self.unflushed = 0;
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the live log has outgrown its threshold.
    fn over_threshold(&self) -> bool {
        self.compact_at > 0 && self.live_bytes >= self.compact_at
    }

    /// Online compaction: freeze the cache, drain the queue into the old
    /// log (so it stays complete if the process dies before the swap),
    /// write the compacted image beside it, swap via rename, reopen the
    /// append handle.  Returns the flush/compact acks collected from the
    /// drained queue; the caller sends them once the swap is durable.
    fn compact(&mut self) -> Vec<SyncSender<()>> {
        let snapshotter = self.snapshotter.clone();
        faultpoint::reach("persist.compact.begin");
        let mut acks: Vec<SyncSender<()>> = Vec::new();
        snapshotter.with_frozen(|lines| {
            // 1. Every record sent before the freeze is reflected in the
            // frozen cache (= `lines`), but append the stragglers to the old
            // log anyway and flush: if we die before the rename, the old log
            // alone must replay to the frozen state.
            while let Ok(msg) = self.rx.try_recv() {
                match msg {
                    Msg::Line(line) => self.write_line(&line),
                    Msg::Flush(ack) | Msg::Compact(ack) => acks.push(ack),
                }
            }
            self.flush();
            faultpoint::reach("persist.compact.frozen");

            // 2. The compacted image, beside the live log.
            let tmp = self.path.with_extension("compacting");
            let mut tmp_bytes: u64 = 0;
            let written = (|| -> std::io::Result<()> {
                let mut tw = BufWriter::new(File::create(&tmp)?);
                for (i, line) in lines.iter().enumerate() {
                    tw.write_all(line.as_bytes())?;
                    tw.write_all(b"\n")?;
                    tmp_bytes += line.len() as u64 + 1;
                    if i == 0 {
                        faultpoint::reach("persist.compact.mid_tmp");
                    }
                }
                tw.flush()?;
                Ok(())
            })();
            if let Err(e) = written {
                eprintln!(
                    "stencil-serve: online compaction failed writing {}: {e}",
                    tmp.display()
                );
                // back off: retry only after another threshold's worth
                self.compact_at = self.live_bytes + self.compact_bytes;
                return;
            }
            faultpoint::reach("persist.compact.tmp_written");

            // 3. The atomic swap.
            if let Err(e) = std::fs::rename(&tmp, &self.path) {
                eprintln!(
                    "stencil-serve: online compaction failed swapping {}: {e}",
                    self.path.display()
                );
                self.compact_at = self.live_bytes + self.compact_bytes;
                return;
            }
            faultpoint::reach("persist.compact.renamed");

            // 4. Append to the new file from here on.  Until this open
            // succeeds the handle still points at the unlinked old file —
            // appends would vanish on restart, which is within the queued-
            // records loss contract but worth retiring immediately.
            match OpenOptions::new()
                .append(true)
                .create(true)
                .open(&self.path)
            {
                Ok(file) => {
                    self.w = BufWriter::new(file);
                    self.live_bytes = tmp_bytes;
                    self.unflushed = 0;
                    // classic garbage-vs-live trigger: recompact when the
                    // log doubles, but never below the configured floor
                    self.compact_at = self.compact_bytes.max(tmp_bytes.saturating_mul(2));
                    self.stats.compactions.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    eprintln!(
                        "stencil-serve: cannot reopen {} after compaction: {e}",
                        self.path.display()
                    );
                    self.compact_at = self.live_bytes + self.compact_bytes;
                }
            }
        });
        faultpoint::reach("persist.compact.done");
        acks
    }
}

impl PersistLog {
    /// Opens the log at `path` for appending and spawns the writer thread.
    /// `compact_bytes` is the online-compaction threshold (0 disables it;
    /// [`PersistLog::compact`] still compacts); `snapshotter` freezes and
    /// images the cache for every compaction.
    pub fn open_append(
        path: &Path,
        compact_bytes: u64,
        snapshotter: CacheSnapshotter,
    ) -> Result<PersistLog, String> {
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        let live_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        let (tx, rx): (SyncSender<Msg>, Receiver<Msg>) = sync_channel(PERSIST_QUEUE_CAP);
        let stats = Arc::new(StatCells::default());
        let mut state = WriterState {
            rx,
            w: BufWriter::new(file),
            path: path.to_path_buf(),
            live_bytes,
            unflushed: 0,
            compact_at: compact_bytes,
            compact_bytes,
            snapshotter,
            stats: Arc::clone(&stats),
        };
        let handle = std::thread::spawn(move || {
            let mut dirty = false;
            loop {
                // batch flushes: while dirty, wait at most FLUSH_INTERVAL
                // for more records and flush on the timeout, so light
                // traffic pays one flush per interval, not one per record
                let msg = if dirty {
                    match state.rx.recv_timeout(FLUSH_INTERVAL) {
                        Ok(msg) => Some(msg),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                } else {
                    match state.rx.recv() {
                        Ok(msg) => Some(msg),
                        Err(_) => break,
                    }
                };
                match msg {
                    None => {
                        state.flush();
                        dirty = false;
                    }
                    Some(Msg::Line(line)) => {
                        state.write_line(&line);
                        dirty = true;
                        if state.unflushed >= FLUSH_BYTES {
                            state.flush();
                            dirty = false;
                        }
                        if state.over_threshold() {
                            for ack in state.compact() {
                                let _ = ack.send(());
                            }
                            dirty = false;
                        }
                    }
                    Some(Msg::Flush(ack)) => {
                        faultpoint::reach("persist.flush.before");
                        state.flush();
                        faultpoint::reach("persist.flush.after");
                        dirty = false;
                        let _ = ack.send(());
                    }
                    Some(Msg::Compact(ack)) => {
                        let acks = state.compact();
                        dirty = false;
                        let _ = ack.send(());
                        for ack in acks {
                            let _ = ack.send(());
                        }
                    }
                }
            }
            // channel closed: drain is complete, make it durable
            state.flush();
        });
        Ok(PersistLog {
            tx: Some(tx),
            handle: Some(handle),
            stats,
            path: path.to_path_buf(),
        })
    }

    /// The path of the live log file (the warm-handoff admin request reads
    /// it after a compact-and-flush to ship the whole cache image).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn send(&self, line: String) {
        if let Some(tx) = &self.tx {
            match tx.try_send(Msg::Line(line)) {
                Ok(()) => {}
                // queue full (disk too slow) or writer gone: drop the
                // record rather than block or buffer the serving path
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Queues an insert record (called on every computed miss).
    pub fn record_insert(&self, key: &CacheKey, entry: &CacheEntry) {
        self.send(insert_line(key, entry));
    }

    /// Queues an insert record that is already one line of text, without
    /// its newline, and that [`parse_record`] accepted: an absorbed record
    /// is appended as received instead of being serialised again.
    pub(crate) fn record_insert_line(&self, line: String) {
        self.send(line);
    }

    /// Queues a touch record (called on every cache hit).
    pub fn record_touch(&self, key: &CacheKey) {
        self.send(touch_line(key));
    }

    /// Blocks until every record queued so far has reached the file.
    pub fn flush(&self) {
        if let Some(tx) = &self.tx {
            let (ack_tx, ack_rx) = sync_channel(1);
            if tx.send(Msg::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }

    /// Blocks until the writer has compacted the log.  Used on
    /// drain/shutdown and by the crash tests to trigger compaction at a
    /// deterministic moment.
    pub fn compact(&self) {
        if let Some(tx) = &self.tx {
            let (ack_tx, ack_rx) = sync_channel(1);
            if tx.send(Msg::Compact(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }

    /// Monotonic writer counters (appends, drops, flushes, compactions).
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            appended: self.stats.appended.load(Ordering::Relaxed),
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
        }
    }
}

impl Drop for PersistLog {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            dims: vec![3, 2],
            stencil: vec![1, 0, -1, 0],
            periodic: false,
            alloc: vec![3, 3],
            algorithm: Algorithm::Viem,
            seed,
        }
    }

    fn entry() -> CacheEntry {
        CacheEntry::new(vec![0, 0, 0, 1, 1, 1], 4, 2)
    }

    #[test]
    fn records_roundtrip() {
        let line = insert_line(&key(7), &entry());
        assert_eq!(
            parse_record(&line).unwrap(),
            Record::Insert(key(7), entry())
        );
        let line = touch_line(&key(9));
        assert_eq!(parse_record(&line).unwrap(), Record::Touch(key(9)));
    }

    #[test]
    fn inconsistent_records_are_rejected() {
        let good = insert_line(&key(1), &entry());
        for (mangle, needle) in [
            (good.replace("\"dims\":[3,2]", "\"dims\":[3,3]"), "cover"),
            (good.replace("\"dims\":[3,2]", "\"dims\":[0,6]"), "dims"),
            (good.replace("\"op\":\"insert\"", "\"op\":\"upsert\""), "op"),
            (good.replace("\"alloc\":[3,3]", "\"alloc\":[6]"), "node id"),
            (
                good.replace("\"algorithm\":\"viem\"", "\"algorithm\":\"magic\""),
                "algorithm",
            ),
            // overflowing / oversized grids must be skipped, not trusted
            (
                good.replace(
                    "\"dims\":[3,2]",
                    "\"dims\":[4294967296,4294967296,4294967296]",
                ),
                "volume",
            ),
            (
                good.replace("\"dims\":[3,2]", "\"dims\":[65536,65536]"),
                "volume",
            ),
            (good.replace("\"alloc\":[3,3]", "\"alloc\":[0,6]"), "cover"),
            (good[..good.len() / 2].to_string(), ""),
        ] {
            let err = parse_record(&mangle).unwrap_err();
            assert!(err.contains(needle), "{mangle}: {err}");
        }
    }

    #[test]
    fn log_replays_and_compacts() {
        let dir = std::env::temp_dir().join(format!("stencil-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay.log");
        let _ = std::fs::remove_file(&path);
        {
            // threshold 0 and no compact(): the snapshotter is never used
            let idle = Arc::new(ShardedLru::new(8, 2));
            let log = PersistLog::open_append(&path, 0, snapshotter_for(&idle)).unwrap();
            log.record_insert(&key(1), &entry());
            log.record_insert(&key(2), &entry());
            log.record_touch(&key(1));
            log.flush();
        }
        // torn tail: half a record, as a kill mid-write would leave
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let torn = insert_line(&key(3), &entry());
            f.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        }
        let cache: ShardedLru<CacheKey, Arc<CacheEntry>> = ShardedLru::new(8, 2);
        let report = load_and_compact(&path, &cache).unwrap();
        assert_eq!((report.replayed, report.skipped, report.entries), (3, 1, 2));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_none());
        // the compacted file is pure insert records and replays identically
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(!text.contains("\"op\":\"touch\""));
        let again: ShardedLru<CacheKey, Arc<CacheEntry>> = ShardedLru::new(8, 2);
        load_and_compact(&path, &again).unwrap();
        for shard in 0..cache.num_shards() {
            assert_eq!(
                again
                    .shard_entries_lru_first(shard)
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect::<Vec<_>>(),
                cache
                    .shard_entries_lru_first(shard)
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect::<Vec<_>>()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    fn snapshotter_for(cache: &Arc<ShardedLru<CacheKey, Arc<CacheEntry>>>) -> CacheSnapshotter {
        let locks = Arc::new(
            (0..cache.num_shards())
                .map(|_| Mutex::new(()))
                .collect::<Vec<_>>(),
        );
        CacheSnapshotter::new(Arc::clone(cache), locks)
    }

    /// Explicit online compaction rewrites the log to one insert per
    /// resident entry and keeps appending to the swapped-in file.
    #[test]
    fn explicit_compaction_rewrites_and_keeps_appending() {
        let dir = std::env::temp_dir().join(format!("stencil-persist-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.log");
        let _ = std::fs::remove_file(&path);

        let cache: Arc<ShardedLru<CacheKey, Arc<CacheEntry>>> = Arc::new(ShardedLru::new(8, 2));
        let log = PersistLog::open_append(&path, 0, snapshotter_for(&cache)).unwrap();
        // simulate the service: apply to the cache, then record
        for seed in [1, 2] {
            cache.insert(key(seed), Arc::new(entry()));
            log.record_insert(&key(seed), &entry());
        }
        for _ in 0..20 {
            cache.touch(&key(1));
            log.record_touch(&key(1));
            cache.touch(&key(2));
            log.record_touch(&key(2));
        }
        log.flush();
        assert!(std::fs::read_to_string(&path).unwrap().lines().count() > 20);

        log.compact();
        assert_eq!(log.stats().compactions, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "compacted to one insert per entry");
        assert!(!text.contains("\"op\":\"touch\""));

        // appends keep flowing into the swapped-in file
        cache.insert(key(3), Arc::new(entry()));
        log.record_insert(&key(3), &entry());
        log.flush();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);

        // the swapped log replays to the same per-shard state
        drop(log);
        let reloaded: ShardedLru<CacheKey, Arc<CacheEntry>> = ShardedLru::new(8, 2);
        load_and_compact(&path, &reloaded).unwrap();
        for shard in 0..cache.num_shards() {
            assert_eq!(
                reloaded
                    .shard_entries_lru_first(shard)
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect::<Vec<_>>(),
                cache
                    .shard_entries_lru_first(shard)
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect::<Vec<_>>()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Crossing the byte threshold triggers compaction from the writer
    /// itself, and sustained touch traffic cannot grow the log: three
    /// cycles in, the file still holds just the resident entries.
    #[test]
    fn threshold_compaction_bounds_log_growth_under_touch_traffic() {
        let dir = std::env::temp_dir().join(format!("stencil-persist-t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("threshold.log");
        let _ = std::fs::remove_file(&path);

        const THRESHOLD: u64 = 4096;
        let cache: Arc<ShardedLru<CacheKey, Arc<CacheEntry>>> = Arc::new(ShardedLru::new(8, 2));
        let log = PersistLog::open_append(&path, THRESHOLD, snapshotter_for(&cache)).unwrap();
        for seed in [1, 2] {
            cache.insert(key(seed), Arc::new(entry()));
            log.record_insert(&key(seed), &entry());
        }
        let done_before = crate::faultpoint::hits("persist.compact.done");
        while log.stats().compactions < 3 {
            // alternating touches: every hit changes recency, so every hit
            // appends a record — the sustained-touch worst case
            cache.touch(&key(1));
            log.record_touch(&key(1));
            cache.touch(&key(2));
            log.record_touch(&key(2));
        }
        log.flush();
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(
            size <= THRESHOLD + 2048,
            "log grew to {size} bytes across compactions"
        );
        // the fault-point hit counters observed every cycle
        assert!(crate::faultpoint::hits("persist.compact.done") >= done_before + 3);
        drop(log);
        let reloaded: ShardedLru<CacheKey, Arc<CacheEntry>> = ShardedLru::new(8, 2);
        let report = load_and_compact(&path, &reloaded).unwrap();
        assert_eq!(report.skipped, 0, "swapped logs must replay cleanly");
        assert_eq!(reloaded.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
