//! Spawned `stencil-serve` processes, the per-run scratch directory, and
//! what `/proc` says about the processes.

use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::{Topology, ROUTED_BACKENDS, ROUTED_REPLICAS};

/// How long a spawned server may take to print its address.
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a SIGTERMed server may take to drain before it is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// A scratch directory for persist logs and server logs under the working
/// directory (`.bench_run/<pid>`), removed with everything in it on drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create() -> Result<RunDir, String> {
        let path = PathBuf::from(".bench_run").join(std::process::id().to_string());
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let path = path
            .canonicalize()
            .map_err(|e| format!("cannot resolve {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // the parent goes too once no other run uses it
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

mod ffi {
    extern "C" {
        // `kill(2)`, `sysconf(3)` and `prctl(2)` from the libc std already
        // links.
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn sysconf(name: i32) -> i64;
        pub fn prctl(option: i32, ...) -> i32;
    }
    pub const SIGKILL: i32 = 9;
    pub const SIGTERM: i32 = 15;
    pub const SC_CLK_TCK: i32 = 2;
    pub const PR_SET_PDEATHSIG: i32 = 1;
}

/// Clock ticks per second of the CPU times in `/proc/PID/stat`.
pub fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf only reads a configuration value.
    let ticks = unsafe { ffi::sysconf(ffi::SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Clock ticks the hypervisor gave to other guests while this one's CPUs
/// wanted to run (`steal` in `/proc/stat`; 0 where unavailable).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            // cpu user nice system idle iowait irq softirq steal ...
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Hypervisor steal over a stretch of time.  A stretch with much steal
/// measured the host more than the code.
pub struct StealClock {
    ticks: u64,
    start: Instant,
}

impl StealClock {
    pub fn start() -> StealClock {
        StealClock {
            ticks: steal_ticks(),
            start: Instant::now(),
        }
    }

    /// Stolen seconds since `start`, and their share of the CPU-seconds
    /// all CPUs had in that time.
    pub fn read(&self) -> (f64, f64) {
        let stolen = steal_ticks().saturating_sub(self.ticks) as f64 / clock_ticks_per_second();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_seconds = cpus as f64 * self.start.elapsed().as_secs_f64();
        (stolen, stolen / cpu_seconds.max(1e-9))
    }
}

/// One spawned server.  Killed (SIGKILL) and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawns `bin --listen 127.0.0.1:0 args…` with stderr going to `log`
    /// and waits for the "listening on ADDR" banner.
    pub fn spawn(bin: &Path, args: &[String], log: PathBuf) -> Result<Server, String> {
        let stderr =
            File::create(&log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut command = Command::new(bin);
        command
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        // SAFETY: the closure runs between fork and exec and only calls
        // prctl(2), which is async-signal-safe and touches no memory of
        // ours.  It makes the kernel kill the server if the benchmark dies
        // without running its destructors (every server is spawned from
        // the main thread, which lives as long as the process).
        unsafe {
            command.pre_exec(|| {
                if ffi::prctl(ffi::PR_SET_PDEATHSIG, ffi::SIGKILL as u64) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let start = Instant::now();
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            // the banner may be read half-written: wait for its newline
            if let Some((addr, _)) = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'))
            {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "{} exited ({status}) before listening: {}",
                    bin.display(),
                    text.trim()
                ));
            }
            if start.elapsed() > BANNER_TIMEOUT {
                return Err(format!("{} printed no address", bin.display()));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then wait for the drain (persist flush and compaction).
    pub fn terminate(mut self) -> Result<(), String> {
        // SAFETY: kill only sends a signal to our own child's pid, which
        // has not been reaped yet (we hold the Child).
        unsafe {
            ffi::kill(self.child.id() as i32, ffi::SIGTERM);
        }
        let start = Instant::now();
        while start.elapsed() < DRAIN_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server drain exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        Err("server did not drain on SIGTERM".to_string())
    }

    /// User + system CPU time in clock ticks.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("cannot read /proc stat: {e}"))?;
        // fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15 (stat(5))
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let field = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok(field(11)? + field(12)?)
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The servers of one topology; `front` is the address clients connect to.
pub struct Cluster {
    /// Backends first, the router (if any) last.
    pub servers: Vec<Server>,
}

impl Cluster {
    /// Starts `topology`.  The routed backends persist to
    /// `backend<i>.log` in `dir`, replaying whatever an earlier cluster
    /// left there.
    pub fn start(
        bin: &Path,
        topology: Topology,
        dir: &RunDir,
        tag: &str,
    ) -> Result<Cluster, String> {
        let capacity = topology.cache_capacity().to_string();
        let mut servers = Vec::new();
        match topology {
            Topology::Single { .. } => {
                let args = vec!["--cache-capacity".to_string(), capacity];
                servers.push(Server::spawn(
                    bin,
                    &args,
                    dir.file(&format!("{tag}.server.err")),
                )?);
            }
            Topology::Routed { .. } => {
                for i in 0..ROUTED_BACKENDS {
                    let log = dir.file(&format!("backend{i}.log"));
                    let args = vec![
                        "--cache-capacity".to_string(),
                        capacity.clone(),
                        "--persist".to_string(),
                        log.display().to_string(),
                    ];
                    servers.push(Server::spawn(
                        bin,
                        &args,
                        dir.file(&format!("{tag}.backend{i}.err")),
                    )?);
                }
                let specs: Vec<String> = servers.iter().map(|s| s.addr.clone()).collect();
                let args = vec![
                    "--route".to_string(),
                    specs.join(","),
                    "--replicas".to_string(),
                    ROUTED_REPLICAS.to_string(),
                ];
                servers.push(Server::spawn(
                    bin,
                    &args,
                    dir.file(&format!("{tag}.router.err")),
                )?);
            }
        }
        Ok(Cluster { servers })
    }

    pub fn front(&self) -> &str {
        &self.servers.last().expect("a cluster has a server").addr
    }

    /// SIGTERM every server, router first, and wait for the drains.
    pub fn terminate(mut self) -> Result<(), String> {
        while let Some(server) = self.servers.pop() {
            server.terminate()?;
        }
        Ok(())
    }

    pub fn cpu_ticks(&self) -> Result<u64, String> {
        self.servers.iter().map(Server::cpu_ticks).sum()
    }

    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        self.servers.iter().map(Server::peak_rss_kib).sum()
    }
}
