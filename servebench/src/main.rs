//! `servebench` — the repository benchmark: three `stencil-serve`
//! workloads driven over TCP (end-to-end metrics), or replayed in process
//! with every layer's entry point timed (`--trace 1`).  See README.md.
//!
//! ```text
//! servebench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! servebench --compare RUN_A.out RUN_B.out
//! ```
//!
//! The last stdout line is the result JSON; the lines before it record the
//! host, its steal and the distributions behind each metric.

mod e2e;
mod load;
mod oracle;
mod procs;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stencil_serve::json::Value;

const USAGE: &str = "\
usage: servebench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
       servebench --compare RUN_A.out RUN_B.out

workloads: hit_serve, cold_viem, routed_mixed
  --compare  prints the metric changes between two saved runs (their stdout);
             refuses runs whose host blocks differ, that failed, or whose
             host steal exceeds the limit";

/// The largest share of an attempt's CPU-seconds the hypervisor may steal.
/// An attempt above it measured the host more than the code: it is
/// discarded and run again.
const MAX_STEAL_SHARE: f64 = 0.05;

/// Another attempt starts only if it would still end this long after the
/// first began, assuming it takes as long as the last one.
const ATTEMPT_BUDGET: Duration = Duration::from_secs(140);

/// One run's metrics (name, value, unit) and the record behind them.
pub struct Outcome {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub detail: Value,
    pub attempted: u64,
    pub failed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        required(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a non-negative integer"))
    };
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace expects 0 or 1".to_string()),
    };
    Ok(Args {
        workload: required("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
        serve_bin: PathBuf::from(required("--serve-bin")?),
    })
}

/// What the results depend on besides the code: refuse to compare runs
/// whose host blocks differ.
fn host_block() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::str(cpu_model)),
        (
            "rayon_threads",
            Value::Num(rayon::current_num_threads() as f64),
        ),
        ("kernel", Value::str(kernel)),
    ])
}

fn run(args: &Args) -> Result<i32, String> {
    let wl = workload::build(&args.workload, args.seed, args.seconds)?;
    println!(
        "servebench: workload={} seed={} seconds={} trace={}",
        wl.name, args.seed, args.seconds, args.trace as u8
    );
    println!("host {}", host_block().compact());
    let started = Instant::now();
    let mut discarded = Vec::new();
    let (outcome, (stolen, share)) = loop {
        let attempt = Instant::now();
        let clock = procs::StealClock::start();
        let dir = procs::RunDir::create()?;
        let outcome = if args.trace {
            trace::run(&wl, &args.serve_bin, &dir)?
        } else {
            e2e::run(&wl, &args.serve_bin, &dir, args.seconds as f64)?
        };
        drop(dir);
        let (stolen, share) = clock.read();
        if share <= MAX_STEAL_SHARE {
            break (outcome, (stolen, share));
        }
        discarded.push(Value::Num(share));
        if started.elapsed() + attempt.elapsed() > ATTEMPT_BUDGET {
            return Err(format!(
                "the host stole more than {}% of the CPU time of each of {} attempts; no result",
                MAX_STEAL_SHARE * 100.0,
                discarded.len()
            ));
        }
        eprintln!(
            "servebench: the host stole {:.1}% of the CPU time of attempt {}; running it again",
            share * 100.0,
            discarded.len()
        );
    };
    let steal = Value::obj(vec![
        ("host_steal_s", Value::Num(stolen)),
        ("share", Value::Num(share)),
        ("max_share", Value::Num(MAX_STEAL_SHARE)),
        ("discarded_shares", Value::Arr(discarded)),
    ]);
    println!("steal {}", steal.compact());
    println!("detail {}", outcome.detail.compact());
    // a deterministic server on loopback has no excuse for a wrong or
    // missing answer: any failure fails the run
    let correct = outcome.failed == 0;
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.as_str(),
                Value::obj(vec![
                    ("value", Value::Num(*value)),
                    ("unit", Value::str(*unit)),
                ]),
            )
        })
        .collect();
    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", result.compact());
    if !correct {
        eprintln!(
            "servebench: {} of {} requests failed",
            outcome.failed, outcome.attempted
        );
    }
    Ok(if correct { 0 } else { 1 })
}

/// The host block, the steal record and the result of one saved run's
/// stdout.
fn saved_run(path: &str) -> Result<(Value, Value, Value), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let tagged = |tag: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(tag))
            .ok_or(format!("{path}: no {tag}line"))
    };
    let (host, steal) = (tagged("host ")?, tagged("steal ")?);
    let result = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{path}: empty"))?;
    let parse = |s: &str| Value::parse(s).map_err(|e| format!("{path}: {e}"));
    Ok((parse(host)?, parse(steal)?, parse(result)?))
}

/// Why a saved run may not be compared, if it may not.
fn unfit(steal: &Value, result: &Value) -> Option<String> {
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Some("it failed its output check".to_string());
    }
    match steal.get("share").and_then(Value::as_f64) {
        Some(share) if share <= MAX_STEAL_SHARE => None,
        Some(share) => Some(format!(
            "the host stole {:.1}% of its CPU time",
            share * 100.0
        )),
        None => Some("it records no steal share".to_string()),
    }
}

fn compare(paths: &[String]) -> Result<i32, String> {
    let [a, b] = paths else {
        return Err("--compare takes two saved runs".to_string());
    };
    let (host_a, steal_a, run_a) = saved_run(a)?;
    let (host_b, steal_b, run_b) = saved_run(b)?;
    for (path, steal, run) in [(a, &steal_a, &run_a), (b, &steal_b, &run_b)] {
        if let Some(why) = unfit(steal, run) {
            eprintln!("servebench: refusing to compare {path}: {why}");
            return Ok(3);
        }
    }
    if host_a != host_b {
        eprintln!(
            "servebench: refusing to compare runs from different hosts:\n  {a}: {}\n  {b}: {}",
            host_a.compact(),
            host_b.compact()
        );
        return Ok(3);
    }
    let metrics = |run: &Value| -> Vec<(String, f64)> {
        match run.get("metrics") {
            Some(Value::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let before = metrics(&run_a);
    for (name, new) in metrics(&run_b) {
        match before.iter().find(|(n, _)| *n == name) {
            Some(&(_, old)) if old != 0.0 => {
                println!(
                    "{name:32} {old:>14.6} {new:>14.6} {:>+8.2}%",
                    (new / old - 1.0) * 100.0
                )
            }
            Some(&(_, old)) => println!("{name:32} {old:>14.6} {new:>14.6}"),
            None => println!("{name:32} {:>14} {new:>14.6}", "-"),
        }
    }
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--compare") {
        compare(&args[1..])
    } else {
        match parse_args(&args) {
            Ok(a) => run(&a),
            Err(e) => {
                eprintln!("servebench: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    };
    // run() has returned, so every server it spawned is killed and the
    // scratch directory removed before the process exits
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
