//! The end-to-end run: set up the servers several times, drive the timed
//! phase over TCP, then let the oracle check every answer.

use std::path::Path;
use std::time::Instant;

use cluster_sim::stats;
use stencil_serve::json::Value;

use crate::load::{closed_loop, open_loop, send_sequential};
use crate::oracle::{hit_form, judge};
use crate::procs::{clock_ticks_per_second, Cluster, RunDir};
use crate::workload::{Load, Pick, Topology, Workload};
use crate::Outcome;

/// Latency percentiles need this many samples beyond them.
const TAIL_SAMPLES: usize = 10;

/// The tail percentiles reported, highest first.  A coarse ladder keeps
/// the reported percentile the same from run to run when the sample count
/// wobbles.
const TAIL_LADDER: [u32; 4] = [99, 95, 90, 50];

/// The highest percentile of [`TAIL_LADDER`], up to `cap`, with at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it.
fn tail_percentile(n: usize, cap: u32) -> u32 {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= TAIL_SAMPLES as f64)
        .unwrap_or(50)
}

/// Stops a set-up's cluster: a routed pool drains on SIGTERM so its
/// persist logs are compacted for the next set-up to replay.
fn stop(cluster: Cluster, topology: Topology) -> Result<(), String> {
    match topology {
        Topology::Routed { .. } => cluster.terminate(),
        Topology::Single { .. } => {
            drop(cluster);
            Ok(())
        }
    }
}

pub fn run(wl: &Workload, bin: &Path, dir: &RunDir, seconds: f64) -> Result<Outcome, String> {
    if let Topology::Routed { .. } = wl.topology {
        // an untimed cold start leaves the persist logs the timed set-ups
        // replay, so every timed set-up restarts from the same state
        let cluster = Cluster::start(bin, wl.topology, dir, "prep")?;
        send_sequential(cluster.front(), wl, &wl.warm)?;
        cluster.terminate()?;
    }
    let mut setup_s = Vec::with_capacity(wl.setups);
    let mut current: Option<(Cluster, Vec<Vec<u8>>)> = None;
    for k in 0..wl.setups {
        if let Some((cluster, _)) = current.take() {
            stop(cluster, wl.topology)?;
        }
        let t0 = Instant::now();
        let cluster = Cluster::start(bin, wl.topology, dir, &format!("setup{k}"))?;
        let answers = send_sequential(cluster.front(), wl, &wl.warm)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        current = Some((cluster, answers));
    }
    let (cluster, answers) = current.ok_or("a workload sets up at least once")?;

    let mut refs: Vec<Option<Vec<u8>>> = vec![None; wl.lines.len()];
    for (&line, answer) in wl.warm.iter().zip(answers) {
        refs[line].get_or_insert(answer);
    }
    let refs_hit: Vec<Option<Vec<u8>>> = refs.iter().map(|r| r.as_deref().map(hit_form)).collect();

    let cpu_before = cluster.cpu_ticks()?;
    let (mut capture, start) = match &wl.load {
        Load::Closed { conns, pick } => {
            closed_loop(cluster.front(), wl, &refs_hit, *conns, pick, seconds)?
        }
        Load::Open { rate, sequence } => {
            open_loop(cluster.front(), wl, &refs_hit, sequence, *rate)?
        }
    };
    let cpu_ticks = cluster.cpu_ticks()? - cpu_before;
    let rss_kib = cluster.peak_rss_kib()?;
    // the quality totals need a fixed prefix of fresh keys; on a host too
    // slow to serve it in the timed phase, the rest is requested untimed
    if let (
        Load::Closed {
            pick: Pick::Fresh(range),
            ..
        },
        Some(limit),
    ) = (&wl.load, wl.quality_limit)
    {
        let next = capture
            .fresh
            .iter()
            .map(|&(line, _)| line + 1)
            .max()
            .unwrap_or(range.start);
        let missing: Vec<usize> = (next..range.start + limit).collect();
        let answers = send_sequential(cluster.front(), wl, &missing)?;
        capture.fresh.extend(missing.into_iter().zip(answers));
    }
    drop(cluster);

    let verdict = judge(wl, &refs, &capture);
    let completed = capture.completed();
    if completed == 0 {
        return Err(format!("no request completed: {:?}", verdict.errors));
    }
    let attempted = completed + capture.unanswered;
    let elapsed = capture
        .done
        .iter()
        .max()
        .map_or(0.0, |end| end.duration_since(start).as_secs_f64());
    let lat = &capture.latencies_ms;
    // every figure covers the whole timed phase: a stall the program causes
    // (a persist compaction, a slow miss) shows however short it is
    let pct = tail_percentile(lat.len(), wl.tail);
    let throughput = completed as f64 / elapsed;
    let p50 = stats::median(lat);
    let tail = stats::quantile(lat, pct as f64 / 100.0);
    let mut per_second = vec![0u64; elapsed.ceil() as usize];
    for d in &capture.done {
        if let Some(n) = per_second.get_mut(d.duration_since(start).as_secs() as usize) {
            *n += 1;
        }
    }
    let setup = stats::Summary::of_filtered(&setup_s);
    let filtered = stats::Summary::of_filtered(lat);
    let metrics = vec![
        ("setup_s", setup.median, "s"),
        ("throughput_rps", throughput, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p99_ms", tail, "ms"),
        (
            "ok_rate",
            1.0 - verdict.failed as f64 / attempted as f64,
            "ratio",
        ),
        ("jsum_total", verdict.jsum_total as f64, "count"),
        ("jmax_total", verdict.jmax_total as f64, "count"),
        (
            "server_cpu_ms_per_req",
            cpu_ticks as f64 / clock_ticks_per_second() * 1e3 / completed as f64,
            "ms",
        ),
        ("server_rss_mb", rss_kib as f64 / 1024.0, "MB"),
    ]
    .into_iter()
    .map(|(name, value, unit)| (name.to_string(), value, unit))
    .collect();
    let num = |x: f64| Value::Num(x);
    let detail = Value::obj(vec![
        (
            "setup_s",
            Value::obj(vec![
                ("n", num(setup_s.len() as f64)),
                (
                    "samples",
                    Value::Arr(setup_s.iter().map(|&s| num(s)).collect()),
                ),
            ]),
        ),
        (
            "latency_ms",
            Value::obj(vec![
                ("n", num(lat.len() as f64)),
                ("p50", num(p50)),
                ("tail_percentile", Value::str(format!("p{pct}"))),
                ("tail", num(tail)),
                ("max", num(lat.iter().copied().fold(0.0, f64::max))),
                ("filtered_n", num(filtered.n as f64)),
                ("filtered_mean", num(filtered.mean)),
                ("filtered_mean_ci95", num(filtered.mean_ci95)),
            ]),
        ),
        ("timed_s", num(elapsed)),
        (
            "completed_per_second",
            Value::Arr(per_second.into_iter().map(|n| num(n as f64)).collect()),
        ),
        ("completed", num(completed as f64)),
        ("deviant_answers", num(capture.deviants.len() as f64)),
        ("fresh_answers", num(capture.fresh.len() as f64)),
        ("quality_mappings", num(verdict.quality_mappings as f64)),
        ("max_send_lag_ms", num(capture.max_send_lag_ms)),
        (
            "errors",
            Value::Arr(
                verdict
                    .errors
                    .iter()
                    .map(|e| Value::str(e.clone()))
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        metrics,
        detail,
        attempted,
        failed: verdict.failed,
    })
}
