//! Perf-regression gates over the committed `BENCH_*.json` baselines.
//!
//! CI regenerates the perf documents ([`perf_baseline`](../bin/perf_baseline.rs)
//! for the engine, [`loadgen`](../bin/loadgen.rs) for the mapping service)
//! and compares them against the committed baselines: the build fails when a
//! gated metric regresses beyond the allowed fraction.  The gated entries
//! are listed in one place — [`GATED_PARTITIONER_METRICS`] and
//! [`GATED_SERVE_METRICS`] — so adding a gate is a one-line change.  The
//! selection is deliberately narrow: sub-millisecond instantiation timings
//! are too noisy to gate on.

use stencil_serve::json::Value;

/// One gated metric: where it lives in the JSON document and which direction
/// is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatedMetric {
    /// Top-level section holding a flat object.
    pub section: &'static str,
    /// Key within the section.
    pub key: &'static str,
    /// `true` for throughput-style metrics (a *drop* is a regression),
    /// `false` for time-style metrics (a *rise* is a regression).
    pub higher_is_better: bool,
}

/// The partitioner timings gated in `BENCH_mapping.json` (times: lower is
/// better).  Shared by `perf_baseline`'s consumers and `perf_check` so the
/// two can never drift apart.
pub const GATED_PARTITIONER_METRICS: &[GatedMetric] = &[
    GatedMetric {
        section: "partitioner",
        key: "parallel_s",
        higher_is_better: false,
    },
    GatedMetric {
        section: "partitioner",
        key: "sequential_s",
        higher_is_better: false,
    },
    GatedMetric {
        section: "partitioner_large",
        key: "single_core_s",
        higher_is_better: false,
    },
    GatedMetric {
        section: "partitioner_xl",
        key: "single_core_s",
        higher_is_better: false,
    },
];

/// Scale guards for the partitioner document: these keys must agree between
/// baseline and current, otherwise the timings are incomparable.
pub const PARTITIONER_SCALE_GUARDS: &[(&str, &str)] = &[
    ("partitioner", "processes"),
    ("partitioner_large", "processes"),
    ("partitioner_xl", "processes"),
];

/// Absolute wall-clock ceilings for the partitioner document, checked against
/// the *current* measurement (the relative gates above only catch drift from
/// the committed baseline, so repeated small regressions could creep past any
/// budget).  The xl ceiling is the acceptance criterion of the coarsening
/// rework: p = 10^6 split into k = 10^4 parts must finish in at most 9 s on a
/// single core; the large instance (p = 10^5, k = 10^3) must stay under
/// 1.9 s.  `--quick` documents measure a scaled-down xl instance, so their
/// (much faster) timing passes these ceilings trivially — the relative gates'
/// scale guards already prevent quick and full documents from being compared.
pub const PARTITIONER_ABSOLUTE_CEILINGS: &[(&str, &str, f64)] = &[
    ("partitioner_xl", "single_core_s", 9.0),
    ("partitioner_large", "single_core_s", 1.9),
];

/// The mapping-service metrics gated in `BENCH_serve.json`: cache-hit
/// throughput in every response mode — full table, compact encoding and
/// `new_rank_of` point lookups — must not collapse, and the persistence log
/// replay (entries restored per second on restart) must stay fast (higher is
/// better throughout).
pub const GATED_SERVE_METRICS: &[GatedMetric] = &[
    GatedMetric {
        section: "cache_hit",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "cache_hit_compact",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "new_rank_of",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "persistence",
        key: "reload_entries_per_s",
        higher_is_better: true,
    },
    GatedMetric {
        section: "tcp_hit",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "routed_hit",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "routed_replica_hit",
        key: "throughput_rps",
        higher_is_better: true,
    },
];

/// Scale guards for the serve document.
pub const SERVE_SCALE_GUARDS: &[(&str, &str)] = &[
    ("cache_hit", "processes"),
    ("cache_hit_compact", "processes"),
    ("new_rank_of", "processes"),
    ("persistence", "entries"),
    ("routed_hit", "processes"),
    ("routed_hit", "backends"),
    ("routed_replica_hit", "processes"),
    ("routed_replica_hit", "backends"),
    ("routed_replica_hit", "replicas"),
];

/// Absolute throughput floors for the serve document, checked against the
/// *current* measurement (the relative gates above only catch drift from
/// the committed baseline).  The routed-hit floor is the acceptance
/// criterion of the router work: p = 4800 cache hits through the router
/// must sustain at least 10k req/s; the replicated router — which writes
/// every miss through to two replicas but serves hits from the primary
/// alone — must sustain at least 8k req/s over three backends.
pub const SERVE_ABSOLUTE_FLOORS: &[(&str, &str, f64)] = &[
    ("routed_hit", "throughput_rps", 10_000.0),
    ("routed_replica_hit", "throughput_rps", 8_000.0),
];

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Human-readable metric label, e.g. `partitioner.parallel_s`.
    pub label: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Direction of the underlying metric.
    pub higher_is_better: bool,
    /// Whether the current value is within the allowed regression.
    pub ok: bool,
}

impl CheckOutcome {
    /// Relative change of the current value over the baseline (`+0.10` =
    /// 10% higher).
    pub fn change(&self) -> f64 {
        self.current / self.baseline - 1.0
    }

    /// Formats the outcome as one report line.
    pub fn render(&self) -> String {
        format!(
            "{:<34} baseline {:>12.6}, current {:>12.6} ({:+6.1}%) {}",
            self.label,
            self.baseline,
            self.current,
            self.change() * 100.0,
            if self.ok { "ok" } else { "REGRESSION" }
        )
    }
}

/// The number stored under `key` in the object stored under the top-level
/// `section` of a parsed perf document.  `None` when the section is absent,
/// holds no object (`"partitioner_large": null` in `--quick` runs), or does
/// not itself hold `key` as a number.
fn extract_number(doc: &Value, section: &str, key: &str) -> Option<f64> {
    doc.get(section)?.get(key)?.as_f64()
}

/// Parses both documents once.  A document that does not parse (e.g. one
/// truncated by an interrupted run) is an error naming which side failed,
/// never a silently shorter list of gates.
fn parse_documents(baseline: &str, current: &str) -> Result<(Value, Value), String> {
    let parse = |which: &str, text: &str| {
        Value::parse(text).map_err(|e| format!("the {which} document is not valid JSON: {e}"))
    };
    Ok((parse("baseline", baseline)?, parse("current", current)?))
}

/// Compares the gated `metrics` of two parsed perf documents.
///
/// `max_regression` is the allowed fractional regression (0.25 = a 25%
/// slowdown for time metrics, a 25% throughput drop for rate metrics).  The
/// `scale_guards` keys must agree between the two documents when present in
/// both, otherwise the comparison is meaningless and an error is returned.
/// Metrics present in only one of the documents are skipped; it is an error
/// when *no* gated metric is comparable.
pub fn check_metrics(
    baseline: &Value,
    current: &Value,
    max_regression: f64,
    metrics: &[GatedMetric],
    scale_guards: &[(&str, &str)],
) -> Result<Vec<CheckOutcome>, String> {
    for &(section, key) in scale_guards {
        let b = extract_number(baseline, section, key);
        let c = extract_number(current, section, key);
        if let (Some(b), Some(c)) = (b, c) {
            if b != c {
                return Err(format!(
                    "{section}.{key}: baseline measured {b} but current measured {c}; \
                     re-run both at the same scale"
                ));
            }
        }
    }
    let mut outcomes = Vec::new();
    for m in metrics {
        let (Some(b), Some(c)) = (
            extract_number(baseline, m.section, m.key),
            extract_number(current, m.section, m.key),
        ) else {
            continue;
        };
        if b <= 0.0 {
            return Err(format!(
                "{}.{}: non-positive baseline {b}",
                m.section, m.key
            ));
        }
        let ok = if m.higher_is_better {
            c >= b * (1.0 - max_regression)
        } else {
            c <= b * (1.0 + max_regression)
        };
        outcomes.push(CheckOutcome {
            label: format!("{}.{}", m.section, m.key),
            baseline: b,
            current: c,
            higher_is_better: m.higher_is_better,
            ok,
        });
    }
    if outcomes.is_empty() {
        return Err("no comparable gated metrics found in the two documents".to_string());
    }
    Ok(outcomes)
}

/// Checks the absolute `limits` against the current document: floors when
/// `higher_is_better`, ceilings otherwise.  A limited metric the document
/// does not carry is skipped.
fn check_limits(
    current: &Value,
    limits: &[(&str, &str, f64)],
    higher_is_better: bool,
) -> Vec<CheckOutcome> {
    let kind = if higher_is_better { "floor" } else { "ceiling" };
    limits
        .iter()
        .filter_map(|&(section, key, limit)| {
            let c = extract_number(current, section, key)?;
            Some(CheckOutcome {
                label: format!("{section}.{key} ({kind})"),
                baseline: limit,
                current: c,
                higher_is_better,
                ok: if higher_is_better {
                    c >= limit
                } else {
                    c <= limit
                },
            })
        })
        .collect()
}

/// Compares the partitioner timings of two `BENCH_mapping.json` documents
/// ([`GATED_PARTITIONER_METRICS`]), then applies the
/// [`PARTITIONER_ABSOLUTE_CEILINGS`] to the current document: a ceilinged
/// timing that is present but above its ceiling fails even when the committed
/// baseline had already regressed.
pub fn check_partitioner(
    baseline: &str,
    current: &str,
    max_regression: f64,
) -> Result<Vec<CheckOutcome>, String> {
    let (baseline, current) = parse_documents(baseline, current)?;
    let mut outcomes = check_metrics(
        &baseline,
        &current,
        max_regression,
        GATED_PARTITIONER_METRICS,
        PARTITIONER_SCALE_GUARDS,
    )?;
    outcomes.extend(check_limits(&current, PARTITIONER_ABSOLUTE_CEILINGS, false));
    Ok(outcomes)
}

/// Compares the mapping-service metrics of two `BENCH_serve.json` documents
/// ([`GATED_SERVE_METRICS`]), then applies the [`SERVE_ABSOLUTE_FLOORS`]
/// to the current document: a floored metric that is present but below its
/// floor fails even when the committed baseline had already regressed.
pub fn check_serve(
    baseline: &str,
    current: &str,
    max_regression: f64,
) -> Result<Vec<CheckOutcome>, String> {
    let (baseline, current) = parse_documents(baseline, current)?;
    let mut outcomes = check_metrics(
        &baseline,
        &current,
        max_regression,
        GATED_SERVE_METRICS,
        SERVE_SCALE_GUARDS,
    )?;
    outcomes.extend(check_limits(&current, SERVE_ABSOLUTE_FLOORS, true));
    Ok(outcomes)
}

/// Renders the outcomes as a GitHub-flavoured markdown table (written to
/// `$GITHUB_STEP_SUMMARY` by the `perf_check` binary so every gated entry is
/// visible at a glance).
pub fn summary_markdown(outcomes: &[CheckOutcome]) -> String {
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                format!("{:.6}", o.baseline),
                format!("{:.6}", o.current),
                format!("{:+.1}%", o.change() * 100.0),
                if o.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
                .to_string(),
                if o.ok { "✅ ok" } else { "❌ REGRESSION" }.to_string(),
            ]
        })
        .collect();
    crate::report::format_markdown_table(
        &[
            "metric", "baseline", "current", "change", "better", "status",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "schema": "stencilmap/perf-baseline/v1",
  "partitioner": {
    "processes": 4800,
    "parallel_s": 0.04,
    "sequential_s": 0.05
  },
  "partitioner_large": {
    "processes": 100000,
    "parts": 1000,
    "single_core_s": 1.8
  },
  "partitioner_xl": {
    "processes": 1000000,
    "parts": 10000,
    "single_core_s": 8.5
  }
}"#;

    const SERVE_DOC: &str = r#"{
  "schema": "stencilmap/serve-loadgen/v1",
  "cache_hit": {
    "processes": 4800,
    "requests": 2000,
    "throughput_rps": 50000,
    "p50_s": 0.00002
  },
  "cache_hit_compact": {
    "processes": 4800,
    "throughput_rps": 200000
  },
  "new_rank_of": {
    "processes": 4800,
    "throughput_rps": 300000
  },
  "persistence": {
    "processes": 4800,
    "entries": 256,
    "reload_entries_per_s": 40000
  },
  "tcp_hit": {
    "processes": 4800,
    "throughput_rps": 150000
  },
  "routed_hit": {
    "processes": 4800,
    "backends": 2,
    "throughput_rps": 20000
  },
  "routed_replica_hit": {
    "processes": 4800,
    "backends": 3,
    "replicas": 2,
    "throughput_rps": 15000
  }
}"#;

    /// The committed baselines, as `perf_baseline` and `loadgen` wrote them.
    const COMMITTED_MAPPING: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_mapping.json"
    ));
    const COMMITTED_SERVE: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve.json"
    ));

    #[test]
    fn extract_number_finds_section_scoped_keys() {
        let doc = Value::parse(DOC).unwrap();
        assert_eq!(
            extract_number(&doc, "partitioner", "processes"),
            Some(4800.0)
        );
        assert_eq!(
            extract_number(&doc, "partitioner", "parallel_s"),
            Some(0.04)
        );
        assert_eq!(
            extract_number(&doc, "partitioner_large", "single_core_s"),
            Some(1.8)
        );
        assert_eq!(
            extract_number(&doc, "partitioner_xl", "single_core_s"),
            Some(8.5)
        );
        assert_eq!(extract_number(&doc, "partitioner", "missing"), None);
        assert_eq!(extract_number(&doc, "absent_section", "processes"), None);
        // a key that only exists in a *later* section must not leak in
        assert_eq!(extract_number(&doc, "partitioner", "single_core_s"), None);
        // a section holding null (quick runs) yields no values
        let quick = Value::parse(&DOC.replace(
            "{\n    \"processes\": 100000,\n    \"parts\": 1000,\n    \"single_core_s\": 1.8\n  }",
            "null",
        ))
        .unwrap();
        assert_eq!(quick.get("partitioner_large"), Some(&Value::Null));
        assert_eq!(
            extract_number(&quick, "partitioner_large", "processes"),
            None
        );
        assert_eq!(
            extract_number(&quick, "partitioner", "processes"),
            Some(4800.0)
        );
    }

    #[test]
    fn committed_documents_roundtrip_byte_for_byte() {
        // the documents are written with `Value::pretty`; parsing and
        // re-printing them must reproduce every byte, so the layout the
        // baselines were committed in cannot drift
        for (name, text) in [
            ("BENCH_mapping.json", COMMITTED_MAPPING),
            ("BENCH_serve.json", COMMITTED_SERVE),
        ] {
            let doc = Value::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(doc.pretty() == text, "{name} does not round-trip");
        }
    }

    #[test]
    fn committed_documents_pass_every_gate_against_themselves() {
        let mapping = check_partitioner(COMMITTED_MAPPING, COMMITTED_MAPPING, 0.25).unwrap();
        assert_eq!(
            mapping.len(),
            GATED_PARTITIONER_METRICS.len() + PARTITIONER_ABSOLUTE_CEILINGS.len()
        );
        let serve = check_serve(COMMITTED_SERVE, COMMITTED_SERVE, 0.25).unwrap();
        assert_eq!(
            serve.len(),
            GATED_SERVE_METRICS.len() + SERVE_ABSOLUTE_FLOORS.len()
        );
        assert!(mapping.iter().chain(&serve).all(|o| o.ok));
    }

    #[test]
    fn truncated_serve_document_is_an_error_not_fewer_gates() {
        // an interrupted loadgen run leaves the first half of the document
        let half = &COMMITTED_SERVE[..COMMITTED_SERVE.len() / 2];
        let err = check_serve(COMMITTED_SERVE, half, 0.25).unwrap_err();
        assert!(err.contains("current document"), "{err}");
        let err = check_serve(half, COMMITTED_SERVE, 0.25).unwrap_err();
        assert!(err.contains("baseline document"), "{err}");
    }

    #[test]
    fn truncated_mapping_document_is_an_error_not_fewer_gates() {
        // cut inside `partitioner_xl`, before its gated timing: the xl gate
        // and its 9 s ceiling must not silently drop out
        let cut = &COMMITTED_MAPPING[..COMMITTED_MAPPING.rfind("\"single_core_s\"").unwrap()];
        assert!(cut.contains("\"partitioner_xl\""));
        let err = check_partitioner(COMMITTED_MAPPING, cut, 0.25).unwrap_err();
        assert!(err.contains("current document"), "{err}");
        let err = check_partitioner(cut, COMMITTED_MAPPING, 0.25).unwrap_err();
        assert!(err.contains("baseline document"), "{err}");
    }

    #[test]
    fn identical_documents_pass() {
        let outcomes = check_partitioner(DOC, DOC, 0.25).unwrap();
        assert_eq!(
            outcomes.len(),
            GATED_PARTITIONER_METRICS.len() + PARTITIONER_ABSOLUTE_CEILINGS.len()
        );
        assert!(outcomes.iter().all(|o| o.ok));
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let slow = DOC.replace("\"parallel_s\": 0.04", "\"parallel_s\": 0.06");
        let outcomes = check_partitioner(DOC, &slow, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "partitioner.parallel_s");
        assert!(bad[0].render().contains("REGRESSION"));
        // a 50% budget tolerates it
        assert!(check_partitioner(DOC, &slow, 0.5)
            .unwrap()
            .iter()
            .all(|o| o.ok));
    }

    #[test]
    fn improvement_passes_and_renders() {
        let fast = DOC.replace("\"sequential_s\": 0.05", "\"sequential_s\": 0.01");
        let outcomes = check_partitioner(DOC, &fast, 0.25).unwrap();
        assert!(outcomes.iter().all(|o| o.ok));
        assert!(outcomes.iter().any(|o| o.render().contains("ok")));
    }

    #[test]
    fn mismatched_process_counts_are_rejected() {
        let other = DOC.replace("\"processes\": 4800", "\"processes\": 1200");
        assert!(check_partitioner(DOC, &other, 0.25).is_err());
    }

    #[test]
    fn quick_baselines_without_large_section_still_compare() {
        let quick = DOC.replace("single_core_s", "omitted");
        let outcomes = check_partitioner(DOC, &quick, 0.25).unwrap();
        // the two small-instance relative gates survive; the ceilings are
        // skipped because the current document carries no ceilinged timing
        assert_eq!(outcomes.len(), 2);
        assert!(!outcomes.iter().any(|o| o.label.contains("ceiling")));
    }

    #[test]
    fn xl_ceiling_is_absolute_not_relative() {
        // identical documents, but the xl timing sits above the 9 s ceiling:
        // the relative gates all pass, the ceiling still fails
        let slow = DOC.replace("\"single_core_s\": 8.5", "\"single_core_s\": 9.4");
        let outcomes = check_partitioner(&slow, &slow, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "partitioner_xl.single_core_s (ceiling)");
        // the large instance has its own 1.9 s ceiling
        let slow_large = DOC.replace("\"single_core_s\": 1.8", "\"single_core_s\": 2.0");
        let outcomes = check_partitioner(&slow_large, &slow_large, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "partitioner_large.single_core_s (ceiling)");
        // at the committed baseline's level the ceilings pass
        assert!(check_partitioner(DOC, DOC, 0.25)
            .unwrap()
            .iter()
            .all(|o| o.ok));
    }

    #[test]
    fn serve_gate_fails_on_throughput_drop_not_rise() {
        // throughput is higher-is-better: a 2x rise passes …
        let fast = SERVE_DOC.replace("\"throughput_rps\": 50000", "\"throughput_rps\": 100000");
        assert!(check_serve(SERVE_DOC, &fast, 0.25)
            .unwrap()
            .iter()
            .all(|o| o.ok));
        // … a 50% drop fails at a 25% budget (the other gated modes stay ok)
        let slow = SERVE_DOC.replace("\"throughput_rps\": 50000", "\"throughput_rps\": 25000");
        let outcomes = check_serve(SERVE_DOC, &slow, 0.25).unwrap();
        assert_eq!(
            outcomes.len(),
            GATED_SERVE_METRICS.len() + SERVE_ABSOLUTE_FLOORS.len()
        );
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "cache_hit.throughput_rps");
        // … and a 20% drop is within a 25% budget
        let mild = SERVE_DOC.replace("\"throughput_rps\": 50000", "\"throughput_rps\": 40000");
        assert!(check_serve(SERVE_DOC, &mild, 0.25)
            .unwrap()
            .iter()
            .all(|o| o.ok));
        // a collapse of the compact mode is caught independently
        let slow_compact =
            SERVE_DOC.replace("\"throughput_rps\": 200000", "\"throughput_rps\": 50000");
        let outcomes = check_serve(SERVE_DOC, &slow_compact, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "cache_hit_compact.throughput_rps");
        // a persistence-reload collapse is caught independently
        let slow_reload = SERVE_DOC.replace(
            "\"reload_entries_per_s\": 40000",
            "\"reload_entries_per_s\": 10000",
        );
        let outcomes = check_serve(SERVE_DOC, &slow_reload, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "persistence.reload_entries_per_s");
    }

    #[test]
    fn routed_floor_is_absolute_not_relative() {
        // identical documents, but the routed throughput sits below the
        // 10k floor: the relative gates all pass, the floor still fails
        let slow = SERVE_DOC.replace("\"throughput_rps\": 20000", "\"throughput_rps\": 9000");
        let outcomes = check_serve(&slow, &slow, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "routed_hit.throughput_rps (floor)");
        // the replicated-router section has its own 8k floor
        let slow_replica =
            SERVE_DOC.replace("\"throughput_rps\": 15000", "\"throughput_rps\": 7000");
        let outcomes = check_serve(&slow_replica, &slow_replica, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "routed_replica_hit.throughput_rps (floor)");
        // at the committed baseline's level the floors pass
        let outcomes = check_serve(SERVE_DOC, SERVE_DOC, 0.25).unwrap();
        assert!(outcomes.iter().all(|o| o.ok));
        // a baseline without the routed sections skips the floors cleanly
        // (note "routed_hit" is not a substring of "routed_replica_hit";
        // both renames are needed)
        let legacy = SERVE_DOC
            .replace("routed_hit", "routed_hit_absent")
            .replace("routed_replica_hit", "routed_replica_hit_absent");
        let outcomes = check_serve(&legacy, &legacy, 0.25).unwrap();
        assert!(outcomes.iter().all(|o| o.ok));
        assert!(!outcomes.iter().any(|o| o.label.contains("floor")));
    }

    #[test]
    fn serve_gate_guards_the_request_scale() {
        let other = SERVE_DOC.replace("\"processes\": 4800", "\"processes\": 96");
        assert!(check_serve(SERVE_DOC, &other, 0.25).is_err());
    }

    #[test]
    fn serve_gate_guards_the_persisted_entry_count() {
        let other = SERVE_DOC.replace("\"entries\": 256", "\"entries\": 16");
        assert!(check_serve(SERVE_DOC, &other, 0.25).is_err());
    }

    #[test]
    fn summary_markdown_lists_every_outcome() {
        let mut outcomes = check_partitioner(DOC, DOC, 0.25).unwrap();
        outcomes.extend(check_serve(SERVE_DOC, SERVE_DOC, 0.25).unwrap());
        let md = summary_markdown(&outcomes);
        let lines: Vec<&str> = md.lines().collect();
        // header + separator + one row per outcome
        assert_eq!(lines.len(), 2 + outcomes.len());
        assert!(md.contains("partitioner.parallel_s"));
        assert!(md.contains("cache_hit.throughput_rps"));
        assert!(md.contains("✅"));
    }
}
