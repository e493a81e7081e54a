//! The output oracle, run after the timed phase so checking costs no
//! server CPU.  A table answer must decode, respect the allocation and
//! carry the Jsum/Jmax that `metrics::evaluate_streaming` recomputes;
//! cost-only and point answers must agree with their anchor's table; a
//! repeated answer must be byte-equal to its line's first answer apart from
//! `cached`.

use std::collections::HashMap;
use std::ops::Range;

use stencil_mapping::metrics::evaluate_streaming;
use stencil_mapping::Mapping;
use stencil_serve::json::{decode_nodes_compact, Value};

use crate::load::Capture;
use crate::workload::{Load, Pick, Shape, Workload};

/// Detail messages kept per run.
const MAX_ERRORS: usize = 5;

fn replace_all(hay: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(hay.len() + 8);
    let mut i = 0;
    while i < hay.len() {
        if hay[i..].starts_with(from) {
            out.extend_from_slice(to);
            i += from.len();
        } else {
            out.push(hay[i]);
            i += 1;
        }
    }
    out
}

/// The answer as a cache hit would render it.
pub fn hit_form(answer: &[u8]) -> Vec<u8> {
    replace_all(answer, b"\"cached\":false", b"\"cached\":true")
}

/// The answer with `cached` normalised away.
fn cold_form(answer: &[u8]) -> Vec<u8> {
    replace_all(answer, b"\"cached\":true", b"\"cached\":false")
}

struct Oracle<'a> {
    wl: &'a Workload,
    /// Decoded tables of checked table items, by item.
    tables: HashMap<usize, Vec<u32>>,
    /// `(j_sum, j_max)` per instance, from its first checked answer.
    costs: HashMap<usize, (u64, u64)>,
}

impl Oracle<'_> {
    fn check_line(&mut self, line: usize, answer: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(answer).map_err(|_| "answer is not UTF-8".to_string())?;
        let v = Value::parse(text).map_err(|e| format!("answer is not JSON: {e}"))?;
        let l = &self.wl.lines[line];
        if l.batch {
            let answers = v
                .get("batch")
                .and_then(Value::as_arr)
                .ok_or("batch answer without a batch array")?;
            if answers.len() != l.items.len() {
                return Err(format!(
                    "batch of {} answered with {} items",
                    l.items.len(),
                    answers.len()
                ));
            }
            for (&item, a) in l.items.iter().zip(answers) {
                self.check_item(item, a)?;
            }
            Ok(())
        } else {
            self.check_item(l.items[0], &v)
        }
    }

    fn check_item(&mut self, item_idx: usize, v: &Value) -> Result<(), String> {
        let item = &self.wl.items[item_idx];
        let inst = &self.wl.instances[item.instance];
        if v.get("status").and_then(Value::as_str) != Some("ok") {
            let mut shown = v.compact();
            shown.truncate(200);
            return Err(format!("item {item_idx}: status not ok: {shown}"));
        }
        if v.get("id").and_then(Value::as_usize) != Some(item_idx) {
            return Err(format!("item {item_idx}: wrong id"));
        }
        if v.get("algorithm").and_then(Value::as_str) != Some(inst.algorithm)
            || v.get("fallback_from").is_some()
        {
            return Err(format!("item {item_idx}: served by another algorithm"));
        }
        let cost = match (
            v.get("j_sum").and_then(Value::as_u64),
            v.get("j_max").and_then(Value::as_u64),
        ) {
            (Some(s), Some(m)) => (s, m),
            _ => return Err(format!("item {item_idx}: no j_sum/j_max")),
        };
        match item.shape {
            Shape::Verbose | Shape::Compact => {
                let table: Vec<u32> = if item.shape == Shape::Verbose {
                    v.get("nodes")
                        .and_then(Value::as_arr)
                        .ok_or(format!("item {item_idx}: no node table"))?
                        .iter()
                        .map(|x| x.as_u64().and_then(|n| u32::try_from(n).ok()))
                        .collect::<Option<_>>()
                        .ok_or(format!("item {item_idx}: malformed node table"))?
                } else {
                    if v.get("encoding").and_then(Value::as_str) != Some("compact") {
                        return Err(format!("item {item_idx}: not compact"));
                    }
                    let s = v
                        .get("nodes")
                        .and_then(Value::as_str)
                        .ok_or(format!("item {item_idx}: no compact table"))?;
                    decode_nodes_compact(s).map_err(|e| format!("item {item_idx}: {e}"))?
                };
                let problem = inst.problem(&item.dims);
                let nodes: Vec<usize> = table.iter().map(|&n| n as usize).collect();
                let mapping = Mapping::from_node_of_position(&problem, &nodes)
                    .map_err(|e| format!("item {item_idx}: table violates the allocation: {e}"))?;
                let c =
                    evaluate_streaming(problem.dims(), problem.stencil(), inst.periodic, &mapping);
                if (c.j_sum, c.j_max) != cost {
                    return Err(format!(
                        "item {item_idx}: reported Jsum/Jmax {cost:?}, recomputed ({}, {})",
                        c.j_sum, c.j_max
                    ));
                }
                self.tables.insert(item_idx, table);
            }
            Shape::CostOnly => {
                if v.get("nodes").is_some() {
                    return Err(format!("item {item_idx}: cost-only answer carries a table"));
                }
            }
            Shape::Points => {
                let table = self
                    .tables
                    .get(&item.anchor)
                    .ok_or(format!("item {item_idx}: anchor table unchecked"))?;
                let as_list = |key: &str| -> Option<Vec<u64>> {
                    v.get(key)?.as_arr()?.iter().map(Value::as_u64).collect()
                };
                let ranks: Vec<u64> = item.ranks.iter().map(|&r| r as u64).collect();
                let expected: Vec<u64> = item.ranks.iter().map(|&r| table[r] as u64).collect();
                if as_list("ranks") != Some(ranks) || as_list("nodes") != Some(expected) {
                    return Err(format!(
                        "item {item_idx}: point answers disagree with the table"
                    ));
                }
            }
        }
        let first = *self.costs.entry(item.instance).or_insert(cost);
        if first != cost {
            return Err(format!(
                "item {item_idx}: costs {cost:?} differ from {first:?} of the same key"
            ));
        }
        Ok(())
    }
}

/// The oracle's verdict on one timed phase.
pub struct Verdict {
    /// Timed requests that got no answer or a wrong one.
    pub failed: u64,
    pub jsum_total: u64,
    pub jmax_total: u64,
    /// Distinct mappings the quality totals sum over.
    pub quality_mappings: usize,
    pub errors: Vec<String>,
}

/// Checks the set-up `refs` (each line's first answer), then every timed
/// answer in `capture`.
pub fn judge(wl: &Workload, refs: &[Option<Vec<u8>>], capture: &Capture) -> Verdict {
    let mut oracle = Oracle {
        wl,
        tables: HashMap::new(),
        costs: HashMap::new(),
    };
    let mut errors = Vec::new();
    let mut note = |e: String| {
        if errors.len() < MAX_ERRORS {
            errors.push(e);
        }
    };
    // table answers first: cost-only and point answers check against them
    let derived = |line: usize| {
        wl.lines[line]
            .items
            .iter()
            .any(|&i| matches!(wl.items[i].shape, Shape::CostOnly | Shape::Points))
    };
    let mut order: Vec<usize> = (0..wl.lines.len()).filter(|&l| refs[l].is_some()).collect();
    order.sort_by_key(|&l| derived(l));
    let mut bad_ref = vec![false; wl.lines.len()];
    for line in order {
        if let Err(e) = oracle.check_line(line, refs[line].as_deref().expect("filtered")) {
            bad_ref[line] = true;
            note(format!("first answer of line {line}: {e}"));
        }
    }

    let mut failed = capture.unanswered;
    let mut served = vec![false; wl.lines.len()];
    for (line, &n) in capture.equal.iter().enumerate() {
        served[line] |= n > 0;
        if bad_ref[line] {
            failed += n;
        }
    }
    for (line, answer) in &capture.deviants {
        served[*line] = true;
        let reference = refs[*line].as_deref().expect("deviants have a reference");
        if bad_ref[*line] || cold_form(answer) != cold_form(reference) {
            failed += 1;
            note(format!("line {line}: answer differs from its first answer"));
        }
    }
    for (line, answer) in &capture.fresh {
        served[*line] = true;
        if let Err(e) = oracle.check_line(*line, answer) {
            failed += 1;
            note(format!("line {line}: {e}"));
        }
    }

    // quality over the distinct mappings (instances) served; a fresh-line
    // workload counts a fixed prefix of its sequence
    let eligible: Range<usize> = match (&wl.load, wl.quality_limit) {
        (
            Load::Closed {
                pick: Pick::Fresh(range),
                ..
            },
            Some(limit),
        ) => range.start..range.start + limit,
        _ => 0..wl.lines.len(),
    };
    let mut instances: Vec<usize> = eligible
        .clone()
        .filter(|&l| served[l])
        .flat_map(|l| wl.lines[l].items.iter().map(|&i| wl.items[i].instance))
        .collect();
    instances.sort_unstable();
    instances.dedup();
    if wl.quality_limit.is_some() && instances.len() < eligible.len() {
        note(format!(
            "only {} of the {} quality mappings were served",
            instances.len(),
            eligible.len()
        ));
        failed += (eligible.len() - instances.len()) as u64;
    }
    let (mut jsum_total, mut jmax_total) = (0, 0);
    for inst in &instances {
        if let Some(&(s, m)) = oracle.costs.get(inst) {
            jsum_total += s;
            jmax_total += m;
        }
    }
    Verdict {
        failed,
        jsum_total,
        jmax_total,
        quality_mappings: instances.len(),
        errors,
    }
}
