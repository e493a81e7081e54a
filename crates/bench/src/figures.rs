//! Experiment drivers for the figures and tables of the paper.

use cluster_sim::measurement::Measurement;
use cluster_sim::{ExchangeModel, Machine};
use rayon::prelude::*;
use stencil_grid::CartGraph;
use stencil_mapping::analysis::{reductions_over_blocked, InstanceSpec, StencilKind};
use stencil_mapping::baselines::{Blocked, RandomMapping};
use stencil_mapping::hyperplane::Hyperplane;
use stencil_mapping::kdtree::KdTree;
use stencil_mapping::metrics::evaluate;
use stencil_mapping::nodecart::Nodecart;
use stencil_mapping::stencil_strips::StencilStrips;
use stencil_mapping::viem::GraphMapper;
use stencil_mapping::{Mapper, Mapping, MappingProblem};

use crate::paper_throughput_instance;

/// The mappers evaluated in Figures 6 and 7, in the paper's plotting order.
pub fn speedup_mappers(seed: u64) -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(Hyperplane::default()),
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(GraphMapper::with_seed(seed)),
        Box::new(Nodecart),
    ]
}

/// The mappers listed in the appendix tables (Tables II–VII).
pub fn table_mappers(seed: u64) -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(Blocked),
        Box::new(Hyperplane::default()),
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(Nodecart),
        Box::new(GraphMapper::with_seed(seed)),
        Box::new(RandomMapping::with_seed(seed)),
    ]
}

/// One row of the score panels (left column of Figures 6 and 7).
#[derive(Debug, Clone)]
pub struct ScoreRow {
    /// Stencil name.
    pub stencil: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Total inter-node communication.
    pub j_sum: u64,
    /// Bottleneck-node egress.
    pub j_max: u64,
}

/// Computes the `Jsum`/`Jmax` scores of every mapper on one problem.
/// Mappers that are not applicable are skipped.
pub fn score_table(
    problem: &MappingProblem,
    stencil_name: &str,
    mappers: &[Box<dyn Mapper>],
) -> Vec<ScoreRow> {
    let graph = CartGraph::build(problem.dims(), problem.stencil(), problem.periodic());
    let mut rows = Vec::new();
    for mapper in mappers {
        if let Ok(mapping) = mapper.compute(problem) {
            let cost = evaluate(&graph, &mapping);
            rows.push(ScoreRow {
                stencil: stencil_name.to_string(),
                algorithm: mapper.name().to_string(),
                j_sum: cost.j_sum,
                j_max: cost.j_max,
            });
        }
    }
    rows.sort_by(|a, b| a.stencil.cmp(&b.stencil).then(a.j_sum.cmp(&b.j_sum)));
    rows
}

/// Configuration of the Figure 6/7 experiment.
#[derive(Debug, Clone)]
pub struct Figure67Config {
    /// Number of compute nodes (50 for Fig. 6, 100 for Fig. 7).
    pub nodes: usize,
    /// Machines to simulate (defaults to the three paper machines).
    pub machines: Vec<Machine>,
    /// Message sizes in bytes per neighbor.
    pub message_sizes: Vec<usize>,
    /// Measurement protocol (repetitions, noise, seed).
    pub measurement: Measurement,
    /// Seed for randomised mappers.
    pub seed: u64,
}

impl Figure67Config {
    /// The configuration matching the paper (may take a minute: the
    /// VieM-style mapper runs on 2400/4800-vertex graphs).
    pub fn paper(nodes: usize) -> Self {
        Figure67Config {
            nodes,
            machines: Machine::paper_machines(),
            message_sizes: cluster_sim::exchange::figure_message_sizes(),
            measurement: Measurement::default(),
            seed: 0xCAFE,
        }
    }

    /// A reduced configuration for smoke tests.
    pub fn quick(nodes: usize) -> Self {
        Figure67Config {
            nodes,
            machines: vec![Machine::vsc4()],
            message_sizes: vec![1 << 10, 1 << 16, 1 << 22],
            measurement: Measurement {
                repetitions: 20,
                ..Measurement::default()
            },
            seed: 0xCAFE,
        }
    }
}

/// One speedup data point of Figures 6/7.
#[derive(Debug, Clone)]
pub struct Figure67Row {
    /// Machine name.
    pub machine: String,
    /// Stencil name.
    pub stencil: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Message size in bytes per neighbor.
    pub message_size: usize,
    /// Mean exchange time in seconds (after outlier removal).
    pub mean_time: f64,
    /// Mean blocked exchange time in seconds.
    pub blocked_time: f64,
    /// Speedup over the blocked mapping.
    pub speedup: f64,
}

/// Runs the Figure 6/7 experiment: scores and speedups over the blocked
/// mapping for every machine, stencil, algorithm and message size.
pub fn figure67(cfg: &Figure67Config) -> (Vec<ScoreRow>, Vec<Figure67Row>) {
    let mut scores = Vec::new();
    let mut rows = Vec::new();

    for stencil in StencilKind::all() {
        let problem = paper_throughput_instance(cfg.nodes, stencil);
        let graph = CartGraph::build(problem.dims(), problem.stencil(), problem.periodic());
        let blocked_mapping = Blocked.compute(&problem).expect("blocked always applies");

        // score panel (machine independent)
        let mut mappers = table_mappers(cfg.seed);
        mappers.truncate(6); // the score panels of the paper omit Random
        scores.extend(score_table(&problem, stencil.name(), &mappers));

        // mappings reused across machines and message sizes
        let speedup_set: Vec<(String, Mapping)> = speedup_mappers(cfg.seed)
            .iter()
            .filter_map(|m| {
                m.compute(&problem)
                    .ok()
                    .map(|mapping| (m.name().to_string(), mapping))
            })
            .collect();

        for machine in &cfg.machines {
            let model = ExchangeModel::new(machine);
            let per_machine: Vec<Figure67Row> = cfg
                .message_sizes
                .par_iter()
                .flat_map_iter(|&msg| {
                    let blocked_time = cfg
                        .measurement
                        .measure(&model, &graph, &blocked_mapping, msg)
                        .mean;
                    speedup_set
                        .iter()
                        .map(|(name, mapping)| {
                            let t = cfg.measurement.measure(&model, &graph, mapping, msg).mean;
                            Figure67Row {
                                machine: machine.name.clone(),
                                stencil: stencil.name().to_string(),
                                algorithm: name.clone(),
                                message_size: msg,
                                mean_time: t,
                                blocked_time,
                                speedup: blocked_time / t,
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            rows.extend(per_machine);
        }
    }
    (scores, rows)
}

/// Configuration of the Figure 8 experiment (reduction distributions over the
/// instance set).
#[derive(Debug, Clone)]
pub struct Figure8Config {
    /// The instances to evaluate.
    pub instances: Vec<InstanceSpec>,
    /// Whether to include the (slow) VieM-style mapper.
    pub include_graph_mapper: bool,
    /// Seed for randomised mappers.
    pub seed: u64,
}

impl Figure8Config {
    /// The paper's 144-instance set.
    pub fn paper() -> Self {
        Figure8Config {
            instances: stencil_mapping::analysis::paper_instance_set(),
            include_graph_mapper: true,
            seed: 7,
        }
    }

    /// A reduced instance set for smoke tests.
    pub fn quick() -> Self {
        Figure8Config {
            instances: stencil_mapping::analysis::small_instance_set(),
            include_graph_mapper: false,
            seed: 7,
        }
    }
}

/// Aggregated reduction statistics of one algorithm on one stencil — the
/// quantity visualised by one box of Figure 8.
#[derive(Debug, Clone)]
pub struct Figure8Row {
    /// Stencil name.
    pub stencil: String,
    /// Algorithm name.
    pub algorithm: String,
    /// `"Jsum"` or `"Jmax"`.
    pub metric: String,
    /// Median reduction over the blocked mapping (lower is better).
    pub median: f64,
    /// Half width of the 95% CI of the median (notch approximation).
    pub median_ci95: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of instances.
    pub n: usize,
}

/// Runs the Figure 8 experiment and aggregates per algorithm and metric.
pub fn figure8(cfg: &Figure8Config) -> Vec<Figure8Row> {
    let mut mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(Hyperplane::default()),
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(Nodecart),
    ];
    if cfg.include_graph_mapper {
        mappers.push(Box::new(GraphMapper::with_seed(cfg.seed)));
    }

    let mut rows = Vec::new();
    for stencil in StencilKind::all() {
        let records = reductions_over_blocked(&cfg.instances, stencil, &mappers);
        for mapper in &mappers {
            let name = mapper.name().to_string();
            let sums: Vec<f64> = records
                .iter()
                .filter(|r| r.algorithm == name)
                .map(|r| r.j_sum_reduction)
                .collect();
            let maxes: Vec<f64> = records
                .iter()
                .filter(|r| r.algorithm == name)
                .map(|r| r.j_max_reduction)
                .collect();
            for (metric, values) in [("Jsum", sums), ("Jmax", maxes)] {
                if values.is_empty() {
                    continue;
                }
                rows.push(Figure8Row {
                    stencil: stencil.name().to_string(),
                    algorithm: name.clone(),
                    metric: metric.to_string(),
                    median: cluster_sim::stats::median(&values),
                    median_ci95: cluster_sim::stats::ci95_median(&values),
                    q1: cluster_sim::stats::quantile(&values, 0.25),
                    q3: cluster_sim::stats::quantile(&values, 0.75),
                    n: values.len(),
                });
            }
        }
    }
    rows
}

/// Configuration of the appendix tables (Tables II–VII).
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// The machine to simulate.
    pub machine: Machine,
    /// Number of compute nodes (50 or 100).
    pub nodes: usize,
    /// Message sizes (the tables use 64 B – 512 KiB).
    pub message_sizes: Vec<usize>,
    /// Measurement protocol.
    pub measurement: Measurement,
    /// Seed for randomised mappers.
    pub seed: u64,
}

impl TableConfig {
    /// The configuration of one paper table.
    pub fn paper(machine: Machine, nodes: usize) -> Self {
        TableConfig {
            machine,
            nodes,
            message_sizes: cluster_sim::exchange::table_message_sizes(),
            measurement: Measurement::default(),
            seed: 0xCAFE,
        }
    }
}

/// One row of an appendix table: mean exchange time (and CI) per algorithm
/// for one stencil and message size.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Stencil name.
    pub stencil: String,
    /// Message size in bytes.
    pub message_size: usize,
    /// `(algorithm, mean seconds, 95% CI half width)` per algorithm.
    pub entries: Vec<(String, f64, f64)>,
}

/// Runs one appendix table.
pub fn appendix_table(cfg: &TableConfig) -> Vec<TableRow> {
    let model = ExchangeModel::new(&cfg.machine);
    let mut rows = Vec::new();
    for stencil in StencilKind::all() {
        let problem = paper_throughput_instance(cfg.nodes, stencil);
        let graph = CartGraph::build(problem.dims(), problem.stencil(), problem.periodic());
        let mappings: Vec<(String, Mapping)> = table_mappers(cfg.seed)
            .iter()
            .filter_map(|m| {
                m.compute(&problem)
                    .ok()
                    .map(|mapping| (m.name().to_string(), mapping))
            })
            .collect();
        let per_stencil: Vec<TableRow> = cfg
            .message_sizes
            .par_iter()
            .map(|&msg| {
                let entries = mappings
                    .iter()
                    .map(|(name, mapping)| {
                        let s = cfg.measurement.measure(&model, &graph, mapping, msg);
                        (name.clone(), s.mean, s.mean_ci95)
                    })
                    .collect();
                TableRow {
                    stencil: stencil.name().to_string(),
                    message_size: msg,
                    entries,
                }
            })
            .collect();
        rows.extend(per_stencil);
    }
    rows
}

mod json_impls {
    use super::{Figure67Row, Figure8Row, ScoreRow, TableRow};
    use crate::report::ToJson;
    use stencil_serve::json::Value;

    impl ToJson for ScoreRow {
        fn to_json(&self) -> Value {
            Value::obj(vec![
                ("stencil", Value::str(&self.stencil)),
                ("algorithm", Value::str(&self.algorithm)),
                ("j_sum", Value::Num(self.j_sum as f64)),
                ("j_max", Value::Num(self.j_max as f64)),
            ])
        }
    }

    impl ToJson for Figure67Row {
        fn to_json(&self) -> Value {
            Value::obj(vec![
                ("machine", Value::str(&self.machine)),
                ("stencil", Value::str(&self.stencil)),
                ("algorithm", Value::str(&self.algorithm)),
                ("message_size", Value::Num(self.message_size as f64)),
                ("mean_time", Value::Num(self.mean_time)),
                ("blocked_time", Value::Num(self.blocked_time)),
                ("speedup", Value::Num(self.speedup)),
            ])
        }
    }

    impl ToJson for Figure8Row {
        fn to_json(&self) -> Value {
            Value::obj(vec![
                ("stencil", Value::str(&self.stencil)),
                ("algorithm", Value::str(&self.algorithm)),
                ("metric", Value::str(&self.metric)),
                ("median", Value::Num(self.median)),
                ("median_ci95", Value::Num(self.median_ci95)),
                ("q1", Value::Num(self.q1)),
                ("q3", Value::Num(self.q3)),
                ("n", Value::Num(self.n as f64)),
            ])
        }
    }

    impl ToJson for TableRow {
        fn to_json(&self) -> Value {
            Value::obj(vec![
                ("stencil", Value::str(&self.stencil)),
                ("message_size", Value::Num(self.message_size as f64)),
                (
                    "entries",
                    Value::Arr(
                        self.entries
                            .iter()
                            .map(|(name, mean, ci)| {
                                Value::obj(vec![
                                    ("algorithm", Value::str(name)),
                                    ("mean", Value::Num(*mean)),
                                    ("ci95", Value::Num(*ci)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_mapping::analysis::StencilKind;

    #[test]
    fn score_table_is_sorted_by_jsum() {
        let problem = crate::quick_throughput_instance(StencilKind::NearestNeighbor);
        let rows = score_table(&problem, "NN", &table_mappers(1));
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(w[0].j_sum <= w[1].j_sum);
        }
        // blocked is never the best algorithm on this instance
        assert_ne!(rows[0].algorithm, "Blocked");
    }

    #[test]
    fn quick_figure67_produces_expected_rows() {
        let cfg = Figure67Config::quick(8);
        // override the instance size through the quick helper: nodes=8 uses
        // the same code path as the paper (dims_create of 8*48) — keep the
        // test fast by using only one machine and three sizes (already set).
        let cfg = Figure67Config { nodes: 8, ..cfg };
        let (scores, rows) = figure67(&cfg);
        assert!(!scores.is_empty());
        // 3 stencils x 1 machine x 3 sizes x 5 algorithms
        assert_eq!(rows.len(), 3 * 3 * 5);
        // speedups at the largest message size are above 1 for the new
        // algorithms on the nearest neighbor stencil
        let best = rows
            .iter()
            .filter(|r| {
                r.stencil == "Nearest neighbor"
                    && r.message_size == (1 << 22)
                    && r.algorithm == "Stencil Strips"
            })
            .map(|r| r.speedup)
            .next()
            .unwrap();
        assert!(best > 1.0, "speedup = {best}");
    }

    #[test]
    fn quick_figure8_reports_reductions_below_one() {
        let cfg = Figure8Config {
            instances: stencil_mapping::analysis::small_instance_set()
                .into_iter()
                .take(4)
                .collect(),
            include_graph_mapper: false,
            seed: 1,
        };
        let rows = figure8(&cfg);
        assert!(!rows.is_empty());
        let nn_sum_medians: Vec<f64> = rows
            .iter()
            .filter(|r| r.stencil == "Nearest neighbor" && r.metric == "Jsum")
            .map(|r| r.median)
            .collect();
        assert!(nn_sum_medians.iter().any(|&m| m < 1.0));
        for r in &rows {
            assert!(r.q1 <= r.median + 1e-12);
            assert!(r.median <= r.q3 + 1e-12);
        }
    }
}
