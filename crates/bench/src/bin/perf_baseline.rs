//! Emits `BENCH_mapping.json` — the perf-trajectory baseline of the mapping
//! engine: instantiation (reordering) time per algorithm and metric
//! evaluation time (streaming vs. CSR), plus the parallel/sequential
//! multilevel-partitioner timings.
//!
//! ```text
//! cargo run --release -p stencil-bench --bin perf_baseline -- [--quick] [--out BENCH_mapping.json]
//! ```

use std::time::Instant;

use graph_partition::{partition, Graph, PartitionConfig};
use stencil_bench::timing::time_instantiations;
use stencil_grid::{dims_create, CartGraph, Dims, NodeAllocation, Stencil};
use stencil_mapping::hyperplane::Hyperplane;
use stencil_mapping::kdtree::KdTree;
use stencil_mapping::metrics;
use stencil_mapping::stencil_strips::StencilStrips;
use stencil_mapping::{Mapper, MappingProblem};
use stencil_serve::json::Value;

/// The fastest of `reps` runs of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A 2-D nearest-neighbor instance of `nodes` nodes with `per` processes
/// each (`per = 48` is the paper's throughput-experiment scale).
fn grid_instance(nodes: usize, per: usize) -> MappingProblem {
    MappingProblem::new(
        Dims::new(dims_create(nodes * per, 2)).expect("valid dims"),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(nodes, per),
    )
    .expect("consistent instance")
}

/// Best-of-`reps` time of partitioning `problem`'s grid graph into its node
/// sizes (seed 1) on the parallel or the sequential recursion path.  Only
/// the `partition` call is timed.
fn time_partition(problem: &MappingProblem, parallel: bool, reps: usize) -> f64 {
    let cart = CartGraph::build(problem.dims(), problem.stencil(), false);
    let graph = Graph::from_directed_csr(cart.xadj(), cart.adjncy());
    let config = PartitionConfig::new(problem.alloc().sizes().to_vec())
        .with_seed(1)
        .with_parallel(parallel);
    best_of(reps, || {
        std::hint::black_box(partition(&graph, &config).unwrap());
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = stencil_bench::arg_value(&args, "--out")
        .unwrap_or_else(|| "BENCH_mapping.json".to_string());

    let repetitions = if quick { 3 } else { 20 };
    let figure_nodes = if quick { 25 } else { 100 };
    // figure-scale metric instance: p = 2^16 (1024 nodes x 64 procs)
    let metric_nodes = if quick { 64 } else { 1024 };

    eprintln!(
        "perf_baseline: threads = {}, repetitions = {repetitions}",
        rayon::current_num_threads()
    );

    // --- instantiation time (Fig. 9 protocol) -----------------------------
    let problem = grid_instance(figure_nodes, 48);
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(Hyperplane::default()),
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(stencil_mapping::nodecart::Nodecart),
    ];
    let instantiation = time_instantiations(&problem, &mappers, repetitions);
    let instantiation_json = Value::Arr(
        instantiation
            .iter()
            .map(|t| {
                Value::obj(vec![
                    ("algorithm", Value::str(&t.algorithm)),
                    ("mean_s", Value::Num(t.summary.mean)),
                    ("median_s", Value::Num(t.summary.median)),
                    ("min_s", Value::Num(t.summary.min)),
                    ("n", Value::Num(t.summary.n as f64)),
                ])
            })
            .collect(),
    );
    for t in &instantiation {
        eprintln!(
            "  instantiation {:<16} mean {:.6}s",
            t.algorithm, t.summary.mean
        );
    }

    // --- metric evaluation: streaming vs. CSR ------------------------------
    let metric_problem = grid_instance(metric_nodes, 64);
    let (dims, stencil) = (metric_problem.dims(), metric_problem.stencil());
    let mapping = Hyperplane::default()
        .compute(&metric_problem)
        .expect("mapping succeeds");
    let streaming_s = best_of(repetitions, || {
        std::hint::black_box(metrics::evaluate_streaming(dims, stencil, false, &mapping));
    });
    let csr_with_build_s = best_of(repetitions, || {
        let graph = CartGraph::build(dims, stencil, false);
        std::hint::black_box(metrics::evaluate(&graph, &mapping));
    });
    let graph = CartGraph::build(dims, stencil, false);
    let csr_prebuilt_s = best_of(repetitions, || {
        std::hint::black_box(metrics::evaluate(&graph, &mapping));
    });
    // sanity: both evaluators agree bit for bit
    assert_eq!(
        metrics::evaluate(&graph, &mapping),
        metrics::evaluate_streaming(dims, stencil, false, &mapping),
        "streaming and CSR evaluation diverged"
    );
    eprintln!(
        "  metrics p={}: streaming {streaming_s:.6}s, csr+build {csr_with_build_s:.6}s, csr {csr_prebuilt_s:.6}s",
        metric_problem.num_processes()
    );

    // --- multilevel partitioner: parallel vs. sequential --------------------
    let par_s = time_partition(&problem, true, repetitions);
    let seq_s = time_partition(&problem, false, repetitions);
    eprintln!(
        "  partitioner p={}: parallel {par_s:.6}s, sequential {seq_s:.6}s",
        problem.num_processes()
    );

    // Best-of-`reps` sequential partitioning of `nodes` x `per` processes.
    let single_core = |nodes: usize, per: usize, reps: usize| {
        let problem = grid_instance(nodes, per);
        let s = time_partition(&problem, false, reps);
        eprintln!(
            "  partitioner p={} (k={nodes}): sequential {s:.6}s",
            problem.num_processes()
        );
        Value::obj(vec![
            ("processes", Value::Num(problem.num_processes() as f64)),
            ("parts", Value::Num(nodes as f64)),
            ("single_core_s", Value::Num(s)),
        ])
    };

    // --- large-scale partitioning: p = 100_000, single core -----------------
    // The paper targets node-aware mappings at p >= 10^5; the bucket-queue FM
    // keeps the VieM-style baseline usable there.  Skipped with --quick.
    let large = if quick {
        Value::Null
    } else {
        single_core(1000, 100, 2)
    };

    // --- extreme-scale partitioning: p = 10^6, k = 10^4, single core --------
    // The tentpole scale of the flat-array coarsening rework: a million
    // processes split into ten thousand parts must stay in single-digit
    // seconds on one core (the serve tier's coldest possible miss).  Unlike
    // partitioner_large this section is never skipped: --quick scales the
    // instance down (p = 5*10^4, k = 10^3) so the section stays exercised,
    // and the scale guard on `processes` keeps quick and full documents from
    // being compared against each other.
    let xl = if quick {
        single_core(1000, 50, 1)
    } else {
        single_core(10_000, 100, 2)
    };

    let doc = Value::obj(vec![
        ("schema", Value::str("stencilmap/perf-baseline/v1")),
        ("threads", Value::Num(rayon::current_num_threads() as f64)),
        ("quick", Value::Bool(quick)),
        (
            "instantiation",
            Value::obj(vec![
                ("nodes", Value::Num(figure_nodes as f64)),
                ("processes", Value::Num(problem.num_processes() as f64)),
                ("timings", instantiation_json),
            ]),
        ),
        (
            "metric_evaluation",
            Value::obj(vec![
                (
                    "processes",
                    Value::Num(metric_problem.num_processes() as f64),
                ),
                ("streaming_s", Value::Num(streaming_s)),
                ("csr_including_graph_build_s", Value::Num(csr_with_build_s)),
                ("csr_prebuilt_graph_s", Value::Num(csr_prebuilt_s)),
            ]),
        ),
        (
            "partitioner",
            Value::obj(vec![
                ("processes", Value::Num(problem.num_processes() as f64)),
                ("parallel_s", Value::Num(par_s)),
                ("sequential_s", Value::Num(seq_s)),
            ]),
        ),
        ("partitioner_large", large),
        ("partitioner_xl", xl),
    ]);
    std::fs::write(&out_path, doc.pretty()).unwrap_or_else(|e| {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
}
