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
use stencil_bench::paper_throughput_instance;
use stencil_bench::timing::time_instantiations;
use stencil_grid::{dims_create, CartGraph, Dims, NodeAllocation, Stencil};
use stencil_mapping::analysis::StencilKind;
use stencil_mapping::hyperplane::Hyperplane;
use stencil_mapping::kdtree::KdTree;
use stencil_mapping::metrics;
use stencil_mapping::stencil_strips::StencilStrips;
use stencil_mapping::{Mapper, MappingProblem};
use stencil_serve::json::Value;

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
    let problem = paper_throughput_instance(figure_nodes, StencilKind::NearestNeighbor);
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
    let dims = dims_create(metric_nodes * 64, 2);
    let metric_problem = MappingProblem::new(
        Dims::new(dims).expect("valid dims"),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(metric_nodes, 64),
    )
    .expect("consistent instance");
    let mapping = Hyperplane::default()
        .compute(&metric_problem)
        .expect("mapping succeeds");
    let time_of = |f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repetitions.max(3) {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let streaming_s = time_of(&mut || {
        std::hint::black_box(metrics::evaluate_streaming(
            metric_problem.dims(),
            metric_problem.stencil(),
            false,
            &mapping,
        ));
    });
    let csr_with_build_s = time_of(&mut || {
        let graph = CartGraph::build(metric_problem.dims(), metric_problem.stencil(), false);
        std::hint::black_box(metrics::evaluate(&graph, &mapping));
    });
    let graph = CartGraph::build(metric_problem.dims(), metric_problem.stencil(), false);
    let csr_prebuilt_s = time_of(&mut || {
        std::hint::black_box(metrics::evaluate(&graph, &mapping));
    });
    // sanity: both evaluators agree bit for bit
    assert_eq!(
        metrics::evaluate(&graph, &mapping),
        metrics::evaluate_streaming(
            metric_problem.dims(),
            metric_problem.stencil(),
            false,
            &mapping
        ),
        "streaming and CSR evaluation diverged"
    );
    eprintln!(
        "  metrics p={}: streaming {streaming_s:.6}s, csr+build {csr_with_build_s:.6}s, csr {csr_prebuilt_s:.6}s",
        metric_problem.num_processes()
    );

    // --- multilevel partitioner: parallel vs. sequential --------------------
    let part_problem =
        paper_throughput_instance(if quick { 25 } else { 100 }, StencilKind::NearestNeighbor);
    let cart = CartGraph::build(part_problem.dims(), part_problem.stencil(), false);
    let part_graph = Graph::from_directed_csr(cart.xadj(), cart.adjncy());
    let sizes: Vec<usize> = part_problem.alloc().sizes().to_vec();
    let par_s = time_of(&mut || {
        std::hint::black_box(
            partition(
                &part_graph,
                &PartitionConfig::new(sizes.clone()).with_seed(1),
            )
            .unwrap(),
        );
    });
    let seq_s = time_of(&mut || {
        std::hint::black_box(
            partition(
                &part_graph,
                &PartitionConfig::new(sizes.clone())
                    .with_seed(1)
                    .with_parallel(false),
            )
            .unwrap(),
        );
    });
    eprintln!(
        "  partitioner p={}: parallel {par_s:.6}s, sequential {seq_s:.6}s",
        part_problem.num_processes()
    );

    // --- large-scale partitioning: p = 100_000, single core -----------------
    // The paper targets node-aware mappings at p >= 10^5; the bucket-queue FM
    // keeps the VieM-style baseline usable there.  Skipped with --quick.
    let large = (!quick).then(|| {
        let (nodes, per) = (1000usize, 100usize);
        let dims = dims_create(nodes * per, 2);
        let large_problem = MappingProblem::new(
            Dims::new(dims).expect("valid dims"),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(nodes, per),
        )
        .expect("consistent large instance");
        let cart = CartGraph::build(large_problem.dims(), large_problem.stencil(), false);
        let graph = Graph::from_directed_csr(cart.xadj(), cart.adjncy());
        let sizes: Vec<usize> = large_problem.alloc().sizes().to_vec();
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            std::hint::black_box(
                partition(
                    &graph,
                    &PartitionConfig::new(sizes.clone())
                        .with_seed(1)
                        .with_parallel(false),
                )
                .unwrap(),
            );
            best = best.min(start.elapsed().as_secs_f64());
        }
        eprintln!(
            "  partitioner p={} (k={nodes}): sequential {best:.6}s",
            large_problem.num_processes()
        );
        (large_problem.num_processes(), nodes, best)
    });

    // --- extreme-scale partitioning: p = 10^6, k = 10^4, single core --------
    // The tentpole scale of the flat-array coarsening rework: a million
    // processes split into ten thousand parts must stay in single-digit
    // seconds on one core (the serve tier's coldest possible miss).  Unlike
    // partitioner_large this section is never skipped: --quick scales the
    // instance down (p = 5*10^4, k = 10^3) so the section stays exercised,
    // and the scale guard on `processes` keeps quick and full documents from
    // being compared against each other.
    let xl = {
        let (nodes, per, reps) = if quick {
            (1000usize, 50usize, 1usize)
        } else {
            (10_000usize, 100usize, 2usize)
        };
        let dims = dims_create(nodes * per, 2);
        let xl_problem = MappingProblem::new(
            Dims::new(dims).expect("valid dims"),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(nodes, per),
        )
        .expect("consistent xl instance");
        let cart = CartGraph::build(xl_problem.dims(), xl_problem.stencil(), false);
        let graph = Graph::from_directed_csr(cart.xadj(), cart.adjncy());
        let sizes: Vec<usize> = xl_problem.alloc().sizes().to_vec();
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            std::hint::black_box(
                partition(
                    &graph,
                    &PartitionConfig::new(sizes.clone())
                        .with_seed(1)
                        .with_parallel(false),
                )
                .unwrap(),
            );
            best = best.min(start.elapsed().as_secs_f64());
        }
        eprintln!(
            "  partitioner p={} (k={nodes}): sequential {best:.6}s",
            xl_problem.num_processes()
        );
        (xl_problem.num_processes(), nodes, best)
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
                ("processes", Value::Num(part_problem.num_processes() as f64)),
                ("parallel_s", Value::Num(par_s)),
                ("sequential_s", Value::Num(seq_s)),
            ]),
        ),
        (
            "partitioner_large",
            match large {
                Some((p, parts, s)) => Value::obj(vec![
                    ("processes", Value::Num(p as f64)),
                    ("parts", Value::Num(parts as f64)),
                    ("single_core_s", Value::Num(s)),
                ]),
                None => Value::Null,
            },
        ),
        (
            "partitioner_xl",
            Value::obj(vec![
                ("processes", Value::Num(xl.0 as f64)),
                ("parts", Value::Num(xl.1 as f64)),
                ("single_core_s", Value::Num(xl.2)),
            ]),
        ),
    ]);
    std::fs::write(&out_path, doc.pretty()).unwrap_or_else(|e| {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
}
