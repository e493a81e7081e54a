//! Property tests for the parallel mapping engine:
//!
//! * the streaming metrics evaluator (no graph materialisation) agrees bit
//!   for bit with the CSR evaluator on random grids and stencils, periodic
//!   and non-periodic,
//! * the chunked parallel mapping computation agrees with the rank-local
//!   definition (`remap_rank`) for every rank,
//! * the parallel and sequential multilevel partitioner produce identical
//!   results for the same seed,
//! * the parallel k-way swap refinement produces identical partitions for
//!   every thread count (verified across real `RAYON_NUM_THREADS` settings
//!   via subprocesses) and with parallelism disabled outright.

use proptest::prelude::*;
use std::process::{Child, Command, Stdio};
use stencilmap::partition::{partition, refine_kway_with, Graph, PartitionConfig, RefineConfig};
use stencilmap::prelude::*;

fn stencil_for(ndims: usize, choice: u8) -> Stencil {
    match choice % 3 {
        0 => Stencil::nearest_neighbor(ndims),
        1 => Stencil::nearest_neighbor_with_hops(ndims),
        _ => {
            if ndims >= 2 {
                Stencil::component(ndims)
            } else {
                Stencil::nearest_neighbor(ndims)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming and CSR evaluation agree exactly on the paper stencils, for
    /// arbitrary grids, node counts and boundary conditions.
    #[test]
    fn streaming_metrics_equal_csr_metrics(
        sizes in proptest::collection::vec(1usize..8, 2..4),
        stencil_choice in 0u8..3,
        periodic in proptest::bool::ANY,
        groups in 1usize..7,
    ) {
        let p: usize = sizes.iter().product();
        if p.is_multiple_of(groups) {
            let dims = Dims::new(sizes).unwrap();
            let stencil = stencil_for(dims.ndims(), stencil_choice);
            let problem = MappingProblem::with_periodicity(
                dims,
                stencil,
                NodeAllocation::homogeneous(groups, p / groups),
                periodic,
            )
            .unwrap();
            let graph = CartGraph::build(problem.dims(), problem.stencil(), periodic);
            for mapping in [
                Blocked.compute(&problem).unwrap(),
                KdTree.compute(&problem).unwrap(),
                RandomMapping::with_seed(9).compute(&problem).unwrap(),
            ] {
                let csr = metrics::evaluate(&graph, &mapping);
                let streaming = metrics::evaluate_streaming(
                    problem.dims(),
                    problem.stencil(),
                    periodic,
                    &mapping,
                );
                prop_assert_eq!(&csr, &streaming);
            }
        }
    }

    /// Streaming evaluation also agrees on arbitrary (random-offset)
    /// stencils, not just the paper's three families.
    #[test]
    fn streaming_metrics_equal_csr_on_random_stencils(
        d0 in 1usize..7,
        d1 in 1usize..7,
        raw in proptest::collection::vec(-3i64..4, 2..12),
        periodic in proptest::bool::ANY,
    ) {
        let usable = raw.len() - raw.len() % 2;
        if usable >= 2 {
            if let Ok(stencil) = Stencil::from_flat(2, &raw[..usable]) {
                let p = d0 * d1;
                let problem = MappingProblem::with_periodicity(
                    Dims::from_slice(&[d0, d1]),
                    stencil,
                    NodeAllocation::homogeneous(1, p),
                    periodic,
                )
                .unwrap();
                let graph = CartGraph::build(problem.dims(), problem.stencil(), periodic);
                let mapping = Blocked.compute(&problem).unwrap();
                let csr = metrics::evaluate(&graph, &mapping);
                let streaming = metrics::evaluate_streaming(
                    problem.dims(),
                    problem.stencil(),
                    periodic,
                    &mapping,
                );
                prop_assert_eq!(&csr, &streaming);
            }
        }
    }

    /// The chunked parallel full-mapping computation matches the rank-local
    /// definition for every rank (and is therefore independent of chunking
    /// and thread count).
    #[test]
    fn parallel_mapping_matches_rank_local_definition(
        d0 in 2usize..10,
        d1 in 2usize..10,
        groups in 1usize..6,
        alg in 0u8..3,
    ) {
        let p = d0 * d1;
        if p % groups == 0 {
            let problem = MappingProblem::new(
                Dims::from_slice(&[d0, d1]),
                Stencil::nearest_neighbor(2),
                NodeAllocation::homogeneous(groups, p / groups),
            )
            .unwrap();
            let mapper: Box<dyn Mapper> = match alg % 3 {
                0 => Box::new(Hyperplane::default()),
                1 => Box::new(KdTree),
                _ => Box::new(StencilStrips),
            };
            let mapping = mapper.compute(&problem).unwrap();
            let rank_local: Vec<usize> = (0..p)
                .map(|r| match alg % 3 {
                    0 => problem.dims().rank_of(&RankLocalMapper::remap_rank(
                        &Hyperplane::default(), &problem, r)),
                    1 => problem.dims().rank_of(&RankLocalMapper::remap_rank(&KdTree, &problem, r)),
                    _ => problem.dims().rank_of(&RankLocalMapper::remap_rank(
                        &StencilStrips, &problem, r)),
                })
                .collect();
            prop_assert_eq!(mapping.position_of_rank_slice(), &rank_local[..]);
        }
    }

    /// Parallel and sequential partitioner runs with the same seed produce
    /// identical assignments.
    #[test]
    fn partitioner_parallel_matches_sequential(
        rows in 2u32..8,
        cols in 2u32..8,
        parts in 2usize..5,
        seed in 0u64..10,
    ) {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, 1));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, 1));
                }
            }
        }
        let g = Graph::from_edges((rows * cols) as usize, &edges);
        let total = (rows * cols) as usize;
        if total.is_multiple_of(parts) {
            let sizes = vec![total / parts; parts];
            let par = partition(&g, &PartitionConfig::new(sizes.clone()).with_seed(seed)).unwrap();
            let seq = partition(
                &g,
                &PartitionConfig::new(sizes).with_seed(seed).with_parallel(false),
            )
            .unwrap();
            prop_assert_eq!(par, seq);
        }
    }
}

/// Builds the 48x48 grid instance shared by the refinement determinism
/// tests: a 12-way partition plus its refined variant.
fn refined_grid_partition(parallel: bool) -> (Graph, Vec<u32>) {
    let mut edges = Vec::new();
    for r in 0..48u32 {
        for c in 0..48u32 {
            let v = r * 48 + c;
            if c + 1 < 48 {
                edges.push((v, v + 1, 1));
            }
            if r + 1 < 48 {
                edges.push((v, v + 48, 1));
            }
        }
    }
    let g = Graph::from_edges(48 * 48, &edges);
    let cfg = PartitionConfig::new(vec![192; 12])
        .with_seed(3)
        .with_parallel(parallel);
    let mut part = partition(&g, &cfg).unwrap();
    refine_kway_with(
        &g,
        &mut part,
        &RefineConfig::new(5, 17).with_parallel(parallel),
    );
    (g, part)
}

/// `RefineConfig::parallel = false` (alongside `PartitionConfig::parallel =
/// false`) reproduces the parallel sweep's result exactly.
#[test]
fn refine_kway_sequential_flag_matches_parallel_exactly() {
    let (g, par) = refined_grid_partition(true);
    let (_, seq) = refined_grid_partition(false);
    assert_eq!(par, seq);
    assert_eq!(g.part_weights(&par, 12), vec![192u64; 12]);
}

/// Marker variable of the child processes the thread-count tests spawn.
const CHILD_VAR: &str = "STENCILMAP_DETERMINISM_CHILD";

/// One FNV-1a step over a 64-bit value.
fn fnv1a(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Re-runs test `name` of this binary in one child process per
/// `RAYON_NUM_THREADS` value (the vendored rayon reads the variable once per
/// process), all at once; [`child_fingerprints`] collects their output.
fn spawn_children(name: &str, thread_counts: &[&'static str]) -> Vec<(&'static str, Child)> {
    let exe = std::env::current_exe().expect("test executable path");
    thread_counts
        .iter()
        .map(|&threads| {
            let child = Command::new(&exe)
                .args([name, "--exact", "--nocapture", "--test-threads=1"])
                .env(CHILD_VAR, "1")
                .env("RAYON_NUM_THREADS", threads)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawning the child test process");
            (threads, child)
        })
        .collect()
}

/// Waits for every child and returns the `fingerprint:` value each printed,
/// with its thread count.
fn child_fingerprints(children: Vec<(&'static str, Child)>) -> Vec<(&'static str, String)> {
    children
        .into_iter()
        .map(|(threads, child)| {
            let out = child.wait_with_output().expect("waiting for the child");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "child with RAYON_NUM_THREADS={threads} failed:\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            // with --nocapture the marker may share a line with harness output
            let fp = stdout
                .lines()
                .find_map(|l| l.split("fingerprint:").nth(1))
                .unwrap_or_else(|| panic!("no fingerprint in child output:\n{stdout}"))
                .split_whitespace()
                .next()
                .expect("fingerprint value")
                .to_string();
            (threads, fp)
        })
        .collect()
}

/// The parallel `refine_kway` yields identical partitions for
/// `RAYON_NUM_THREADS` ∈ {1, 2, 4}: each thread count runs in a child
/// process (this same test re-invoked with `CHILD_VAR` set) that prints a
/// fingerprint of the refined partition.
#[test]
fn refine_kway_identical_across_thread_counts() {
    if std::env::var(CHILD_VAR).is_ok() {
        let (_, part) = refined_grid_partition(true);
        let h = part.iter().fold(FNV_OFFSET, |h, &p| fnv1a(h, p as u64));
        println!("fingerprint:{h:016x}");
        return;
    }
    let children = spawn_children(
        "refine_kway_identical_across_thread_counts",
        &["1", "2", "4"],
    );
    let fingerprints = child_fingerprints(children);
    let (_, reference) = &fingerprints[0];
    for (threads, fp) in &fingerprints {
        assert_eq!(
            fp, reference,
            "RAYON_NUM_THREADS={threads} produced a different partition"
        );
    }
}

/// The viem miss shapes of the repository benchmark's `cold_viem` workload:
/// p = 4800 = 100 nodes × 48, a 75×64 and a 20×16×15 grid under each
/// stencil (`stencil_for` choice), the first shape repeated.
const VIEM_SHAPES: [(&[usize], u8); 7] = [
    (&[75, 64], 0),
    (&[20, 16, 15], 0),
    (&[75, 64], 1),
    (&[20, 16, 15], 1),
    (&[75, 64], 2),
    (&[20, 16, 15], 2),
    (&[75, 64], 0),
];

/// FNV-1a over the refined `GraphMapper` partition of every viem shape for
/// two seed bases, each followed by its edge cut; returns the hash and the
/// cut sum.
fn viem_fingerprint() -> (u64, u64) {
    let (mut h, mut cut_sum) = (FNV_OFFSET, 0u64);
    for base in [1000u64, 2000] {
        for (k, &(dims, choice)) in VIEM_SHAPES.iter().enumerate() {
            let dims = Dims::from_slice(dims);
            let stencil = stencil_for(dims.ndims(), choice);
            let problem =
                MappingProblem::new(dims, stencil, NodeAllocation::homogeneous(100, 48)).unwrap();
            let mapping = GraphMapper::with_seed(base + k as u64)
                .compute(&problem)
                .unwrap();
            let cart = CartGraph::build(problem.dims(), problem.stencil(), false);
            let graph = Graph::from_directed_csr(cart.xadj(), cart.adjncy());
            let part: Vec<u32> = mapping
                .node_of_position_slice()
                .iter()
                .map(|&n| n as u32)
                .collect();
            let cut = graph.cut(&part);
            h = part.iter().fold(h, |h, &p| fnv1a(h, p as u64));
            h = fnv1a(h, cut);
            cut_sum += cut;
        }
    }
    (h, cut_sum)
}

/// The VieM-style mapper's bytes on the benchmark's viem shapes are pinned:
/// the partitioner's kernels may get faster, but every refined partition
/// and cut must stay exactly as recorded, in-process and at
/// `RAYON_NUM_THREADS` ∈ {1, 2}.  A thread count the in-process run already
/// uses gets no child: each run is seconds of debug-build partitioning.
#[test]
fn viem_benchmark_shapes_keep_their_bytes() {
    // recorded before the partitioner kernels were rewritten
    const EXPECTED: &str = "bd6989b42082408d/33824";
    let fingerprint = || {
        let (h, cut_sum) = viem_fingerprint();
        format!("{h:016x}/{cut_sum}")
    };
    if std::env::var(CHILD_VAR).is_ok() {
        println!("fingerprint:{}", fingerprint());
        return;
    }
    // the children run while this process computes its own fingerprint
    let in_process = rayon::current_num_threads().to_string();
    let threads: Vec<&'static str> = ["1", "2"]
        .into_iter()
        .filter(|&t| t != in_process)
        .collect();
    let children = spawn_children("viem_benchmark_shapes_keep_their_bytes", &threads);
    assert_eq!(
        fingerprint(),
        EXPECTED,
        "in-process fingerprint (hash/cut sum)"
    );
    for (threads, fp) in child_fingerprints(children) {
        assert_eq!(fp, EXPECTED, "RAYON_NUM_THREADS={threads}");
    }
}

/// Same-seed determinism of the full VieM-style pipeline on an instance large
/// enough (4800 vertices) to take the genuinely parallel recursion path.
#[test]
fn graph_mapper_parallel_path_is_deterministic() {
    let problem = MappingProblem::new(
        Dims::from_slice(&[80, 60]),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(40, 120),
    )
    .unwrap();
    let a = GraphMapper::with_effort(5, 0).compute(&problem).unwrap();
    let b = GraphMapper::with_effort(5, 0).compute(&problem).unwrap();
    assert_eq!(a, b);
    assert!(a.respects_allocation(problem.alloc()));
}
