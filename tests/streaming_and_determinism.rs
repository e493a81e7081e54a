//! Property tests for the parallel mapping engine:
//!
//! * the streaming metrics evaluator (no graph materialisation) agrees bit
//!   for bit with the CSR evaluator on random grids and stencils, periodic
//!   and non-periodic,
//! * the chunked parallel mapping computation agrees with the rank-local
//!   definition (`remap_rank`) for every rank, a reused workspace answers
//!   ranks in any order, and the benchmark's routed pool tables keep their
//!   bytes at every thread count,
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
    /// stencils, not just the paper's three families.  A random mapping
    /// spreads the grid over 2–8 nodes, so a miscounted neighbour moves
    /// Jsum, and grids reach 4096 positions, so the evaluator's chunks start
    /// in the middle of the grid.
    #[test]
    fn streaming_metrics_equal_csr_on_random_stencils(
        ndims in 1usize..4,
        raw_dims in proptest::collection::vec(0usize..4096, 3..4),
        raw in proptest::collection::vec(-3i64..4, 3..25),
        periodic in proptest::bool::ANY,
        nodes in 2usize..9,
        heterogeneous in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // sides up to 4096, 64 and 16: at most 4096 positions
        let side = [4096, 64, 16][ndims - 1];
        let sizes = raw_dims[..ndims].iter().map(|&x| 1 + x % side).collect();
        prop_assert_streaming_equals_csr(sizes, &raw, periodic, nodes, heterogeneous, seed)?;
    }

    /// Offsets of up to ±3 on dims of size 1–3 mostly leave the grid or,
    /// on a torus, wrap back onto the position itself; one longer dim may
    /// give the grid an interior.  The evaluator must drop exactly the
    /// targets the CSR builder drops.
    #[test]
    fn streaming_metrics_equal_csr_on_short_dims(
        ndims in 1usize..4,
        raw_dims in proptest::collection::vec(1usize..4, 3..4),
        long_dim in 0usize..4,
        long_size in 4usize..40,
        raw in proptest::collection::vec(-3i64..4, 3..25),
        periodic in proptest::bool::ANY,
        nodes in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut sizes: Vec<usize> = raw_dims[..ndims].to_vec();
        if long_dim < ndims {
            sizes[long_dim] = long_size;
        }
        prop_assert_streaming_equals_csr(sizes, &raw, periodic, nodes, true, seed)?;
    }

    /// The chunked parallel full-mapping computation matches the rank-local
    /// definition (`remap_rank`, a fresh computation per rank) for every
    /// rank, and is therefore independent of chunking and thread count.  The
    /// grids reach ~4096 ranks and the nodes can be small, so one chunk of
    /// the full computation spans many leaves and strips.
    #[test]
    fn parallel_mapping_matches_rank_local_definition(
        ndims in 1usize..4,
        raw in proptest::collection::vec(0usize..4096, 3..4),
        stencil_choice in 0u8..3,
        periodic in proptest::bool::ANY,
        per in 1usize..65,
        heterogeneous in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // sides up to 4096, 64 and 16: at most 4096 ranks in 1, 2 or 3 dims
        let side = [4096, 64, 16][ndims - 1];
        let dims = Dims::new(raw[..ndims].iter().map(|&x| 1 + x % side).collect()).unwrap();
        let problem = MappingProblem::with_periodicity(
            dims.clone(),
            stencil_for(ndims, stencil_choice),
            oracle_allocation(dims.volume(), per, heterogeneous, seed),
            periodic,
        )
        .unwrap();
        for (name, mismatch) in [
            ("Hyperplane", rank_local_mismatch(&Hyperplane::default(), &problem)),
            ("k-d Tree", rank_local_mismatch(&KdTree, &problem)),
            ("Stencil Strips", rank_local_mismatch(&StencilStrips, &problem)),
            ("Blocked", rank_local_mismatch(&Blocked, &problem)),
        ] {
            prop_assert_eq!(mismatch, None, "{} on {:?}", name, problem);
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

/// The first rank whose position in `mapper`'s full (chunked, parallel)
/// table differs from its rank-local definition, with both positions.
fn rank_local_mismatch<M: RankLocalMapper>(
    mapper: &M,
    problem: &MappingProblem,
) -> Option<(usize, usize, usize)> {
    let table = mapper.compute(problem).unwrap();
    (0..problem.num_processes()).find_map(|r| {
        let local = problem.dims().rank_of(&mapper.remap_rank(problem, r));
        let full = table.position_of_rank(r);
        (local != full).then_some((r, full, local))
    })
}

/// Scores a random mapping of `sizes` over about `nodes` nodes with the
/// stencil read from `raw` (offsets back to back; a trailing partial offset
/// is dropped) both ways and requires identical costs.  Stencils that are
/// empty once the zero offset is removed are skipped.
fn prop_assert_streaming_equals_csr(
    sizes: Vec<usize>,
    raw: &[i64],
    periodic: bool,
    nodes: usize,
    heterogeneous: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let ndims = sizes.len();
    let Ok(stencil) = Stencil::from_flat(ndims, &raw[..raw.len() - raw.len() % ndims]) else {
        return Ok(());
    };
    let dims = Dims::new(sizes).unwrap();
    let p = dims.volume();
    let problem = MappingProblem::with_periodicity(
        dims,
        stencil,
        oracle_allocation(p, (p / nodes).max(1), heterogeneous, seed),
        periodic,
    )
    .unwrap();
    let graph = CartGraph::build(problem.dims(), problem.stencil(), periodic);
    let mapping = RandomMapping::with_seed(seed).compute(&problem).unwrap();
    let csr = metrics::evaluate(&graph, &mapping);
    let streaming =
        metrics::evaluate_streaming(problem.dims(), problem.stencil(), periodic, &mapping);
    prop_assert_eq!(
        &csr,
        &streaming,
        "dims {:?}, periodic {}: CSR {:?}, streaming {:?}",
        problem.dims().as_slice(),
        periodic,
        csr,
        streaming
    );
    Ok(())
}

/// The allocation of a rank-local oracle instance: `per` processes on every
/// node when that divides `p` and `heterogeneous` is false, otherwise node
/// sizes drawn from `1..=2·per` by `seed` (the last node takes the rest).
fn oracle_allocation(p: usize, per: usize, heterogeneous: bool, seed: u64) -> NodeAllocation {
    use rand::{Rng, SeedableRng};
    if !heterogeneous && p.is_multiple_of(per) {
        return NodeAllocation::homogeneous(p / per, per);
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut sizes = Vec::new();
    let mut left = p;
    while left > 0 {
        let n = rng.gen_range(1..=2 * per).min(left);
        sizes.push(n);
        left -= n;
    }
    NodeAllocation::heterogeneous(sizes).unwrap()
}

/// A reused [`MapWorkspace`] fed the ranks of each instance in descending,
/// then in shuffled order answers every rank as a fresh workspace does, so
/// the mapper's memory of the previous rank never changes a result.
fn reused_workspace_matches_fresh(mapper: &dyn RankLocalMapper) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use stencilmap::mapping::problem::MapWorkspace;
    let instances: [(&[usize], u8, usize, bool); 7] = [
        (&[37], 0, 4, true),
        (&[12, 10], 0, 6, true),
        (&[64, 48], 1, 48, false),
        (&[50, 48], 2, 5, true),
        (&[8, 6, 5], 0, 7, true),
        (&[16, 12, 10], 1, 12, false),
        (&[20, 16, 15], 2, 48, false),
    ];
    for (k, &(sizes, choice, per, heterogeneous)) in instances.iter().enumerate() {
        let dims = Dims::from_slice(sizes);
        let p = dims.volume();
        let problem = MappingProblem::with_periodicity(
            dims.clone(),
            stencil_for(dims.ndims(), choice),
            oracle_allocation(p, per, heterogeneous, k as u64),
            false,
        )
        .unwrap();
        let fresh: Vec<Vec<usize>> = (0..p).map(|r| mapper.remap_rank(&problem, r)).collect();
        let mut shuffled: Vec<usize> = (0..p).collect();
        shuffled.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(k as u64));
        let mut ws = MapWorkspace::new();
        let mut out = vec![0usize; dims.ndims()];
        for r in (0..p).rev().chain(shuffled) {
            mapper.remap_rank_into(&problem, r, &mut ws, &mut out);
            assert_eq!(
                out,
                fresh[r],
                "{} on {sizes:?}, rank {r}",
                mapper.local_name()
            );
        }
    }
}

#[test]
fn hyperplane_answers_ranks_in_any_order() {
    reused_workspace_matches_fresh(&Hyperplane::default());
}

#[test]
fn kdtree_answers_ranks_in_any_order() {
    reused_workspace_matches_fresh(&KdTree);
}

#[test]
fn stencil_strips_answers_ranks_in_any_order() {
    reused_workspace_matches_fresh(&StencilStrips);
}

#[test]
fn blocked_answers_ranks_in_any_order() {
    reused_workspace_matches_fresh(&Blocked);
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

/// Grid shapes and node counts of the rank-local pool of the repository
/// benchmark's `routed_mixed` workload: p from 1024 to 19200.
const ROUTED_SIZES: [(&[usize], usize); 16] = [
    (&[32, 32], 16),
    (&[16, 8, 8], 16),
    (&[64, 32], 32),
    (&[16, 16, 8], 32),
    (&[64, 64], 64),
    (&[16, 16, 16], 64),
    (&[96, 64], 96),
    (&[24, 16, 16], 96),
    (&[120, 80], 200),
    (&[24, 20, 20], 200),
    (&[128, 96], 192),
    (&[32, 24, 16], 192),
    (&[128, 128], 256),
    (&[32, 32, 16], 256),
    (&[160, 120], 400),
    (&[40, 24, 20], 400),
];

/// FNV-1a over the `node_of_position` tables of the 240 `routed_mixed` pool
/// instances: every size × the five rank-local mappers × the three
/// stencils, periodic iff `(c + a + s) % 4 == 0`.
fn routed_pool_fingerprint() -> String {
    let mappers: [Box<dyn Mapper>; 5] = [
        Box::new(Hyperplane::default()),
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(Nodecart),
        Box::new(Blocked),
    ];
    let mut h = FNV_OFFSET;
    for (c, &(sizes, nodes)) in ROUTED_SIZES.iter().enumerate() {
        for (a, mapper) in mappers.iter().enumerate() {
            for s in 0..3 {
                let dims = Dims::from_slice(sizes);
                let p = dims.volume();
                let problem = MappingProblem::with_periodicity(
                    dims,
                    stencil_for(sizes.len(), s as u8),
                    NodeAllocation::homogeneous(nodes, p / nodes),
                    (c + a + s) % 4 == 0,
                )
                .unwrap();
                let mapping = mapper.compute(&problem).unwrap();
                h = mapping
                    .node_of_position_slice()
                    .iter()
                    .fold(h, |h, &n| fnv1a(h, n as u64));
            }
        }
    }
    format!("{h:016x}")
}

/// The rank-local mappers' tables on the benchmark's routed pool are
/// pinned, in-process and at `RAYON_NUM_THREADS` ∈ {1, 2}: the thread count
/// moves the chunk boundaries of the full computation, so this also pins a
/// mapper's result against where a chunk starts.
#[test]
fn routed_pool_tables_keep_their_bytes() {
    // recorded before the rank-local mappers resumed the previous rank
    const EXPECTED: &str = "b1154df3b4003665";
    if std::env::var(CHILD_VAR).is_ok() {
        println!("fingerprint:{}", routed_pool_fingerprint());
        return;
    }
    let in_process = rayon::current_num_threads().to_string();
    let threads: Vec<&'static str> = ["1", "2"]
        .into_iter()
        .filter(|&t| t != in_process)
        .collect();
    let children = spawn_children("routed_pool_tables_keep_their_bytes", &threads);
    assert_eq!(
        routed_pool_fingerprint(),
        EXPECTED,
        "in-process fingerprint"
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
