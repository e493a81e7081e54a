//! End-to-end integration tests across the workspace crates: reordering +
//! message-passing runtime + cluster simulation + benchmark harness.

use stencilmap::mpc::{Runtime, StencilComm};
use stencilmap::prelude::*;

/// A reordered halo exchange on the message-passing runtime delivers exactly
/// the data a blocked exchange delivers (per grid position), for every
/// algorithm.
#[test]
fn reordered_exchange_is_data_equivalent_to_blocked() {
    let dims = [8usize, 6];
    let nodes = 6;
    let per_node = 8;

    let run = |alg: Algorithm| -> Vec<Vec<u32>> {
        let mut per_position: Vec<Vec<u32>> = vec![Vec::new(); dims[0] * dims[1]];
        let results = Runtime::run(dims[0] * dims[1], move |mut p| {
            let comm = StencilComm::create(
                &mut p,
                Dims::from_slice(&dims),
                false,
                Stencil::nearest_neighbor(2),
                NodeAllocation::homogeneous(nodes, per_node),
                alg,
                1,
            );
            // every process sends its grid position; the receive side
            // collects the positions of its neighbors
            let send: Vec<Vec<u8>> = comm
                .destinations()
                .iter()
                .map(|_| (comm.new_rank() as u32).to_le_bytes().to_vec())
                .collect();
            let recv = comm.neighbor_alltoall(&mut p, &send);
            let mut got: Vec<u32> = recv
                .iter()
                .map(|b| u32::from_le_bytes(b.as_slice().try_into().unwrap()))
                .collect();
            got.sort_unstable();
            (comm.new_rank(), got)
        });
        for (position, got) in results {
            per_position[position] = got;
        }
        per_position
    };

    let reference = run(Algorithm::Blocked);
    for alg in [
        Algorithm::Hyperplane,
        Algorithm::KdTree,
        Algorithm::StencilStrips,
        Algorithm::Nodecart,
    ] {
        let got = run(alg);
        assert_eq!(got, reference, "{alg:?} changed the exchanged data");
    }
}

/// The simulated exchange times and the mapping metrics must agree in sign:
/// whenever an algorithm reduces `Jmax` substantially, the simulated exchange
/// gets faster on every machine.
#[test]
fn simulated_speedups_follow_metric_reductions() {
    let problem = MappingProblem::new(
        Dims::from_slice(&[24, 16]),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(16, 24),
    )
    .unwrap();
    let graph = CartGraph::build(problem.dims(), problem.stencil(), false);
    let blocked = Blocked.compute(&problem).unwrap();
    let blocked_cost = metrics::evaluate(&graph, &blocked);

    for machine in Machine::paper_machines() {
        let model = ExchangeModel::new(&machine);
        for mapper in [
            Box::new(Hyperplane::default()) as Box<dyn Mapper>,
            Box::new(KdTree),
            Box::new(StencilStrips),
        ] {
            let mapping = mapper.compute(&problem).unwrap();
            let cost = metrics::evaluate(&graph, &mapping);
            if cost.j_max * 2 <= blocked_cost.j_max {
                let speedup = model.exchange_time(&graph, &blocked, 1 << 19)
                    / model.exchange_time(&graph, &mapping, 1 << 19);
                assert!(
                    speedup > 1.2,
                    "{} on {}: Jmax {} vs {} but speedup only {speedup}",
                    mapper.name(),
                    machine.name,
                    cost.j_max,
                    blocked_cost.j_max
                );
            }
        }
    }
}

/// The figure harness runs end to end on shrunk configurations and produces
/// internally consistent output.
#[test]
fn figure_harness_smoke_test() {
    use stencil_bench::figures::{figure67, figure8, Figure67Config, Figure8Config};

    let (scores, speedups) = figure67(&Figure67Config {
        nodes: 6,
        machines: vec![Machine::vsc4()],
        message_sizes: vec![1 << 12, 1 << 20],
        measurement: Measurement {
            repetitions: 10,
            ..Measurement::default()
        },
        seed: 3,
    });
    assert!(!scores.is_empty());
    assert!(!speedups.is_empty());
    for row in &speedups {
        assert!(row.mean_time > 0.0);
        assert!((row.speedup - row.blocked_time / row.mean_time).abs() < 1e-9);
    }

    let rows = figure8(&Figure8Config {
        instances: stencilmap::mapping::analysis::small_instance_set()
            .into_iter()
            .take(3)
            .collect(),
        include_graph_mapper: false,
        seed: 3,
    });
    assert!(!rows.is_empty());
    for r in &rows {
        assert!(r.median.is_finite());
        assert!(r.q1 <= r.q3 + 1e-12);
    }
}

/// The instantiation-time harness reports the runtime hierarchy of Fig. 9:
/// the distributed algorithms are far faster than the VieM-style mapper.
///
/// The mappers are timed single-threaded, like the paper's per-process
/// instantiation time.  The vendored rayon spawns an OS thread per parallel
/// region, and on a loaded host the wait for that thread's time slice
/// (milliseconds) swamps the fast mappers' sub-millisecond work.  The worker
/// count is read once per process, so the test re-runs itself as a child with
/// `RAYON_NUM_THREADS=1` and compares minima over 10 repetitions.
#[test]
fn instantiation_time_hierarchy() {
    use stencil_bench::timing::time_instantiations;

    const CHILD_VAR: &str = "STENCILMAP_TIMING_CHILD";
    if std::env::var(CHILD_VAR).is_err() {
        let exe = std::env::current_exe().expect("test executable path");
        let out = std::process::Command::new(exe)
            .args([
                "instantiation_time_hierarchy",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD_VAR, "1")
            .env("RAYON_NUM_THREADS", "1")
            .output()
            .expect("spawning the child test process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "single-threaded child failed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }

    let problem = MappingProblem::new(
        Dims::from_slice(&[24, 20]),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(20, 24),
    )
    .unwrap();
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(Hyperplane::default()),
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(GraphMapper::with_seed(1)),
    ];
    let timings = time_instantiations(&problem, &mappers, 10);
    assert_eq!(timings.len(), 4);
    let viem = timings
        .iter()
        .find(|t| t.algorithm == "VieM-style")
        .unwrap()
        .summary
        .min;
    for t in &timings {
        if t.algorithm != "VieM-style" {
            assert!(
                viem > 3.0 * t.summary.min,
                "VieM-style ({viem}s) should be much slower than {} ({}s)",
                t.algorithm,
                t.summary.min
            );
        }
    }
}

/// Heterogeneous allocations work across the whole pipeline (the paper's
/// motivation for factorisation-free algorithms).
#[test]
fn heterogeneous_allocation_pipeline() {
    let alloc = NodeAllocation::heterogeneous(vec![20, 16, 12, 12, 12]).unwrap();
    let problem = MappingProblem::new(
        Dims::from_slice(&[12, 6]),
        Stencil::nearest_neighbor_with_hops(2),
        alloc,
    )
    .unwrap();
    let graph = CartGraph::build(problem.dims(), problem.stencil(), false);
    let blocked = metrics::evaluate(&graph, &Blocked.compute(&problem).unwrap());
    for mapper in [
        Box::new(Hyperplane::default()) as Box<dyn Mapper>,
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(GraphMapper::with_seed(9)),
    ] {
        let mapping = mapper.compute(&problem).unwrap();
        assert!(
            mapping.respects_allocation(problem.alloc()),
            "{}",
            mapper.name()
        );
        let cost = metrics::evaluate(&graph, &mapping);
        assert!(
            cost.j_sum <= blocked.j_sum,
            "{} should not be worse than blocked here",
            mapper.name()
        );
    }
    // Nodecart must refuse the heterogeneous allocation
    assert!(Nodecart.compute(&problem).is_err());
}
