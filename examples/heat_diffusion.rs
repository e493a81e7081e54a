//! A 2-d Jacobi heat-diffusion stencil computation running on the
//! message-passing runtime, with and without rank reordering.
//!
//! Every rank owns one cell of a `16 × 12` process grid (for clarity; in a
//! real application each rank owns a block of the physical domain) and
//! repeatedly averages its value with its nearest neighbors using the
//! reordered `StencilComm::neighbor_alltoall`.  The example demonstrates:
//!
//! * the distributed reordering (`MPIX_Cart_stencil_comm` analogue) — every
//!   rank computes its new coordinate locally,
//! * that the reordering does not change the numerical result — only *which
//!   node* owns which part of the domain,
//! * how much inter-node traffic the reordering removes and what that means
//!   for the simulated exchange time on the paper's machines.
//!
//! ```text
//! cargo run --release --example heat_diffusion
//! ```

use stencilmap::mpc::{Runtime, StencilComm};
use stencilmap::prelude::*;

const DIMS: [usize; 2] = [16, 12];
const NODES: usize = 8;
const PER_NODE: usize = 24;
const ITERATIONS: usize = 50;

/// Runs the Jacobi iteration under a given reordering and returns the final
/// field indexed by grid position (machine-independent result).
fn run_simulation(reorder: Algorithm) -> Vec<f64> {
    let results = Runtime::run(DIMS[0] * DIMS[1], move |mut p| {
        let comm = StencilComm::create(
            &mut p,
            Dims::from_slice(&DIMS),
            false,
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(NODES, PER_NODE),
            reorder,
            0,
        );
        // initial condition: a hot spot in one corner of the *grid* (not of
        // the rank space), so the result is independent of the reordering
        let coord = comm.coords();
        let mut value = if coord == vec![0, 0] { 100.0f64 } else { 0.0 };

        for _ in 0..ITERATIONS {
            let send: Vec<Vec<u8>> = comm
                .destinations()
                .iter()
                .map(|_| value.to_le_bytes().to_vec())
                .collect();
            let recv = comm.neighbor_alltoall(&mut p, &send);
            let neighbor_sum: f64 = recv
                .iter()
                .map(|b| f64::from_le_bytes(b.as_slice().try_into().unwrap()))
                .sum();
            // Jacobi relaxation with implicit zero-gradient boundaries
            let degree = comm.out_degree() as f64;
            value = 0.5 * value + 0.5 * neighbor_sum / degree.max(1.0);
        }
        (comm.new_rank(), value)
    });

    let mut field = vec![0.0f64; DIMS[0] * DIMS[1]];
    for (position, value) in results {
        field[position] = value;
    }
    field
}

fn main() {
    println!(
        "Jacobi heat diffusion on a {}x{} process grid, {} iterations, {} nodes x {} ranks\n",
        DIMS[0], DIMS[1], ITERATIONS, NODES, PER_NODE
    );

    // 1. numerical equivalence under reordering -----------------------------
    let reference = run_simulation(Algorithm::Blocked);
    for alg in [
        Algorithm::Hyperplane,
        Algorithm::KdTree,
        Algorithm::StencilStrips,
    ] {
        let field = run_simulation(alg);
        let max_diff = reference
            .iter()
            .zip(&field)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "{:?}: max deviation from the non-reordered run = {:.3e} (must be ~0)",
            alg, max_diff
        );
        assert!(max_diff < 1e-12, "reordering must not change the numerics");
    }

    // 2. what the reordering buys in communication --------------------------
    let problem = MappingProblem::new(
        Dims::from_slice(&DIMS),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(NODES, PER_NODE),
    )
    .unwrap();
    let graph = CartGraph::build(problem.dims(), problem.stencil(), false);
    let model = ExchangeModel::new(&Machine::vsc4());
    let blocked = Blocked.compute(&problem).unwrap();
    println!("\nCommunication cost of the halo exchange (64 KiB per neighbor):");
    for (name, mapping) in [
        ("Blocked", blocked.clone()),
        (
            "Hyperplane",
            Hyperplane::default().compute(&problem).unwrap(),
        ),
        ("k-d Tree", KdTree.compute(&problem).unwrap()),
        ("Stencil Strips", StencilStrips.compute(&problem).unwrap()),
    ] {
        let cost = metrics::evaluate(&graph, &mapping);
        let t = model.exchange_time(&graph, &mapping, 1 << 16);
        println!(
            "  {:<14} Jsum = {:>4}  Jmax = {:>3}  simulated exchange = {:>8.1} µs  speedup = {:.2}x",
            name,
            cost.j_sum,
            cost.j_max,
            t * 1e6,
            model.exchange_time(&graph, &blocked, 1 << 16) / t
        );
    }
}
