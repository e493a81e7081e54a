//! Quickstart: map the paper's headline instance (50 nodes × 48 processes on
//! a 50 × 48 grid, nearest-neighbor stencil) with every algorithm, compare
//! mapping quality and simulate the resulting `MPI_Neighbor_alltoall` time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use stencilmap::prelude::*;

fn main() {
    // 1. Describe the problem: grid, stencil, node allocation ---------------
    let problem = MappingProblem::new(
        Dims::from_slice(&[50, 48]),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(50, 48),
    )
    .expect("consistent problem");
    let graph = CartGraph::build(problem.dims(), problem.stencil(), false);

    println!(
        "Instance: {} grid, {} nodes x {} processes, {} stencil offsets\n",
        problem.dims(),
        problem.num_nodes(),
        problem.node_size_parameter(),
        problem.stencil().k()
    );

    // 2. Run every mapping algorithm of the paper ---------------------------
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(Blocked),
        Box::new(Hyperplane::default()),
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(Nodecart),
        Box::new(GraphMapper::with_seed(42)),
        Box::new(RandomMapping::with_seed(42)),
    ];

    let machine = Machine::vsc4();
    let model = ExchangeModel::new(&machine);
    let blocked_mapping = Blocked.compute(&problem).unwrap();
    let blocked_time = model.exchange_time(&graph, &blocked_mapping, 1 << 19);

    println!(
        "{:<14} {:>8} {:>8} {:>14} {:>10}",
        "algorithm", "Jsum", "Jmax", "512KiB time", "speedup"
    );
    for mapper in &mappers {
        match mapper.compute(&problem) {
            Ok(mapping) => {
                let cost = metrics::evaluate(&graph, &mapping);
                let time = model.exchange_time(&graph, &mapping, 1 << 19);
                println!(
                    "{:<14} {:>8} {:>8} {:>11.2} ms {:>9.2}x",
                    mapper.name(),
                    cost.j_sum,
                    cost.j_max,
                    time * 1e3,
                    blocked_time / time
                );
            }
            Err(e) => println!("{:<14} not applicable: {e}", mapper.name()),
        }
    }

    // 3. The MPIX_Cart_stencil_comm-style front-end --------------------------
    let comm = CartStencilComm::create(
        Dims::from_slice(&[50, 48]),
        false,
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(50, 48),
        Algorithm::StencilStrips,
        0,
    )
    .unwrap();
    println!(
        "\nCartStencilComm with {}: rank 0 -> new rank {}, coordinate {:?}, {} neighbors",
        comm.algorithm(),
        comm.new_rank_of(0),
        comm.coords_of_new_rank(comm.new_rank_of(0)),
        comm.neighbors_of_new_rank(comm.new_rank_of(0)).len()
    );
    println!(
        "Mapping cost via the communicator: Jsum = {}, Jmax = {}",
        comm.cost().j_sum,
        comm.cost().j_max
    );
}
