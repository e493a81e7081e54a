//! Property-based integration tests over the public API: every algorithm
//! produces valid, allocation-respecting permutations on arbitrary instances,
//! and the core invariants of the paper hold across the crates.

use proptest::prelude::*;
use stencilmap::prelude::*;

fn arbitrary_problem(
    d0: usize,
    d1: usize,
    groups: usize,
    stencil_choice: u8,
) -> Option<MappingProblem> {
    let p = d0 * d1;
    if !p.is_multiple_of(groups) {
        return None;
    }
    let stencil = match stencil_choice % 3 {
        0 => Stencil::nearest_neighbor(2),
        1 => Stencil::nearest_neighbor_with_hops(2),
        _ => Stencil::component(2),
    };
    MappingProblem::new(
        Dims::from_slice(&[d0, d1]),
        stencil,
        NodeAllocation::homogeneous(groups, p / groups),
    )
    .ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every distributed algorithm yields a bijective rank→position map that
    /// respects the allocation, on arbitrary 2-d instances and stencils.
    #[test]
    fn all_distributed_algorithms_yield_valid_mappings(
        d0 in 2usize..12,
        d1 in 2usize..12,
        groups in 1usize..8,
        stencil_choice in 0u8..3,
    ) {
        if let Some(problem) = arbitrary_problem(d0, d1, groups, stencil_choice) {
            for mapper in [
                Box::new(Hyperplane::default()) as Box<dyn Mapper>,
                Box::new(KdTree),
                Box::new(StencilStrips),
            ] {
                let mapping = mapper.compute(&problem).unwrap();
                prop_assert!(mapping.respects_allocation(problem.alloc()));
                // bijection: every position owned exactly once
                let mut seen = vec![false; problem.num_processes()];
                for r in 0..problem.num_processes() {
                    let pos = mapping.position_of_rank(r);
                    prop_assert!(!seen[pos]);
                    seen[pos] = true;
                    prop_assert_eq!(mapping.rank_of_position(pos), r);
                }
            }
        }
    }

    /// Jsum and Jmax are invariant under relabeling nodes and bounded by the
    /// number of directed edges; the blocked mapping never beats the best of
    /// the three new algorithms by more than a small margin.
    #[test]
    fn metric_invariants(
        d0 in 2usize..10,
        d1 in 2usize..10,
        groups in 2usize..6,
        stencil_choice in 0u8..3,
    ) {
        if let Some(problem) = arbitrary_problem(d0, d1, groups, stencil_choice) {
            let graph = CartGraph::build(problem.dims(), problem.stencil(), false);
            let blocked = metrics::evaluate(&graph, &Blocked.compute(&problem).unwrap());
            prop_assert!(blocked.j_sum <= graph.num_directed_edges() as u64);
            prop_assert!(blocked.j_max <= blocked.j_sum);

            let best_new = [
                metrics::evaluate(&graph, &Hyperplane::default().compute(&problem).unwrap()).j_sum,
                metrics::evaluate(&graph, &KdTree.compute(&problem).unwrap()).j_sum,
                metrics::evaluate(&graph, &StencilStrips.compute(&problem).unwrap()).j_sum,
            ]
            .into_iter()
            .min()
            .unwrap();
            // the best of the three specialised algorithms never loses to
            // blocked on these regular instances (paper, Section VI-C)
            prop_assert!(best_new <= blocked.j_sum,
                "best new {} vs blocked {}", best_new, blocked.j_sum);
        }
    }

    /// The exchange-time model is monotone: adding bytes or inter-node
    /// messages never makes the simulated exchange faster.
    #[test]
    fn exchange_model_monotonicity(
        d0 in 2usize..10,
        d1 in 2usize..10,
        groups in 2usize..6,
        msg_exp in 6u32..20,
    ) {
        if let Some(problem) = arbitrary_problem(d0, d1, groups, 0) {
            let graph = CartGraph::build(problem.dims(), problem.stencil(), false);
            let model = ExchangeModel::new(&Machine::vsc4());
            let blocked = Blocked.compute(&problem).unwrap();
            let small = model.exchange_time(&graph, &blocked, 1 << msg_exp);
            let large = model.exchange_time(&graph, &blocked, 1 << (msg_exp + 1));
            prop_assert!(large >= small);

            // a mapping with strictly larger Jmax and Jsum is never faster
            let random = RandomMapping::with_seed(7).compute(&problem).unwrap();
            let cb = metrics::evaluate(&graph, &blocked);
            let cr = metrics::evaluate(&graph, &random);
            if cr.j_max > cb.j_max && cr.j_sum > cb.j_sum {
                prop_assert!(
                    model.exchange_time(&graph, &random, 1 << msg_exp) >= small
                );
            }
        }
    }

    /// CartStencilComm permutations are involutions of each other:
    /// `old_rank_of(new_rank_of(r)) == r` and node assignments stay blocked.
    #[test]
    fn cart_stencil_comm_consistency(
        d0 in 2usize..10,
        d1 in 2usize..10,
        groups in 1usize..6,
        alg_choice in 0u8..4,
    ) {
        let p = d0 * d1;
        if p % groups == 0 {
            let alg = match alg_choice % 4 {
                0 => Algorithm::Hyperplane,
                1 => Algorithm::KdTree,
                2 => Algorithm::StencilStrips,
                _ => Algorithm::Blocked,
            };
            let comm = CartStencilComm::create(
                Dims::from_slice(&[d0, d1]),
                false,
                Stencil::nearest_neighbor(2),
                NodeAllocation::homogeneous(groups, p / groups),
                alg,
                0,
            )
            .unwrap();
            for r in 0..p {
                prop_assert_eq!(comm.old_rank_of(comm.new_rank_of(r)), r);
                let node = comm.problem().alloc().node_of_rank(r);
                prop_assert_eq!(comm.node_of_new_rank(comm.new_rank_of(r)), node);
            }
        }
    }
}
