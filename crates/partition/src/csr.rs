//! Undirected weighted graphs in compressed sparse row (CSR) form.

/// An undirected graph with integer edge and vertex weights, stored in CSR
/// form (every undirected edge appears in the adjacency of both endpoints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u32>,
    vwgt: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an undirected edge list `(u, v, weight)`.
    ///
    /// Self loops are dropped; parallel edges are merged by summing their
    /// weights.  All vertex weights are one.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32, u32)]) -> Self {
        let mut adj: Vec<std::collections::BTreeMap<u32, u32>> =
            vec![std::collections::BTreeMap::new(); num_vertices];
        for &(u, v, w) in edges {
            if u == v {
                continue;
            }
            assert!((u as usize) < num_vertices && (v as usize) < num_vertices);
            *adj[u as usize].entry(v).or_insert(0) += w;
            *adj[v as usize].entry(u).or_insert(0) += w;
        }
        let mut xadj = Vec::with_capacity(num_vertices + 1);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        xadj.push(0);
        for m in adj {
            for (v, w) in m {
                adjncy.push(v);
                adjwgt.push(w);
            }
            xadj.push(adjncy.len());
        }
        Graph {
            xadj,
            adjncy,
            adjwgt,
            vwgt: vec![1; num_vertices],
        }
    }

    /// Builds a graph directly from CSR arrays (must already be symmetric).
    pub fn from_csr(xadj: Vec<usize>, adjncy: Vec<u32>, adjwgt: Vec<u32>, vwgt: Vec<u32>) -> Self {
        assert_eq!(xadj.len(), vwgt.len() + 1);
        assert_eq!(adjncy.len(), *xadj.last().unwrap_or(&0));
        assert_eq!(adjncy.len(), adjwgt.len());
        Graph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    /// Builds a graph from a directed CSR adjacency (such as the Cartesian
    /// communication graph of a symmetric stencil).  The undirected weight
    /// of `{a, b}` (with `a < b`) is the number of times `b` appears in
    /// `a`'s row, or — when it never does — the number of times `a` appears
    /// in `b`'s row, so an edge present in either direction is recorded
    /// exactly once.
    ///
    /// Runs in O(V + E): rows are deduplicated into multiplicity lists with
    /// a marker array, and reverse-edge presence is answered by marker
    /// stamps over a transposed presence list instead of the former
    /// O(degree) `contains` scan per edge (which was quadratic on dense
    /// rows).
    pub fn from_directed_csr(xadj: &[usize], adjncy: &[u32]) -> Self {
        let n = xadj.len() - 1;
        assert!(n < u32::MAX as usize);
        // 1. deduplicate every row into (target, multiplicity) lists,
        //    preserving first-occurrence order
        let mut mult_xadj = Vec::with_capacity(n + 1);
        let mut mult_adj: Vec<u32> = Vec::with_capacity(adjncy.len());
        let mut mult_cnt: Vec<u32> = Vec::with_capacity(adjncy.len());
        let mut marker = vec![u32::MAX; n];
        let mut slot = vec![0u32; n];
        mult_xadj.push(0usize);
        for u in 0..n {
            for &v in &adjncy[xadj[u]..xadj[u + 1]] {
                let vi = v as usize;
                assert!(vi < n);
                if marker[vi] != u as u32 {
                    marker[vi] = u as u32;
                    slot[vi] = mult_adj.len() as u32;
                    mult_adj.push(v);
                    mult_cnt.push(1);
                } else {
                    mult_cnt[slot[vi] as usize] += 1;
                }
            }
            mult_xadj.push(mult_adj.len());
        }
        // 2. transposed presence lists: row `t` holds every source whose
        //    (deduplicated) row mentions `t`
        let mut trans_xadj = vec![0usize; n + 1];
        for &t in &mult_adj {
            trans_xadj[t as usize + 1] += 1;
        }
        for t in 0..n {
            trans_xadj[t + 1] += trans_xadj[t];
        }
        let mut trans_adj = vec![0u32; mult_adj.len()];
        let mut cursor: Vec<usize> = trans_xadj[..n].to_vec();
        for s in 0..n {
            for &t in &mult_adj[mult_xadj[s]..mult_xadj[s + 1]] {
                trans_adj[cursor[t as usize]] = s as u32;
                cursor[t as usize] += 1;
            }
        }
        // 3. emit every undirected edge exactly once (self loops drop);
        //    the marker array is re-stamped per vertex with the sources
        //    pointing at it, answering "does v's row contain u?" in O(1)
        marker.iter_mut().for_each(|x| *x = u32::MAX);
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for u in 0..n {
            for &s in &trans_adj[trans_xadj[u]..trans_xadj[u + 1]] {
                marker[s as usize] = u as u32;
            }
            let uu = u as u32;
            for (i, &v) in mult_adj[mult_xadj[u]..mult_xadj[u + 1]].iter().enumerate() {
                let c = mult_cnt[mult_xadj[u] + i];
                if v > uu {
                    edges.push((uu, v, c));
                } else if v < uu && marker[v as usize] != uu {
                    // the reverse edge is missing: record the edge when
                    // visiting its larger endpoint
                    edges.push((v, uu, c));
                }
            }
        }
        // 4. assemble the undirected CSR directly (no tree maps); no two
        //    emitted edges share endpoints, so rows only need sorting
        let mut out_xadj = vec![0usize; n + 1];
        for &(a, b, _) in &edges {
            out_xadj[a as usize + 1] += 1;
            out_xadj[b as usize + 1] += 1;
        }
        for i in 0..n {
            out_xadj[i + 1] += out_xadj[i];
        }
        let m = edges.len() * 2;
        let mut out_adj = vec![0u32; m];
        let mut out_wgt = vec![0u32; m];
        let mut cur: Vec<usize> = out_xadj[..n].to_vec();
        for &(a, b, w) in &edges {
            let (ai, bi) = (a as usize, b as usize);
            out_adj[cur[ai]] = b;
            out_wgt[cur[ai]] = w;
            cur[ai] += 1;
            out_adj[cur[bi]] = a;
            out_wgt[cur[bi]] = w;
            cur[bi] += 1;
        }
        let mut tmp: Vec<(u32, u32)> = Vec::new();
        for u in 0..n {
            let (s, e) = (out_xadj[u], out_xadj[u + 1]);
            if e - s > 1 {
                tmp.clear();
                tmp.extend(
                    out_adj[s..e]
                        .iter()
                        .copied()
                        .zip(out_wgt[s..e].iter().copied()),
                );
                tmp.sort_unstable();
                for (i, &(v, w)) in tmp.iter().enumerate() {
                    out_adj[s + i] = v;
                    out_wgt[s + i] = w;
                }
            }
        }
        Graph {
            xadj: out_xadj,
            adjncy: out_adj,
            adjwgt: out_wgt,
            vwgt: vec![1; n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// The neighbors of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// The edge weights corresponding to [`Graph::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: usize) -> &[u32] {
        &self.adjwgt[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Iterates over `(neighbor, weight)` pairs of vertex `v`.
    #[inline]
    pub fn edges_of(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Degree (number of incident undirected edges) of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// The weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: usize) -> u32 {
        self.vwgt[v]
    }

    /// Sets the weight of vertex `v`.
    pub fn set_vertex_weight(&mut self, v: usize, w: u32) {
        self.vwgt[v] = w;
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vwgt.iter().map(|&w| w as u64).sum()
    }

    /// Checks CSR symmetry (every edge stored in both directions with equal
    /// weight).
    pub fn is_symmetric(&self) -> bool {
        (0..self.num_vertices()).all(|u| {
            self.edges_of(u).all(|(v, w)| {
                self.edges_of(v as usize)
                    .any(|(x, wx)| x as usize == u && wx == w)
            })
        })
    }

    /// The weighted edge cut of a partition: the summed weight of undirected
    /// edges whose endpoints lie in different parts.
    pub fn cut(&self, part: &[u32]) -> u64 {
        assert_eq!(part.len(), self.num_vertices());
        let mut cut = 0u64;
        for u in 0..self.num_vertices() {
            for (v, w) in self.edges_of(u) {
                if (v as usize) > u && part[u] != part[v as usize] {
                    cut += w as u64;
                }
            }
        }
        cut
    }

    /// The weights of each part of a partition.
    pub fn part_weights(&self, part: &[u32], num_parts: usize) -> Vec<u64> {
        let mut weights = vec![0u64; num_parts];
        for (v, &p) in part.iter().enumerate() {
            weights[p as usize] += self.vwgt[v] as u64;
        }
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{grid_graph, path_graph};

    #[test]
    fn from_edges_builds_symmetric_csr() {
        let g = Graph::from_edges(4, &[(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 0, 5)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.edge_weights(0), &[2, 5]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.total_vertex_weight(), 4);
    }

    #[test]
    fn parallel_edges_merge_and_self_loops_drop() {
        let g = Graph::from_edges(3, &[(0, 1, 1), (1, 0, 3), (2, 2, 9)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weights(0), &[4]);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn grid_graph_edge_count() {
        let g = grid_graph(4, 5);
        assert_eq!(g.num_vertices(), 20);
        // horizontal: 4*4, vertical: 3*5
        assert_eq!(g.num_edges(), 16 + 15);
        assert!(g.is_symmetric());
    }

    #[test]
    fn cut_counts_undirected_edges_once() {
        let g = path_graph(4);
        // parts: 0 0 | 1 1 -> one cut edge
        assert_eq!(g.cut(&[0, 0, 1, 1]), 1);
        assert_eq!(g.cut(&[0, 1, 0, 1]), 3);
        assert_eq!(g.cut(&[0, 0, 0, 0]), 0);
        assert_eq!(g.part_weights(&[0, 0, 1, 1], 2), vec![2, 2]);
    }

    #[test]
    fn from_directed_csr_roundtrip() {
        // directed two-cycle between 0 and 1 plus edge 1->2 / 2->1
        let xadj = vec![0, 1, 3, 4];
        let adjncy = vec![1u32, 0, 2, 1];
        let g = Graph::from_directed_csr(&xadj, &adjncy);
        assert_eq!(g.num_edges(), 2);
        assert!(g.is_symmetric());
    }

    #[test]
    fn from_directed_csr_matches_reference_on_random_inputs() {
        // reference = the original O(E·d) contains-scan construction
        fn reference(xadj: &[usize], adjncy: &[u32]) -> Graph {
            let n = xadj.len() - 1;
            let mut edges = Vec::new();
            for u in 0..n {
                for &v in &adjncy[xadj[u]..xadj[u + 1]] {
                    if (u as u32) < v {
                        edges.push((u as u32, v, 1u32));
                    } else if v < u as u32
                        && !adjncy[xadj[v as usize]..xadj[v as usize + 1]].contains(&(u as u32))
                    {
                        edges.push((v, u as u32, 1u32));
                    }
                }
            }
            Graph::from_edges(n, &edges)
        }
        // deterministic pseudo-random directed CSRs: asymmetric rows,
        // duplicate entries (multiplicities), self loops, empty rows
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        for n in [1usize, 2, 3, 5, 9, 17] {
            for _case in 0..8 {
                let mut xadj = vec![0usize];
                let mut adjncy = Vec::new();
                for _u in 0..n {
                    let deg = next(2 * n + 1);
                    for _ in 0..deg {
                        adjncy.push(next(n) as u32);
                    }
                    xadj.push(adjncy.len());
                }
                let fast = Graph::from_directed_csr(&xadj, &adjncy);
                assert_eq!(fast, reference(&xadj, &adjncy), "n={n} xadj={xadj:?}");
            }
        }
    }

    #[test]
    fn from_directed_csr_handles_dense_rows_linearly() {
        // a dense hub row: vertex 0 lists every other vertex, every other
        // vertex lists 0, so the old construction ran one O(n) contains-scan
        // over the hub row per spoke — O(n²) overall; the marker pass is
        // O(E).  This pins the result structure at a size where the
        // quadratic path is already noticeable.
        let n = 2000usize;
        let mut adjncy: Vec<u32> = (1..n as u32).collect();
        let mut xadj = vec![0usize, n - 1];
        for v in 1..n {
            adjncy.push(0);
            xadj.push(n - 1 + v);
        }
        let g = Graph::from_directed_csr(&xadj, &adjncy);
        assert_eq!(g.num_vertices(), n);
        assert_eq!(g.num_edges(), n - 1);
        assert_eq!(g.degree(0), n - 1);
        assert!((1..n).all(|v| g.degree(v) == 1 && g.neighbors(v) == [0]));
        assert!(g.edge_weights(0).iter().all(|&w| w == 1));
        assert!(g.is_symmetric());
    }

    #[test]
    fn from_csr_validates_lengths() {
        let g = Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![1, 1], vec![1, 1]);
        assert_eq!(g.num_vertices(), 2);
        assert!(g.is_symmetric());
    }

    #[test]
    #[should_panic]
    fn from_csr_rejects_inconsistent_lengths() {
        Graph::from_csr(vec![0, 1], vec![1, 0], vec![1, 1], vec![1, 1]);
    }

    #[test]
    fn vertex_weight_updates() {
        let mut g = path_graph(3);
        g.set_vertex_weight(1, 5);
        assert_eq!(g.vertex_weight(1), 5);
        assert_eq!(g.total_vertex_weight(), 7);
        assert_eq!(g.part_weights(&[0, 0, 1], 2), vec![6, 1]);
    }
}
