//! Level-synchronous breadth-first search with team-parallel frontier
//! expansion.
//!
//! BFS alternates between two very different regimes: the first and last few
//! levels have tiny frontiers (best handled sequentially or by a single
//! `r = 1` task), while the middle levels have frontiers of thousands of
//! vertices that want data-parallel expansion.  That is exactly the
//! mixed-mode shape the scheduler is built for: [`bfs_mixed`] turns every
//! sufficiently large level into **one** team task whose members expand
//! disjoint chunks of the frontier, and keeps small levels on the calling
//! path.  Discovered vertices are claimed with a CAS on the distance array,
//! so every vertex enters the next frontier exactly once.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use teamsteal_core::Scheduler;
use teamsteal_util::SendConstPtr;

use crate::team_size::{best_team_size, chunk_range};

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// A directed graph in compressed-sparse-row form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v] .. offsets[v + 1]` indexes the targets of vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists.
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph with `num_vertices` vertices from an edge list.
    /// Duplicate edges are kept; self loops are allowed.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; num_vertices];
        for &(u, v) in edges {
            assert!((u as usize) < num_vertices, "edge source {u} out of range");
            assert!((v as usize) < num_vertices, "edge target {v} out of range");
            degree[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(u, v) in edges {
            let slot = cursor[u as usize];
            targets[slot] = v;
            cursor[u as usize] += 1;
        }
        CsrGraph { offsets, targets }
    }

    /// An undirected (symmetric) graph from an edge list: every edge is
    /// inserted in both directions.
    pub fn undirected_from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Self {
        let mut sym = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            sym.push((u, v));
            sym.push((v, u));
        }
        Self::from_edges(num_vertices, &sym)
    }

    /// A `width × height` 4-neighbour grid graph (undirected), vertex
    /// `(x, y)` has index `y * width + x`.
    pub fn grid(width: usize, height: usize) -> Self {
        let mut edges = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let v = (y * width + x) as u32;
                if x + 1 < width {
                    edges.push((v, v + 1));
                }
                if y + 1 < height {
                    edges.push((v, v + width as u32));
                }
            }
        }
        Self::undirected_from_edges(width * height, &edges)
    }

    /// A pseudo-random graph with `num_vertices` vertices and approximately
    /// `avg_degree` outgoing edges per vertex (directed), deterministic in
    /// `seed`.
    pub fn random(num_vertices: usize, avg_degree: usize, seed: u64) -> Self {
        let mut rng = teamsteal_util::rng::Xoshiro256::new(seed);
        let mut edges = Vec::with_capacity(num_vertices * avg_degree);
        for u in 0..num_vertices as u32 {
            for _ in 0..avg_degree {
                let v = rng.next_usize_below(num_vertices.max(1)) as u32;
                edges.push((u, v));
            }
        }
        Self::from_edges(num_vertices, &edges)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The out-neighbours of `v`.
    #[inline]
    pub fn neighbours(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }
}

/// Sequential reference BFS returning the distance (in edges) from `source`
/// to every vertex, [`UNREACHABLE`] where no path exists.
pub fn bfs_sequential(graph: &CsrGraph, source: u32) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    if n == 0 {
        return dist;
    }
    assert!((source as usize) < n, "source vertex out of range");
    let mut frontier = vec![source];
    dist[source as usize] = 0;
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in graph.neighbours(u) {
                if dist[v as usize] == UNREACHABLE {
                    dist[v as usize] = level;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Minimum number of frontier edges per team member before a level is
/// expanded by a team task.
pub const MIN_EDGES_PER_MEMBER: usize = 4 * 1024;

/// Mixed-mode level-synchronous BFS (see the module documentation).
pub fn bfs_mixed(scheduler: &Scheduler, graph: &CsrGraph, source: u32) -> Vec<u32> {
    bfs_mixed_with(scheduler, graph, source, MIN_EDGES_PER_MEMBER)
}

/// [`bfs_mixed`] with an explicit work-per-member threshold.
pub fn bfs_mixed_with(
    scheduler: &Scheduler,
    graph: &CsrGraph,
    source: u32,
    min_edges_per_member: usize,
) -> Vec<u32> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    assert!((source as usize) < n, "source vertex out of range");
    let p = scheduler.num_threads();

    // Shared distance array, claimed by CAS so each vertex is discovered once.
    let dist: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(UNREACHABLE)).collect());
    dist[source as usize].store(0, Ordering::Relaxed);

    // The graph is borrowed; team tasks need 'static closures, so hand the
    // CSR arrays over as raw pointers (they outlive every blocking scope).
    let offsets = SendConstPtr::from_slice(&graph.offsets);
    let targets = SendConstPtr::from_slice(&graph.targets);
    let offsets_len = graph.offsets.len();
    let targets_len = graph.targets.len();

    let mut frontier: Vec<u32> = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        // Work estimate for this level: the number of edges leaving the
        // frontier (the quantity that actually determines expansion cost).
        let edges: usize = frontier.iter().map(|&v| graph.degree(v)).sum();
        let team = best_team_size(edges.max(frontier.len()), min_edges_per_member, p);
        if team <= 1 {
            // Small level: expand on the calling thread.
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in graph.neighbours(u) {
                    if dist[v as usize]
                        .compare_exchange(UNREACHABLE, level, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        next.push(v);
                    }
                }
            }
            frontier = next;
            continue;
        }

        // Large level: one team task over the frontier.  Every member
        // appends its discoveries to a private buffer; the buffers are
        // concatenated afterwards.
        let frontier_arc: Arc<Vec<u32>> = Arc::new(std::mem::take(&mut frontier));
        let buckets: Arc<Vec<Mutex<Vec<u32>>>> =
            Arc::new((0..p).map(|_| Mutex::new(Vec::new())).collect());
        {
            let dist = Arc::clone(&dist);
            let frontier_arc = Arc::clone(&frontier_arc);
            let buckets = Arc::clone(&buckets);
            scheduler.run_team(team, move |ctx| {
                let members = ctx.team_size();
                let me = ctx.local_id();
                // SAFETY: the CSR arrays outlive the blocking run_team call
                // and are never mutated.
                let offsets = unsafe { offsets.slice(offsets_len) };
                let targets = unsafe { targets.slice(targets_len) };
                let my_vertices = chunk_range(frontier_arc.len(), members, me);
                let mut local = Vec::new();
                for &u in &frontier_arc[my_vertices] {
                    let adj = &targets[offsets[u as usize]..offsets[u as usize + 1]];
                    for &v in adj {
                        if dist[v as usize]
                            .compare_exchange(
                                UNREACHABLE,
                                level,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            local.push(v);
                        }
                    }
                }
                *buckets[me].lock().expect("frontier bucket poisoned") = local;
            });
        }
        let mut next = Vec::new();
        for bucket in buckets.iter() {
            next.append(&mut bucket.lock().expect("frontier bucket poisoned"));
        }
        frontier = next;
    }

    dist.iter().map(|d| d.load(Ordering::Relaxed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};

    #[test]
    fn csr_construction_and_accessors() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.neighbours(3), &[] as &[u32]);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_is_rejected() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn sequential_bfs_on_a_path() {
        let g = CsrGraph::undirected_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(bfs_sequential(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_sequential(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_vertices_are_marked() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let d = bfs_sequential(&g, 0);
        assert_eq!(d, vec![0, 1, UNREACHABLE, UNREACHABLE]);
        let s = Scheduler::with_threads(2);
        assert_eq!(bfs_mixed(&s, &g, 0), d);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert!(bfs_sequential(&g, 0).is_empty());
        let s = Scheduler::with_threads(2);
        assert!(bfs_mixed(&s, &g, 0).is_empty());
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let g = CsrGraph::grid(8, 5);
        let d = bfs_sequential(&g, 0);
        for y in 0..5 {
            for x in 0..8 {
                assert_eq!(d[y * 8 + x], (x + y) as u32, "wrong distance at ({x},{y})");
            }
        }
    }

    #[test]
    fn mixed_matches_sequential_on_grid_with_teams() {
        with_watchdog("mixed_matches_sequential_on_grid_with_teams", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let g = CsrGraph::grid(300, 200);
            let reference = bfs_sequential(&g, 0);
            let got = bfs_mixed_with(&s, &g, 0, 128);
            assert_eq!(got, reference);
            assert!(
                s.metrics().teams_formed > 0,
                "wide middle levels must be expanded by team tasks"
            );
        });
    }

    #[test]
    fn mixed_matches_sequential_on_random_graph() {
        with_watchdog("mixed_matches_sequential_on_random_graph", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let g = CsrGraph::random(20_000, 8, 77);
            for source in [0u32, 17, 9999] {
                assert_eq!(bfs_mixed_with(&s, &g, source, 256), bfs_sequential(&g, source));
            }
        });
    }

    #[test]
    fn non_power_of_two_threads() {
        with_watchdog("non_power_of_two_threads", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let g = CsrGraph::grid(150, 150);
            assert_eq!(bfs_mixed_with(&s, &g, 42, 128), bfs_sequential(&g, 42));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn prop_mixed_matches_sequential_on_random_graphs(
            n in 1usize..400,
            avg_degree in 0usize..6,
            seed in any::<u64>(),
            source_pick in any::<u32>(),
        ) {
            let g = CsrGraph::random(n, avg_degree, seed);
            let source = source_pick % n as u32;
            let s = Scheduler::with_threads(2);
            let got = bfs_mixed_with(&s, &g, source, 32);
            prop_assert_eq!(got, bfs_sequential(&g, source));
        }
    }
}
