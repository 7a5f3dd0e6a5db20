//! Level-synchronous breadth-first search with team-parallel frontier
//! expansion.
//!
//! BFS alternates between two very different regimes: the first and last few
//! levels have tiny frontiers (best handled sequentially or by a single
//! `r = 1` task), while the middle levels have frontiers of thousands of
//! vertices that want data-parallel expansion.  That is exactly the
//! mixed-mode shape the scheduler is built for: [`bfs_mixed`] turns every
//! sufficiently large level into **one** team task whose members expand
//! blocks of the frontier they take in turn, and runs small levels with the
//! sequential level step on the calling thread.  Inside a team level the
//! members mark discovered vertices with atomic loads and stores on the
//! distance array — every writer in a level writes the same distance, so a
//! vertex two members reach at once at worst enters the next frontier twice;
//! outside one the array is plain memory.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use teamsteal_core::Scheduler;
use teamsteal_util::{SendConstPtr, SendMutPtr};

use crate::team_size::best_team_size;

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
    let (mut dist, mut frontier) = start(graph, source);
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        frontier = expand_level(graph, &mut dist, &frontier, level);
    }
    dist
}

/// The distance vector with only `source` reached, and the first frontier
/// (empty for an empty graph).
fn start(graph: &CsrGraph, source: u32) -> (Vec<u32>, Vec<u32>) {
    let n = graph.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    if n == 0 {
        return (dist, Vec::new());
    }
    assert!((source as usize) < n, "source vertex out of range");
    dist[source as usize] = 0;
    (dist, vec![source])
}

/// One level on the calling thread: every unreached neighbour of `frontier`
/// gets distance `level` and joins the returned next frontier.
fn expand_level(graph: &CsrGraph, dist: &mut [u32], frontier: &[u32], level: u32) -> Vec<u32> {
    let mut next = Vec::new();
    for &u in frontier {
        for &v in graph.neighbours(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = level;
                next.push(v);
            }
        }
    }
    next
}

/// Minimum number of frontier edges per team member before a level is
/// expanded by a team task.
pub const MIN_EDGES_PER_MEMBER: usize = 4 * 1024;

/// Mixed-mode level-synchronous BFS (see the module documentation).
pub fn bfs_mixed(scheduler: &Scheduler, graph: &CsrGraph, source: u32) -> Vec<u32> {
    bfs_with_floor(scheduler, graph, source, MIN_EDGES_PER_MEMBER)
}

/// [`bfs_mixed`] with the per-level edges-per-member floor as a parameter.
fn bfs_with_floor(
    scheduler: &Scheduler,
    graph: &CsrGraph,
    source: u32,
    min_edges_per_member: usize,
) -> Vec<u32> {
    let p = scheduler.num_threads();
    let (mut dist, mut frontier) = start(graph, source);
    // A level's work is the edges leaving its frontier; the frontier's size
    // times the mean out-degree estimates it without a pass over the frontier.
    let mean_degree = graph
        .num_edges()
        .div_ceil(graph.num_vertices().max(1))
        .max(1);
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let team = best_team_size(frontier.len() * mean_degree, min_edges_per_member, p);
        frontier = if team <= 1 {
            expand_level(graph, &mut dist, &frontier, level)
        } else {
            expand_level_team(scheduler, team, graph, &mut dist, &frontier, level)
        };
    }
    dist
}

// `AtomicU32::from_ptr` needs `u32`'s alignment to be the atomic's.
const _: () = assert!(std::mem::align_of::<u32>() == std::mem::align_of::<AtomicU32>());

/// Frontier vertices a team member takes at a time.  Members take blocks
/// until none is left, so a member that starts late or shares its core does
/// less of the level instead of holding up the others.
const CLAIM: usize = 1024;

/// One level as one team task of `team` members: each expands blocks of the
/// frontier and marks unreached vertices through an atomic view of `dist`,
/// into a private buffer; the next frontier is the buffers in member order.
fn expand_level_team(
    scheduler: &Scheduler,
    team: usize,
    graph: &CsrGraph,
    dist: &mut [u32],
    frontier: &[u32],
    level: u32,
) -> Vec<u32> {
    // The team task's closure must be 'static: hand the borrowed graph,
    // frontier and distances over as raw pointers.  `run_team` blocks until
    // the team is done, so they outlive every member, and `dist` is touched
    // only atomically while the team runs.
    let graph = SendConstPtr::new(graph as *const CsrGraph);
    let frontier_len = frontier.len();
    let frontier = SendConstPtr::from_slice(frontier);
    let dist = SendMutPtr::from_slice(dist);
    let buckets: Arc<Vec<Mutex<Vec<u32>>>> = Arc::new(
        (0..scheduler.num_threads())
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
    );
    let member_buckets = Arc::clone(&buckets);
    let next_block = AtomicUsize::new(0);
    scheduler.run_team(team, move |ctx| {
        let me = ctx.local_id();
        // SAFETY: see above; the graph and the frontier are never mutated.
        let (graph, frontier) = unsafe { (&*graph.get(), frontier.slice(frontier_len)) };
        let mut local = Vec::new();
        loop {
            let start = next_block.fetch_add(CLAIM, Ordering::Relaxed);
            if start >= frontier_len {
                break;
            }
            for &u in &frontier[start..frontier_len.min(start + CLAIM)] {
                for &v in graph.neighbours(u) {
                    // SAFETY: `v` indexes `dist` (it is a vertex of the
                    // graph), the alignment is checked above, and every
                    // access to `dist` is atomic until `run_team` returns.
                    let d = unsafe { AtomicU32::from_ptr(dist.get().add(v as usize)) };
                    // A plain mark, not a CAS: two members that reach `v` at
                    // once both queue it, which repeats its expansion next
                    // level but writes the same distance.
                    if d.load(Ordering::Relaxed) == UNREACHABLE {
                        d.store(level, Ordering::Relaxed);
                        local.push(v);
                    }
                }
            }
        }
        *member_buckets[me].lock().expect("frontier bucket poisoned") = local;
    });
    let mut next = Vec::new();
    for bucket in buckets.iter() {
        next.append(&mut bucket.lock().expect("frontier bucket poisoned"));
    }
    next
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
        with_watchdog(
            "mixed_matches_sequential_on_grid_with_teams",
            WATCHDOG,
            || {
                let s = Scheduler::with_threads(4);
                let g = CsrGraph::grid(300, 200);
                let reference = bfs_sequential(&g, 0);
                let got = bfs_with_floor(&s, &g, 0, 128);
                assert_eq!(got, reference);
                assert!(
                    s.metrics().teams_formed > 0,
                    "wide middle levels must be expanded by team tasks"
                );
            },
        );
    }

    #[test]
    fn levels_below_the_floor_never_touch_the_scheduler() {
        with_watchdog(
            "levels_below_the_floor_never_touch_the_scheduler",
            WATCHDOG,
            || {
                // A grid's widest level has ~800 frontier edges, far below two
                // members' worth of the default floor: every level is the
                // sequential step on this thread.
                let s = Scheduler::with_threads(2);
                let g = CsrGraph::grid(300, 200);
                let before = s.metrics();
                let got = bfs_mixed(&s, &g, 0);
                let delta = s.metrics().delta_since(&before);
                assert_eq!(got, bfs_sequential(&g, 0));
                assert_eq!(delta.total_executions(), 0, "{delta:?}");
                assert_eq!(delta.teams_formed, 0, "{delta:?}");
            },
        );
    }

    #[test]
    fn mixed_matches_sequential_on_random_graph() {
        with_watchdog("mixed_matches_sequential_on_random_graph", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let g = CsrGraph::random(20_000, 8, 77);
            for source in [0u32, 17, 9999] {
                assert_eq!(
                    bfs_with_floor(&s, &g, source, 256),
                    bfs_sequential(&g, source)
                );
            }
        });
    }

    #[test]
    fn non_power_of_two_threads() {
        with_watchdog("non_power_of_two_threads", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let g = CsrGraph::grid(150, 150);
            assert_eq!(bfs_with_floor(&s, &g, 42, 128), bfs_sequential(&g, 42));
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
            floor_pick in 0usize..=64,
        ) {
            // Small floors make plain -> team -> plain level sequences; 0
            // stands for the default floor.
            let floor = if floor_pick == 0 { MIN_EDGES_PER_MEMBER } else { floor_pick };
            let g = CsrGraph::random(n, avg_degree, seed);
            let source = source_pick % n as u32;
            let s = Scheduler::with_threads(2);
            let got = bfs_with_floor(&s, &g, source, floor);
            prop_assert_eq!(got, bfs_sequential(&g, source));
        }
    }
}
