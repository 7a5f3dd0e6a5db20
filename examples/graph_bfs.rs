//! Breadth-first search with team-parallel frontier expansion.
//!
//! BFS levels start tiny, grow into wide data-parallel frontiers, and shrink
//! again — the mixed-mode shape the scheduler targets: small levels stay on
//! one thread, wide levels become one team task each.  The default input is
//! a random graph of mean out-degree 8, whose middle levels hold most of its
//! vertices; a grid's levels are never wider than its diagonal and never
//! reach a team at the default floor.
//!
//! ```text
//! cargo run --release --example graph_bfs [vertices] [threads]
//! cargo run --release --example graph_bfs grid [width] [height] [threads]
//! ```

use teamsteal::apps::bfs::{bfs_mixed, bfs_sequential, CsrGraph, UNREACHABLE};
use teamsteal::Scheduler;

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let grid = args.next_if_eq("grid").is_some();
    let mut number = |default: usize| args.next().and_then(|a| a.parse().ok()).unwrap_or(default);
    let graph = if grid {
        let (width, height) = (number(600), number(400));
        println!("graph_bfs: {width}x{height} grid graph");
        CsrGraph::grid(width, height)
    } else {
        let vertices = number(1 << 19);
        println!("graph_bfs: random graph, {vertices} vertices of mean out-degree 8");
        CsrGraph::random(vertices, 8, 42)
    };
    let threads = number(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    );
    println!(
        "  {} vertices, {} directed edges, {threads} worker threads",
        graph.num_vertices(),
        graph.num_edges()
    );

    let source = 0u32;
    let t0 = std::time::Instant::now();
    let reference = bfs_sequential(&graph, source);
    let seq_time = t0.elapsed();

    let scheduler = Scheduler::with_threads(threads);
    let t1 = std::time::Instant::now();
    let distances = bfs_mixed(&scheduler, &graph, source);
    let mixed_time = t1.elapsed();

    assert_eq!(
        distances, reference,
        "mixed-mode BFS must agree with sequential BFS"
    );

    let reachable = distances.iter().filter(|&&d| d != UNREACHABLE).count();
    let eccentricity = distances
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .max()
        .copied()
        .unwrap_or(0);
    println!("  sequential:  {:.3?}", seq_time);
    println!("  mixed-mode:  {:.3?}", mixed_time);
    println!("  reachable vertices: {reachable}");
    println!("  eccentricity of the source: {eccentricity}");

    let metrics = scheduler.metrics();
    println!(
        "  scheduler: {} teams formed for the wide levels, {} team-member executions",
        metrics.teams_formed, metrics.team_tasks_executed
    );
}
