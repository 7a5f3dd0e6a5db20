//! Uniform timed-run entry points for the application kernels.
//!
//! The perf-trajectory harness (`teamsteal-bench`, `perf` bin) needs to
//! sweep every kernel the same way: prepare a deterministic input once, then
//! time repeated executions of the kernel's sequential function (the
//! reference) and of its mixed-mode implementation on caller-supplied
//! schedulers.  Each kernel module exposes a different natural signature
//! (slices, matrices, graphs, configs), so this module normalizes them
//! behind one shape:
//!
//! * [`Kernel`] names a kernel ([`Kernel::ALL`] is the sweep set),
//! * [`Workload::prepare`] builds the kernel's input for a size budget and
//!   seed, and computes the expected output via the sequential
//!   implementation,
//! * [`Workload::run`] performs **one** timed, validated execution — of the
//!   sequential function without a scheduler, of the mixed-mode one on a
//!   scheduler — and returns its wall-clock duration.
//!
//! Both sides are called the same way: output buffers are allocated outside
//! the timed region, and every parameter passes through [`black_box`], so a
//! constant (a bucket count, the BFS source) cannot be folded into one
//! side's code and not the other's.
//! Every run is validated against the expected output (exactly for integer
//! kernels, to ~1e-9 relative error for the floating-point ones, whose
//! chunked evaluation can legally reassociate sums), so a broken kernel can
//! never report a good time.
//!
//! ```
//! use teamsteal_apps::harness::{Kernel, Workload};
//! use teamsteal_core::Scheduler;
//!
//! let scheduler = Scheduler::with_threads(2);
//! let workload = Workload::prepare(Kernel::Reduce, 50_000, 42);
//! let seq = workload.run(None);
//! let mixed = workload.run(Some(&scheduler));
//! assert!(seq > std::time::Duration::ZERO);
//! assert!(mixed > std::time::Duration::ZERO);
//! ```

use std::hint::black_box;
use std::time::Duration;

use teamsteal_core::Scheduler;
use teamsteal_data::Distribution;
use teamsteal_util::rng::Xoshiro256;
use teamsteal_util::timing::time;

use crate::bfs::{bfs_mixed, bfs_sequential, CsrGraph};
use crate::histogram::{histogram_mixed, histogram_sequential};
use crate::matmul::{matmul_mixed, matmul_sequential, Matrix};
use crate::reduce::{reduce_sequential, team_reduce};
use crate::scan::{inclusive_scan_mixed, sequential_scan};

/// The application kernels covered by the perf harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Team-parallel sum reduction ([`crate::reduce`]).
    Reduce,
    /// Inclusive prefix sum ([`crate::scan`]).
    Scan,
    /// Blocked dense matrix multiplication ([`crate::matmul`]).
    MatMul,
    /// Level-synchronous breadth-first search ([`crate::bfs`]).
    Bfs,
    /// Bucket counting ([`crate::histogram`]).
    Histogram,
}

impl Kernel {
    /// Every kernel, in the order the perf harness sweeps them.
    pub const ALL: [Kernel; 5] = [
        Kernel::Reduce,
        Kernel::Scan,
        Kernel::MatMul,
        Kernel::Bfs,
        Kernel::Histogram,
    ];

    /// Stable lowercase name used in reports and on the command line.
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Reduce => "reduce",
            Kernel::Scan => "scan",
            Kernel::MatMul => "matmul",
            Kernel::Bfs => "bfs",
            Kernel::Histogram => "histogram",
        }
    }
}

/// Histogram bucket count.
const HISTOGRAM_BUCKETS: usize = 256;

/// Prepared input plus expected output of one kernel.
enum Payload {
    /// Reduce input with the expected sum.
    ReduceInts { data: Vec<u64>, expected_sum: u64 },
    /// Scan input with the expected inclusive prefix sums.
    ScanInts {
        data: Vec<u64>,
        expected_scan: Vec<u64>,
    },
    /// Histogram keys with expected bucket counts.
    Keys { data: Vec<u32>, expected: Vec<u64> },
    /// Matmul operands with the expected product.
    Matrices {
        a: Matrix,
        b: Matrix,
        expected: Matrix,
    },
    /// BFS graph with the expected distance vector.
    Graph { graph: CsrGraph, expected: Vec<u32> },
}

/// A prepared, validated kernel workload with uniform timed-run entry
/// points.  See the [module docs](self) for the contract.
pub struct Workload {
    kernel: Kernel,
    size: usize,
    payload: Payload,
}

impl Workload {
    /// Prepares the input for `kernel` at roughly `size` elements of work,
    /// deterministically from `seed`, and computes the expected output.
    ///
    /// `size` is the element count for the linear kernels (reduce, scan,
    /// histogram), the vertex count of a random graph of mean out-degree 8
    /// for BFS (wide levels, so teams form), and a work budget for matmul,
    /// whose square operands have dimension `2·∛size`.  The mixed side runs
    /// each kernel's own floor, so a workload below it measures the
    /// sequential path on both sides.
    pub fn prepare(kernel: Kernel, size: usize, seed: u64) -> Self {
        let size = size.max(16);
        let mut rng = Xoshiro256::new(seed ^ 0x7ea_57ea1);
        let payload = match kernel {
            Kernel::Reduce => {
                let data: Vec<u64> = (0..size).map(|_| rng.next_u64() % 1_000_003).collect();
                let expected_sum = data.iter().sum();
                Payload::ReduceInts { data, expected_sum }
            }
            Kernel::Scan => {
                let data: Vec<u64> = (0..size).map(|_| rng.next_u64() % 1_000_003).collect();
                let mut expected_scan = Vec::with_capacity(size);
                let mut acc = 0u64;
                for &x in &data {
                    acc += x;
                    expected_scan.push(acc);
                }
                Payload::ScanInts {
                    data,
                    expected_scan,
                }
            }
            Kernel::Histogram => {
                let data = Distribution::Random.generate(size, 8, seed);
                let expected = histogram_sequential(&data, HISTOGRAM_BUCKETS);
                Payload::Keys { data, expected }
            }
            Kernel::MatMul => {
                let dim = (((size as f64).cbrt() as usize) * 2).max(8);
                let mut gen = |_r: usize, _c: usize| rng.next_f64() - 0.5;
                let a = Matrix::from_fn(dim, dim, &mut gen);
                let b = Matrix::from_fn(dim, dim, &mut gen);
                let expected = matmul_sequential(&a, &b);
                Payload::Matrices { a, b, expected }
            }
            Kernel::Bfs => {
                let graph = CsrGraph::random(size, 8, seed);
                let expected = bfs_sequential(&graph, 0);
                Payload::Graph { graph, expected }
            }
        };
        Workload {
            kernel,
            size,
            payload,
        }
    }

    /// The kernel this workload was prepared for.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The size budget the workload was prepared with.
    pub fn size(&self) -> usize {
        self.size
    }

    /// One timed execution of the kernel: its sequential function when
    /// `scheduler` is `None`, its mixed-mode implementation on `scheduler`
    /// otherwise.  Only the kernel call is timed; output buffers are
    /// allocated and the result is validated outside the timed region.
    /// Capture [`Scheduler::metrics`] around this call to attribute
    /// scheduler events to the run.
    ///
    /// # Panics
    ///
    /// Panics if the output does not match the expected output computed at
    /// [`Workload::prepare`] time.
    pub fn run(&self, scheduler: Option<&Scheduler>) -> Duration {
        let side = if scheduler.is_some() {
            "mixed"
        } else {
            "sequential"
        };
        let add = |a: u64, b: u64| a + b;
        match &self.payload {
            Payload::ReduceInts { data, expected_sum } => {
                let data = black_box(data.as_slice());
                let (d, total) = time(|| match scheduler {
                    None => reduce_sequential(data, 0, add),
                    Some(s) => team_reduce(s, data, 0, add),
                });
                assert_eq!(total, *expected_sum, "{side} reduce mismatch");
                d
            }
            Payload::ScanInts {
                data,
                expected_scan,
            } => {
                let data = black_box(data.as_slice());
                let mut out = vec![0u64; data.len()];
                let (d, ()) = time(|| match scheduler {
                    None => sequential_scan(data, &mut out, 0, &add, true),
                    Some(s) => inclusive_scan_mixed(s, data, &mut out, 0, add),
                });
                assert_eq!(&out, expected_scan, "{side} scan mismatch");
                d
            }
            Payload::Keys { data, expected } => {
                let (data, buckets) = black_box((data.as_slice(), HISTOGRAM_BUCKETS));
                let (d, out) = time(|| match scheduler {
                    None => histogram_sequential(data, buckets),
                    Some(s) => histogram_mixed(s, data, buckets),
                });
                assert_eq!(&out, expected, "{side} histogram mismatch");
                d
            }
            Payload::Matrices { a, b, expected } => {
                let (a, b) = black_box((a, b));
                let (d, out) = time(|| match scheduler {
                    None => matmul_sequential(a, b),
                    Some(s) => matmul_mixed(s, a, b),
                });
                assert!(
                    out.max_abs_diff(expected) <= matmul_tolerance(a),
                    "{side} matmul mismatch"
                );
                d
            }
            Payload::Graph { graph, expected } => {
                let (graph, source) = black_box((graph, 0));
                let (d, out) = time(|| match scheduler {
                    None => bfs_sequential(graph, source),
                    Some(s) => bfs_mixed(s, graph, source),
                });
                assert_eq!(&out, expected, "{side} BFS mismatch");
                d
            }
        }
    }
}

/// Absolute tolerance for matmul validation: chunked team execution may
/// reassociate the `k`-dimension sum, so exact equality is not guaranteed.
fn matmul_tolerance(a: &Matrix) -> f64 {
    1e-9 * a.cols() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_lowercase() {
        let mut labels: Vec<&str> = Kernel::ALL.iter().map(|k| k.label()).collect();
        assert!(labels.iter().all(|l| *l == l.to_lowercase()));
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Kernel::ALL.len());
    }

    #[test]
    fn every_kernel_prepares_runs_and_validates() {
        let scheduler = Scheduler::with_threads(2);
        for kernel in Kernel::ALL {
            let workload = Workload::prepare(kernel, 30_000, 11);
            assert_eq!(workload.kernel(), kernel);
            let seq = workload.run(None);
            let mixed = workload.run(Some(&scheduler));
            assert!(seq > Duration::ZERO, "{}", kernel.label());
            assert!(mixed > Duration::ZERO, "{}", kernel.label());
        }
    }

    #[test]
    fn preparation_is_deterministic_in_the_seed() {
        let a = Workload::prepare(Kernel::Reduce, 10_000, 5);
        let b = Workload::prepare(Kernel::Reduce, 10_000, 5);
        let (
            Payload::ReduceInts {
                expected_sum: sa, ..
            },
            Payload::ReduceInts {
                expected_sum: sb, ..
            },
        ) = (&a.payload, &b.payload)
        else {
            panic!("reduce payload is ReduceInts");
        };
        assert_eq!(sa, sb);
        let c = Workload::prepare(Kernel::Reduce, 10_000, 6);
        let Payload::ReduceInts {
            expected_sum: sc, ..
        } = &c.payload
        else {
            panic!("reduce payload is ReduceInts");
        };
        assert_ne!(sa, sc, "different seeds must give different inputs");
    }

    #[test]
    fn mixed_runs_build_teams_at_bench_sizes() {
        // The thresholds must let teams form for the sizes the perf harness
        // uses, otherwise the recorded scheduler metrics are vacuous.
        let scheduler = Scheduler::with_threads(2);
        let workload = Workload::prepare(Kernel::Reduce, 64 * 1024, 3);
        let before = scheduler.metrics();
        workload.run(Some(&scheduler));
        let delta = scheduler.metrics().delta_since(&before);
        assert!(
            delta.teams_formed > 0,
            "a 64k-element reduce on 2 threads should run as a team task"
        );
    }
}
