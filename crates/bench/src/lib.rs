//! Benchmark harnesses for the *Spineless Data Centers* reproduction.
//!
//! One binary per paper artifact (run with
//! `cargo run -p spineless-bench --release --bin <name> [-- --scale small|paper] [--seed N]`):
//!
//! * `fig4` — §6.1 FCT grid (median + p99, 7 TMs × 5 combos);
//! * `fig5` — §6.2 C-S throughput-ratio heatmaps (4 panels);
//! * `fig6` — §6.3 scale study (p99 ratio DRing/RRG);
//! * `table_udf` — §3.1 NSR/UDF table;
//! * `theorem1` — §4 Theorem 1 verification sweep;
//! * `path_diversity` — §4's (n+1)-disjoint-paths claim;
//! * `bgp_convergence` — §4's BGP/VRF realization check.
//!
//! `bench_snapshot` times each layer against its retained reference path
//! and writes `BENCH_sim.json`.

/// Allocation counting for `bench_snapshot`'s `sim_datapath` section
/// (feature `count-allocs`): a [`GlobalAlloc`](std::alloc::GlobalAlloc)
/// wrapper over the system allocator that counts every `alloc`/`realloc`
/// call, so the zero-allocation claim of the fast datapath's steady-state
/// loop is a measured number (allocations per packet-hop), not an
/// assertion.
#[cfg(feature = "count-allocs")]
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Counting wrapper around [`System`]. Install in a binary with
    /// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
    pub struct CountingAlloc;

    // SAFETY: delegates every operation verbatim to `System`; the counter
    // update has no effect on allocation behaviour.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Total `alloc` + `realloc` calls since process start. Subtract two
    /// readings to count a region; the counter never resets (other threads
    /// may observe it concurrently).
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Warns on stderr when a run silently degraded: the config asked for the
/// fast datapath but the report shows no FIB hot-cache was in use (the
/// forwarding plane exposes none — e.g. `DualPlane` — or the cache blew
/// its byte budget), so every packet took the per-hop walk. Benchmarks
/// and drivers call this so slow-path numbers are never presented as
/// fast-path throughput. Returns whether it warned.
pub fn warn_if_slow_path(
    report: &spineless_sim::SimReport,
    cfg: &spineless_sim::SimConfig,
    context: &str,
) -> bool {
    let degraded = cfg.datapath == spineless_sim::Datapath::Fast && !report.used_fib_cache;
    if degraded {
        eprintln!(
            "warning[{context}]: fast datapath fell back to per-hop walks \
             (no FIB hot-cache for this forwarding plane); timings reflect \
             the slow path"
        );
    }
    degraded
}

/// Parsed harness arguments; see [`parse_args`] / [`parse_args_quick`].
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Experiment scale (`--scale`, default small).
    pub scale: spineless_core::Scale,
    /// Master seed (`--seed`, default 42).
    pub seed: u64,
    /// Reduced-workload mode (`--quick`, default off) — same code paths,
    /// smaller offered load, for CI.
    pub quick: bool,
}

/// Minimal CLI parsing shared by the harness binaries: reads
/// `--scale small|paper|production` (default small) and `--seed N`
/// (default 42); unknown arguments abort with a usage hint.
pub fn parse_args() -> (spineless_core::Scale, u64) {
    let a = parse(true, false);
    (a.scale, a.seed)
}

/// [`parse_args`] plus the `--quick` flag (used by `design_search`, whose
/// quick mode sweeps a smaller small-scale envelope).
pub fn parse_args_quick() -> BenchArgs {
    parse(true, true)
}

/// `--seed N` (default 42) and nothing else, for `bench_snapshot`, whose
/// sections run at one fixed scale: `--scale`, `--quick` and any other
/// argument abort with a usage hint.
pub fn parse_seed() -> u64 {
    parse(false, false).seed
}

fn parse(allow_scale: bool, allow_quick: bool) -> BenchArgs {
    let args: Vec<String> = std::env::args().collect();
    let mut out = BenchArgs {
        scale: spineless_core::Scale::Small,
        seed: 42,
        quick: false,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if allow_scale => {
                i += 1;
                out.scale =
                    spineless_core::Scale::parse(args.get(i).map(|s| s.as_str()).unwrap_or(""))
                        .unwrap_or_else(|| {
                            eprintln!(
                                "unknown scale {:?}; use small|paper|production",
                                args.get(i)
                            );
                            std::process::exit(2);
                        });
            }
            "--seed" => {
                i += 1;
                out.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bad seed");
                    std::process::exit(2);
                });
            }
            "--quick" if allow_quick => out.quick = true,
            other => {
                let scale = if allow_scale {
                    "[--scale small|paper|production] "
                } else {
                    ""
                };
                let quick = if allow_quick { " [--quick]" } else { "" };
                eprintln!("unknown argument {other}; usage: {scale}[--seed N]{quick}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    out
}
