//! Design-space search demo: sweep a small equipment envelope (switch
//! radix × switch budget × topology family) and print the Pareto frontier
//! over (equipment cost, NSR, fluid permutation throughput).
//!
//! The sweep exercises both of the engine's accelerations — structural
//! memoization of coinciding designs and dominance pruning of hopeless
//! fluid solves — and asserts that neither of them (nor the worker count)
//! changes the frontier by a single bit.
//!
//! Run with: `cargo run --release --example design_search`
//! CI smoke mode (smaller envelope): add `-- --quick`

use spineless::prelude::*;

fn fingerprint(r: &SearchResult) -> Vec<(String, u64, u64)> {
    r.frontier_cells()
        .map(|c| (c.name.clone(), c.cost(), c.throughput.unwrap().to_bits()))
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = if quick {
        SearchSpec {
            radii: vec![8, 12],
            counts: vec![10, 14, 18],
            max_pairs: 1024,
            ..SearchSpec::small(42)
        }
    } else {
        SearchSpec::small(42)
    };
    println!(
        "sweeping {} families x {} radii x {} budgets under {}",
        spec.families.len(),
        spec.radii.len(),
        spec.counts.len(),
        spec.scheme.label()
    );
    let result = run_search(&spec);
    assert!(!result.cells.is_empty(), "sweep produced no designs");
    assert!(!result.frontier.is_empty(), "sweep produced no frontier");

    println!();
    println!("== Pareto frontier ==  (minimize cost & NSR, maximize throughput)");
    println!(
        "{:<36} {:>6} {:>8} {:>7} {:>7} {:>8}",
        "design", "radix", "cost", "NSR", "UDF", "tput"
    );
    for c in result.frontier_cells() {
        println!(
            "{:<36} {:>6} {:>8} {:>7.3} {:>7} {:>8.4}",
            c.name,
            c.radix,
            c.cost(),
            c.nsr,
            c.udf.map_or("-".into(), |u| format!("{u:.2}")),
            c.throughput.unwrap(),
        );
    }
    let s = result.stats;
    println!();
    println!(
        "{} cells: {} cold builds, {} memo hits, {} solves pruned",
        s.cells, s.cold, s.memo, s.pruned
    );
    println!(
        "structural memo held at most {:.2} MiB of forwarding tables",
        s.memo_heap_bytes as f64 / (1 << 20) as f64
    );

    // The frontier must not depend on how the sweep was parallelized or
    // accelerated.
    let base = fingerprint(&result);
    for workers in [1usize, 2] {
        let alt = run_search(&SearchSpec {
            workers,
            ..spec.clone()
        });
        assert_eq!(
            fingerprint(&alt),
            base,
            "frontier drifted at {workers} workers"
        );
    }
    let cold = run_search_reference(&spec);
    assert_eq!(
        fingerprint(&cold),
        base,
        "accelerations changed the frontier"
    );
    println!("frontier identical across worker counts and vs the cold reference");

    // The paper's side of the story: some flat design should beat the
    // best fat-tree the same envelope can buy somewhere on the frontier.
    assert!(
        result.frontier_cells().any(|c| c.family != Family::FatTree),
        "no flat design on the frontier"
    );
}
