//! Design-space search over the equipment envelope: sweep switch radix ×
//! switch budget × topology family, and print every designed cell plus
//! the Pareto frontier over (equipment cost, NSR, fluid throughput).
//!
//! `cargo run -p spineless-bench --release --bin design_search [-- --scale paper]`

use spineless_bench::parse_args_quick;
use spineless_core::search::{run_search, Family, SearchSpec};
use spineless_core::Scale;
use spineless_routing::RoutingScheme;

fn main() {
    let args = parse_args_quick();
    let spec = match (args.scale, args.quick) {
        (Scale::Small, true) => SearchSpec {
            radii: vec![8, 12],
            counts: vec![10, 14, 18],
            max_pairs: 1024,
            ..SearchSpec::small(args.seed)
        },
        (Scale::Small, false) => SearchSpec::small(args.seed),
        (Scale::Paper | Scale::Production, _) => SearchSpec {
            families: Family::ALL.to_vec(),
            radii: vec![16, 24, 32, 48, 64],
            counts: vec![20, 40, 60, 80, 100],
            scheme: RoutingScheme::ShortestUnion(2),
            max_pairs: 20_000,
            seed: args.seed,
            workers: 0,
        },
    };
    eprintln!(
        "sweeping {} families x {} radii x {} budgets under {}...",
        spec.families.len(),
        spec.radii.len(),
        spec.counts.len(),
        spec.scheme.label(),
    );
    let t0 = std::time::Instant::now();
    let result = run_search(&spec);
    let dt = t0.elapsed().as_secs_f64();

    println!("== design-space sweep ==  (throughput = mean max-min permutation rate)");
    println!(
        "{:<34} {:>6} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8}",
        "design", "radix", "budget", "servers", "NSR", "UDF", "tput", "source"
    );
    for c in &result.cells {
        let tput = match c.throughput {
            Some(t) => format!("{t:8.4}"),
            None => format!("{:>8}", "pruned"),
        };
        let udf = match c.udf {
            Some(u) => format!("{u:7.2}"),
            None => format!("{:>7}", "-"),
        };
        println!(
            "{:<34} {:>6} {:>8} {:>8} {:>7.3} {} {} {:>8}",
            c.name,
            c.radix,
            c.max_switches,
            c.servers,
            c.nsr,
            udf,
            tput,
            format!("{:?}", c.source).to_lowercase(),
        );
    }

    println!();
    println!("== Pareto frontier ==  (minimize cost & NSR, maximize throughput)");
    println!(
        "{:<34} {:>6} {:>8} {:>8} {:>7} {:>8}",
        "design", "radix", "cost", "servers", "NSR", "tput"
    );
    for c in result.frontier_cells() {
        println!(
            "{:<34} {:>6} {:>8} {:>8} {:>7.3} {:>8.4}",
            c.name,
            c.radix,
            c.cost(),
            c.servers,
            c.nsr,
            c.throughput.expect("frontier cells are solved"),
        );
    }
    let s = result.stats;
    eprintln!(
        "{} cells in {dt:.1}s: {} cold builds, {} memo hits, {} solves pruned",
        s.cells, s.cold, s.memo, s.pruned
    );
    eprintln!(
        "structural memo held at most {:.2} MiB of forwarding tables",
        s.memo_heap_bytes as f64 / (1 << 20) as f64
    );
}
