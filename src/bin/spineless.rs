//! `spineless` — command-line companion for the library.
//!
//! Subcommands:
//!
//! * `topo`     — build a topology and print its structural summary;
//! * `routes`   — show the Shortest-Union(K) path set and diversity
//!   between two switches;
//! * `simulate` — run a quick FCT experiment on a topology + TM + scheme;
//! * `configs`  — emit the §4 BGP/VRF router configurations.
//!
//! Examples:
//!
//! ```console
//! $ spineless topo --kind dring --supernodes 8 --tors 3 --radix 32
//! $ spineless routes --kind dring --src 0 --dst 4 --k 2
//! $ spineless simulate --kind leafspine --x 15 --y 5 --tm skewed
//! $ spineless configs --kind dring --out ./configs
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless::core::fct::{generate_workload, run_cell, TmKind};
use spineless::prelude::*;
use spineless::routing::diversity::pair_diversity;
use spineless::routing::{configgen, VrfGraph};
use spineless::topo::metrics::summarize;
use std::collections::HashMap;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        exit(2);
    };
    let opts = parse_opts(rest);
    match cmd.as_str() {
        "topo" => cmd_topo(&opts),
        "routes" => cmd_routes(&opts),
        "simulate" => cmd_simulate(&opts),
        "configs" => cmd_configs(&opts),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown subcommand {other:?}");
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "spineless <topo|routes|simulate|configs> [--kind dring|leafspine|rrg|xpander|dragonfly|slimfly]\n\
         common flags: --radix N --seed N\n\
         dring:        --supernodes N --tors N\n\
         leafspine:    --x N --y N\n\
         rrg/xpander:  --switches N --degree N --servers N\n\
         routes:       --src N --dst N --k N\n\
         simulate:     --tm uniform|r2r|skewed --scheme ecmp|su2|su3 --utilization F --window-ms F\n\
         configs:      --k N --out DIR"
    );
}

/// Parses `--key value` pairs.
fn parse_opts(rest: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        let k = rest[i].trim_start_matches("--").to_owned();
        if !rest[i].starts_with("--") || i + 1 >= rest.len() {
            eprintln!("expected --key value pairs, got {:?}", rest[i]);
            exit(2);
        }
        out.insert(k, rest[i + 1].clone());
        i += 2;
    }
    out
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    match opts.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v:?}");
            exit(2);
        }),
    }
}

fn build_topo(opts: &HashMap<String, String>) -> Topology {
    let kind = opts.get("kind").map(|s| s.as_str()).unwrap_or("dring");
    let seed: u64 = get(opts, "seed", 42);
    match kind {
        "dring" => DRing::uniform(
            get(opts, "supernodes", 8),
            get(opts, "tors", 3),
            get(opts, "radix", 32),
        )
        .build(),
        "leafspine" => LeafSpine::new(get(opts, "x", 15), get(opts, "y", 5)).build(),
        "rrg" => Rrg::uniform(
            get(opts, "switches", 24),
            get(opts, "degree", 8),
            get(opts, "servers", 6),
            get(opts, "radix", 16),
            seed,
        )
        .build(),
        "xpander" => Xpander::new(
            get(opts, "degree", 8),
            get(opts, "lift", 3),
            get(opts, "servers", 6),
            get(opts, "radix", 16),
            seed,
        )
        .build(),
        "dragonfly" => spineless::topo::dragonfly::Dragonfly::balanced(
            get(opts, "a", 4),
            get(opts, "h", 2),
            get(opts, "servers", 6),
            get(opts, "radix", 16),
        )
        .build(),
        "slimfly" => spineless::topo::slimfly::SlimFly::new(
            get(opts, "q", 5),
            get(opts, "servers", 4),
            get(opts, "radix", 12),
        )
        .build(),
        other => {
            eprintln!("unknown topology kind {other:?}");
            exit(2);
        }
    }
}

fn cmd_topo(opts: &HashMap<String, String>) {
    let t = build_topo(opts);
    let mut rng = SmallRng::seed_from_u64(get(opts, "seed", 42u64));
    let s = summarize(&t, &mut rng).expect("summary");
    println!("name              : {}", s.name);
    println!("switches / racks  : {} / {}", s.switches, s.racks);
    println!("servers           : {}", s.servers);
    println!("links             : {}", s.links);
    println!("diameter          : {:?}", s.diameter);
    println!("mean path length  : {:.3}", s.mean_path.unwrap_or(f64::NAN));
    println!("spectral gap      : {:.3}", s.spectral_gap);
    println!("bisection / switch: {:.3}", s.bisection_per_node);
    println!(
        "NSR (min/mean/max): {:.3} / {:.3} / {:.3}",
        s.nsr.min, s.nsr.mean, s.nsr.max
    );
    println!("flat              : {}", t.is_flat());
}

fn cmd_routes(opts: &HashMap<String, String>) {
    let t = build_topo(opts);
    let (src, dst): (u32, u32) = (get(opts, "src", 0), get(opts, "dst", 1));
    let k: u32 = get(opts, "k", 2);
    if src >= t.num_switches() || dst >= t.num_switches() || src == dst {
        eprintln!("need distinct switches below {}", t.num_switches());
        exit(2);
    }
    let vrf = VrfGraph::build(&t.graph, k);
    let d = pair_diversity(&t.graph, &vrf, src, dst, 200);
    println!(
        "{} -> {}: distance {}, {} shortest paths, {} SU({k}) paths, {} edge-disjoint",
        src, dst, d.distance, d.shortest_paths, d.su_paths, d.su_disjoint
    );
    for (i, p) in vrf.router_paths(src, dst, 20).iter().enumerate() {
        println!("  path {i}: {p:?}");
    }
}

fn cmd_simulate(opts: &HashMap<String, String>) {
    let t = build_topo(opts);
    let scheme = match opts.get("scheme").map(|s| s.as_str()).unwrap_or("su2") {
        "ecmp" => RoutingScheme::Ecmp,
        "su2" => RoutingScheme::ShortestUnion(2),
        "su3" => RoutingScheme::ShortestUnion(3),
        other => {
            eprintln!("unknown scheme {other:?}");
            exit(2);
        }
    };
    let tm = match opts.get("tm").map(|s| s.as_str()).unwrap_or("uniform") {
        "uniform" => TmKind::Uniform,
        "r2r" => TmKind::RackToRack,
        "skewed" => TmKind::FbSkewed,
        other => {
            eprintln!("unknown tm {other:?}");
            exit(2);
        }
    };
    let seed: u64 = get(opts, "seed", 42);
    let window = (get(opts, "window-ms", 2.0f64) * 1e6) as u64;
    let load: f64 = get(opts, "utilization", 0.3);
    // Anchor offered load to the host injection capacity (works for any
    // topology, spine or not).
    let offered = (load * t.num_servers() as f64 * 1.25 * window as f64 * 0.3).max(1.0) as u64;
    let flows = generate_workload(tm, &t, offered, window, seed);
    let cell = run_cell(&t, scheme, &flows, "cli", SimConfig::default(), seed);
    println!("topology : {}", t.name);
    println!("scheme   : {}", scheme.label());
    println!("tm       : {:?} ({} flows)", tm, cell.flows);
    println!("median   : {:.3} ms", cell.median_ms);
    println!("p99      : {:.3} ms", cell.p99_ms);
    println!("mean     : {:.3} ms", cell.mean_ms);
    println!("drops    : {}", cell.dropped);
    println!("unfinished: {}", cell.unfinished);
}

fn cmd_configs(opts: &HashMap<String, String>) {
    let t = build_topo(opts);
    let k: u32 = get(opts, "k", 2);
    let out = opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| "configs".to_owned());
    let vrf = VrfGraph::build(&t.graph, k);
    let cfgs = configgen::generate(&vrf, t.graph.edges());
    std::fs::create_dir_all(&out).expect("create output dir");
    for c in &cfgs {
        std::fs::write(format!("{out}/r{}.conf", c.router), &c.text).expect("write config");
    }
    println!(
        "wrote {} configs (Shortest-Union({k})) to {out}/",
        cfgs.len()
    );
}
