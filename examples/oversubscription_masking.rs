//! §3.1's core claim, demonstrated end-to-end: a flat network built from a
//! leaf-spine's exact hardware masks rack oversubscription for skewed
//! traffic, approaching the UDF = 2 bound — while uniform traffic shows no
//! such gap.
//!
//! Run with: `cargo run --release --example oversubscription_masking`

use spineless::fluid::solve;
use spineless::prelude::*;
use spineless::topo::flat::{flatten, nsr_flat_of_leafspine, nsr_leafspine};
use spineless::topo::metrics::nsr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let (x, y) = (15u32, 5u32);
    let ls = LeafSpine::new(x, y).build();
    let flat = flatten(&ls, 7).expect("flat rewiring");
    println!("baseline : {}", ls.name);
    println!(
        "rewired  : {} (same {} switches, {} servers)",
        flat.name,
        flat.num_switches(),
        flat.num_servers()
    );
    let nsr_ls = nsr(&ls).expect("leaf-spine is connected with >=2 racks");
    let nsr_flat = nsr(&flat).expect("flat rewiring preserves connectivity");
    println!(
        "NSR      : leaf-spine {:.3} (analytic {:.3}), flat {:.3} (analytic {:.3}) => UDF = {:.2}\n",
        nsr_ls.mean,
        nsr_leafspine(x, y),
        nsr_flat.mean,
        nsr_flat_of_leafspine(x, y),
        nsr_flat.mean / nsr_ls.mean,
    );

    let fs_ls = ForwardingState::build(&ls.graph, RoutingScheme::Ecmp);
    let fs_flat = ForwardingState::build(&flat.graph, RoutingScheme::ShortestUnion(2));

    // Skewed: one hot rack's servers all send to a few remote racks.
    // The leaf-spine's hot rack chokes on its y uplinks; the flat rewiring
    // has ~2x the exit capacity per server.
    let mut rng = SmallRng::seed_from_u64(1);
    // Clients: every server of rack 0 (ids 0..x). Each sends to three
    // random servers in other racks.
    let mut skewed: Vec<(u32, u32)> = Vec::new();
    for c in 0..x {
        for _ in 0..3 {
            skewed.push((c, rng.gen_range(x..ls.num_servers())));
        }
    }
    let t_ls = solve(&ls, &fs_ls, &skewed, 2).total_rate();
    let t_flat = solve(&flat, &fs_flat, &skewed, 2).total_rate();
    println!("skewed traffic (hot rack out):");
    println!("  leaf-spine aggregate : {t_ls:.2} link-rates");
    println!("  flat aggregate       : {t_flat:.2} link-rates");
    println!(
        "  flat / leaf-spine    : {:.2}  (UDF bound: 2.0)\n",
        t_flat / t_ls
    );

    // Uniform: everyone talks to everyone — no single rack bottleneck, so
    // flatness buys little.
    let uniform: Vec<(u32, u32)> = (0..200)
        .map(|_| {
            let a = rng.gen_range(0..ls.num_servers());
            let b = loop {
                let b = rng.gen_range(0..ls.num_servers());
                if b != a {
                    break b;
                }
            };
            (a, b)
        })
        .collect();
    let u_ls = solve(&ls, &fs_ls, &uniform, 3).mean_rate();
    let u_flat = solve(&flat, &fs_flat, &uniform, 3).mean_rate();
    println!("uniform traffic (200 random pairs):");
    println!("  leaf-spine mean rate : {u_ls:.3}");
    println!("  flat mean rate       : {u_flat:.3}");
    println!(
        "  flat / leaf-spine    : {:.2}  (expected ≈ 1)",
        u_flat / u_ls
    );
}
