//! Routing goldens: FNV digests of sampled Shortest-Union(2) routes and of
//! every FIB hot-cache entry, on the paper's DRing and on a 400-switch
//! Jellyfish. A change to the forwarding-state layout must leave every
//! route and every cache entry where it was, so these digests must not
//! move.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spineless_graph::NodeId;
use spineless_routing::fib::{Forwarding, ForwardingState, RoutingScheme};
use spineless_topo::dring::DRing;
use spineless_topo::jellyfish::Jellyfish;
use spineless_topo::Topology;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of 10 000 `sample_route` draws over seeded (src, dst) pairs.
fn routes_digest(fs: &ForwardingState) -> u64 {
    let n = fs.vrf.routers;
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut h = FNV_SEED;
    for _ in 0..10_000 {
        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
        match fs.sample_route(s, d, &mut rng) {
            Some(hops) => {
                for (r, e) in hops {
                    fnv(&mut h, (r as u64) << 32 | e as u64);
                }
            }
            None => fnv(&mut h, u64::MAX),
        }
    }
    h
}

/// Digest of every `(vnode, dst)` slot of the FIB hot-cache: each entry
/// of the slot in order, then the slot length.
fn fib_digest(fs: &ForwardingState, topo: &Topology) -> u64 {
    let edges: Vec<(NodeId, NodeId)> = topo.graph.edges().to_vec();
    let cache = fs.fib_cache(&edges).expect("plane fits the cache");
    let mut h = FNV_SEED;
    for dst in 0..fs.vrf.routers {
        for vnode in 0..fs.vrf.graph.num_nodes() {
            let len = fs.next_hops(vnode, dst).count() as u64;
            for hash in 0..len {
                let (nv, link) = cache.next_hop(vnode, dst, hash);
                fnv(&mut h, (nv as u64) << 32 | link as u64);
            }
            fnv(&mut h, len);
        }
    }
    h
}

fn su2(topo: &Topology) -> ForwardingState {
    ForwardingState::build(&topo.graph, RoutingScheme::ShortestUnion(2))
}

#[test]
fn dring_paper_config_routing_golden() {
    let topo = DRing::paper_config().build();
    let fs = su2(&topo);
    assert_eq!(
        fib_digest(&fs, &topo),
        0x91e5_7614_bf06_a7d5,
        "DRing FIB digest moved"
    );
    assert_eq!(
        routes_digest(&fs),
        0xb9de_a193_8633_ba70,
        "DRing route digest moved"
    );
}

#[test]
fn jellyfish_400_routing_golden() {
    let topo = Jellyfish::new(400, 26, 6, 32, 42)
        .unwrap()
        .topology()
        .unwrap();
    let fs = su2(&topo);
    assert_eq!(
        fib_digest(&fs, &topo),
        0x7c18_d304_5d97_760e,
        "Jellyfish FIB digest moved"
    );
    assert_eq!(
        routes_digest(&fs),
        0x3f88_2eea_fe31_a3e9,
        "Jellyfish route digest moved"
    );
}
