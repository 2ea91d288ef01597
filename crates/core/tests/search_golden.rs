//! Design-search goldens: FNV digests over every cell of a sweep (name,
//! budget, switches, servers and the bits of NSR, UDF, the throughput
//! bound and the solved throughput) and over the frontier indices.
//!
//! The accelerated sweep and the cold reference share one construction
//! path for every design, so a change to how a design is built (say, the
//! edge order `Jellyfish::expand` leaves behind) would move both alike
//! and pass every equivalence test. These digests pin the sweep's output
//! itself.

use spineless_core::search::{run_search, SearchResult, SearchSpec};

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every cell's design and metrics, then the frontier indices.
/// `source` (how the forwarding state was obtained) is left out: it is
/// speed accounting, not output.
fn search_digest(r: &SearchResult) -> u64 {
    let mut h = FNV_SEED;
    for c in &r.cells {
        for b in c.name.bytes() {
            fnv(&mut h, b as u64);
        }
        fnv(&mut h, (c.max_switches as u64) << 32 | c.switches as u64);
        fnv(&mut h, c.servers as u64);
        fnv(&mut h, c.nsr.to_bits());
        fnv(&mut h, c.udf.map_or(u64::MAX, f64::to_bits));
        fnv(&mut h, c.tput_upper.to_bits());
        fnv(&mut h, c.throughput.map_or(u64::MAX, f64::to_bits));
    }
    fnv(&mut h, r.cells.len() as u64);
    for &i in &r.frontier {
        fnv(&mut h, i as u64);
    }
    fnv(&mut h, r.frontier.len() as u64);
    h
}

fn check(spec: &SearchSpec, golden: u64, what: &str) {
    let digest = search_digest(&run_search(spec));
    assert_eq!(
        digest, golden,
        "{what}: search digest moved ({digest:#018x})"
    );
}

#[test]
fn small_envelope_search_golden() {
    check(
        &SearchSpec::small(42),
        0xac38_d7ab_7ac9_e0ce,
        "SearchSpec::small(42)",
    );
}

/// Radii 16 and 18 make DRing and Jellyfish designs coincide: at each
/// budget both radii give the same DRing (supernodes, ToRs) and the same
/// Jellyfish net degree, so the memo is hit and cells share one built
/// state. The digest must not move at 1, 2 or 4 workers, whichever worker
/// reaches a shared design first.
#[test]
fn bench_quick_envelope_search_golden() {
    for workers in [1, 2, 4] {
        let spec = SearchSpec {
            radii: vec![16, 18],
            counts: vec![60, 70, 80],
            max_pairs: 256,
            workers,
            ..SearchSpec::small(42)
        };
        check(
            &spec,
            0x06bd_4759_c20a_5efe,
            &format!("radii 16/18 envelope at {workers} workers"),
        );
    }
}
