//! Slim Fly topology (extension; paper §7, "Other static networks").
//!
//! §7: "Flat networks like Slim Fly and Dragonfly which are essentially
//! low-diameter graphs have been shown to have high performance. We expect
//! them to also have high performance at small scales..." — this module
//! makes that testable. Slim Fly (Besta & Hoefler, SC '14) instantiates
//! McKay–Miller–Širáň graphs: diameter-2 networks approaching the Moore
//! bound.
//!
//! Construction over GF(q), q prime with **q ≡ 1 (mod 4)** (δ = 1 — the
//! case where both generator sets are symmetric, so the intra-group
//! relations are undirected as-is; prime powers and the δ = −1 family are
//! not needed at the scales this workspace targets):
//!
//! * routers are `(0, x, y)` and `(1, m, c)` with `x, y, m, c ∈ GF(q)` —
//!   `2q²` in total;
//! * let ξ be a primitive root; `X = {ξ⁰, ξ², ξ⁴, …}` (even powers),
//!   `X' = {ξ, ξ³, …}` (odd powers);
//! * `(0,x,y) ~ (0,x,y')` iff `y − y' ∈ X`;
//! * `(1,m,c) ~ (1,m,c')` iff `c − c' ∈ X'`;
//! * `(0,x,y) ~ (1,m,c)` iff `y = m·x + c`.
//!
//! Every router then has network degree `(3q − δ)/2` and the graph has
//! diameter 2.

use crate::topology::{TopoError, Topology};
use spineless_graph::GraphBuilder;

/// Builder for Slim Fly (MMS) topologies over a prime field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlimFly {
    /// The prime `q`; the network has `2q²` routers.
    pub q: u32,
    /// Servers attached to each router.
    pub servers_per_router: u32,
    /// Switch radix.
    pub ports_per_switch: u32,
}

impl SlimFly {
    /// Creates the builder.
    pub fn new(q: u32, servers_per_router: u32, ports_per_switch: u32) -> SlimFly {
        SlimFly {
            q,
            servers_per_router,
            ports_per_switch,
        }
    }

    /// Number of routers (`2q²`).
    pub fn num_switches(&self) -> u32 {
        2 * self.q * self.q
    }

    /// Network degree `(3q − 1)/2` (δ = 1).
    pub fn network_degree(&self) -> Option<u32> {
        (self.q % 4 == 1).then(|| (3 * self.q - 1) / 2)
    }

    /// Fallible construction.
    pub fn try_build(&self) -> Result<Topology, TopoError> {
        let q = self.q;
        if q < 3 || !is_prime(q) {
            return Err(TopoError::BadParameter(format!(
                "slimfly needs a prime q >= 3, got {q}"
            )));
        }
        let Some(degree) = self.network_degree() else {
            return Err(TopoError::BadParameter(format!(
                "q = {q} must satisfy q ≡ 1 (mod 4) (the symmetric MMS family)"
            )));
        };
        if degree + self.servers_per_router > self.ports_per_switch {
            return Err(TopoError::PortOverflow {
                switch: 0,
                needed: degree + self.servers_per_router,
                radix: self.ports_per_switch,
            });
        }
        let xi = primitive_root(q)
            .ok_or_else(|| TopoError::ConstructionFailed(format!("no primitive root mod {q}")))?;
        // Even and odd powers of the primitive root.
        let mut even = Vec::new();
        let mut odd = Vec::new();
        let mut pow = 1u64;
        for i in 0..(q as u64 - 1) {
            if i % 2 == 0 {
                even.push(pow as u32);
            } else {
                odd.push(pow as u32);
            }
            pow = pow * xi as u64 % q as u64;
        }
        // For q ≡ 1 (mod 4), −1 = ξ^{(q−1)/2} is an even power, so both the
        // even-power set X and the odd-power set X' = ξX are closed under
        // negation — the intra-group relations are symmetric and each
        // contributes exactly (q−1)/2 to the degree.
        let (x_set, xp_set): (Vec<u32>, Vec<u32>) = (even, odd);

        let n = 2 * q * q;
        let idx0 = |x: u32, y: u32| x * q + y; // block 0
        let idx1 = |m: u32, c: u32| q * q + m * q + c; // block 1
        let mut b = GraphBuilder::new(n);
        // Intra-group edges: (x,y) ~ (x,y') iff y - y' in set; add each
        // unordered pair once by y' < y.
        let mut add_intra = |set: &[u32], block: u32| {
            for g in 0..q {
                for y in 0..q {
                    for yp in 0..y {
                        let diff = (y + q - yp) % q;
                        if set.contains(&diff) {
                            let (a, c) = if block == 0 {
                                (idx0(g, y), idx0(g, yp))
                            } else {
                                (idx1(g, y), idx1(g, yp))
                            };
                            b.add_edge(a, c);
                        }
                    }
                }
            }
        };
        add_intra(&x_set, 0);
        add_intra(&xp_set, 1);
        // Bipartite edges: (0,x,y) ~ (1,m,c) iff y = m x + c (mod q).
        for x in 0..q {
            for m in 0..q {
                for c in 0..q {
                    let y = (m as u64 * x as u64 + c as u64) as u32 % q;
                    b.add_edge(idx0(x, y), idx1(m, c));
                }
            }
        }
        let g = b.build();
        Topology::new(
            format!("slimfly(q={q})"),
            g,
            vec![self.servers_per_router; n as usize],
            self.ports_per_switch,
        )
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters; use [`try_build`](Self::try_build)
    /// for untrusted input.
    pub fn build(&self) -> Topology {
        self.try_build().expect("invalid SlimFly parameters")
    }
}

fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u32;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Smallest primitive root modulo prime `q`, by exhaustive order check.
fn primitive_root(q: u32) -> Option<u32> {
    'outer: for g in 2..q {
        let mut pow = 1u64;
        for _ in 0..(q - 2) {
            pow = pow * g as u64 % q as u64;
            if pow == 1 {
                continue 'outer;
            }
        }
        return Some(g);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use spineless_graph::bfs;

    #[test]
    fn q5_dimensions_and_diameter() {
        // q = 5 (δ = 1): 50 routers, degree (15-1)/2 = 7, diameter 2.
        let sf = SlimFly::new(5, 4, 12);
        let t = sf.build();
        assert_eq!(t.num_switches(), 50);
        assert_eq!(t.graph.regular_degree(), Some(7));
        assert!(t.graph.is_connected());
        assert_eq!(bfs::diameter(&t.graph), Some(2));
        assert!(t.is_flat());
    }

    #[test]
    fn q13_dimensions_and_diameter() {
        // q = 13: 338 routers, degree (39-1)/2 = 19, diameter 2.
        let sf = SlimFly::new(13, 4, 24);
        let t = sf.build();
        assert_eq!(t.num_switches(), 338);
        assert_eq!(t.graph.regular_degree(), Some(19));
        assert_eq!(bfs::diameter(&t.graph), Some(2));
    }

    #[test]
    fn near_moore_bound() {
        // Slim Fly's selling point: N close to the Moore bound d² + 1.
        let t = SlimFly::new(5, 1, 9).build();
        let d = 7.0f64;
        let moore = d * d + 1.0;
        let ratio = t.num_switches() as f64 / moore;
        assert!(ratio == 1.0, "N/Moore = {ratio}");
    }

    #[test]
    fn primitive_roots() {
        assert_eq!(primitive_root(5), Some(2));
        assert_eq!(primitive_root(7), Some(3));
        assert_eq!(primitive_root(11), Some(2));
        assert_eq!(primitive_root(13), Some(2));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SlimFly::new(6, 1, 32).try_build().is_err()); // not prime
        assert!(SlimFly::new(7, 1, 32).try_build().is_err()); // q % 4 != 1
        assert!(SlimFly::new(2, 1, 32).try_build().is_err()); // too small
        assert!(matches!(
            SlimFly::new(5, 10, 12).try_build(),
            Err(TopoError::PortOverflow { .. })
        ));
    }

    #[test]
    fn is_a_strong_expander_for_its_degree() {
        use rand::SeedableRng;
        let t = SlimFly::new(5, 2, 10).build();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let gap = spineless_graph::spectral::spectral_gap(&t.graph, 400, &mut rng);
        assert!(gap > 0.3, "gap {gap}");
    }
}
