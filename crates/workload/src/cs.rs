//! The C-S model of §5.2.
//!
//! "We pick a subset C of hosts to act as clients and pack these clients
//! into the fewest number of racks while randomly choosing the racks in
//! the DC. Similarly, we pick a subset S of hosts to act as servers and
//! pack them into the fewest number of racks possible (avoiding racks used
//! for C)." Sweeping |C| and |S| spans incast/outcast (C = 1 or S = 1),
//! rack-to-rack, skew (|C| ≪ |S|) and uniform (|C| = |S| = n/2).

use rand::seq::SliceRandom;
use rand::Rng;
use spineless_topo::Topology;
use std::fmt;

/// Error from C-S assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsError {
    /// The topology does not have enough servers outside the client racks.
    NotEnoughCapacity {
        /// Hosts requested.
        requested: u32,
        /// Hosts available.
        available: u32,
    },
    /// `clients` or `servers` was zero.
    EmptySet,
}

impl fmt::Display for CsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsError::NotEnoughCapacity {
                requested,
                available,
            } => {
                write!(f, "requested {requested} hosts, only {available} available")
            }
            CsError::EmptySet => write!(f, "client and server sets must be non-empty"),
        }
    }
}
impl std::error::Error for CsError {}

/// A concrete client/server placement.
#[derive(Debug, Clone)]
pub struct CsAssignment {
    /// Client host ids.
    pub clients: Vec<u32>,
    /// Server host ids.
    pub servers: Vec<u32>,
    /// Racks used by clients (switch ids).
    pub client_racks: Vec<u32>,
    /// Racks used by servers (switch ids).
    pub server_racks: Vec<u32>,
}

impl CsAssignment {
    /// Packs `c` clients and `s` servers into the fewest racks each, racks
    /// chosen uniformly at random, server racks disjoint from client racks.
    pub fn generate<R: Rng>(
        topo: &Topology,
        c: u32,
        s: u32,
        rng: &mut R,
    ) -> Result<CsAssignment, CsError> {
        if c == 0 || s == 0 {
            return Err(CsError::EmptySet);
        }
        // Fewest racks: take racks in decreasing-capacity order *within a
        // random rack sample*. The paper packs greedily into randomly
        // chosen racks; we shuffle then greedily fill, which packs into
        // ⌈c / capacity⌉ racks for uniform rack sizes.
        let mut rack_order = topo.racks();
        rack_order.shuffle(rng);
        let mut clients = Vec::with_capacity(c as usize);
        let mut client_racks = Vec::new();
        let mut iter = rack_order.iter();
        while (clients.len() as u32) < c {
            let &rack = iter.next().ok_or(CsError::NotEnoughCapacity {
                requested: c,
                available: clients.len() as u32,
            })?;
            client_racks.push(rack);
            for host in topo.servers_on(rack) {
                if (clients.len() as u32) < c {
                    clients.push(host);
                }
            }
        }
        let mut servers = Vec::with_capacity(s as usize);
        let mut server_racks = Vec::new();
        while (servers.len() as u32) < s {
            let &rack = iter.next().ok_or(CsError::NotEnoughCapacity {
                requested: s,
                available: servers.len() as u32,
            })?;
            server_racks.push(rack);
            for host in topo.servers_on(rack) {
                if (servers.len() as u32) < s {
                    servers.push(host);
                }
            }
        }
        Ok(CsAssignment {
            clients,
            servers,
            client_racks,
            server_racks,
        })
    }

    /// All client→server demand pairs (the full C×S bipartite demand).
    pub fn all_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.clients.len() * self.servers.len());
        for &c in &self.clients {
            for &s in &self.servers {
                out.push((c, s));
            }
        }
        out
    }

    /// At most `max_pairs` demand pairs, subsampled uniformly when the full
    /// bipartite set is larger (keeps the fluid solver tractable at the
    /// Fig. 5 "large values" corner, where C·S reaches ~2 million).
    pub fn sampled_pairs<R: Rng>(&self, max_pairs: usize, rng: &mut R) -> Vec<(u32, u32)> {
        let total = self.clients.len() * self.servers.len();
        if total <= max_pairs {
            return self.all_pairs();
        }
        let mut out = Vec::with_capacity(max_pairs);
        for _ in 0..max_pairs {
            let c = self.clients[rng.gen_range(0..self.clients.len())];
            let s = self.servers[rng.gen_range(0..self.servers.len())];
            out.push((c, s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spineless_topo::leafspine::LeafSpine;

    fn topo() -> Topology {
        LeafSpine::new(4, 2).build() // 6 racks × 4 servers
    }

    #[test]
    fn packs_into_fewest_racks() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(1);
        let a = CsAssignment::generate(&t, 6, 9, &mut rng).unwrap();
        assert_eq!(a.clients.len(), 6);
        assert_eq!(a.servers.len(), 9);
        // 6 clients need ⌈6/4⌉ = 2 racks; 9 servers need 3.
        assert_eq!(a.client_racks.len(), 2);
        assert_eq!(a.server_racks.len(), 3);
    }

    #[test]
    fn client_and_server_racks_disjoint() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(2);
        let a = CsAssignment::generate(&t, 4, 4, &mut rng).unwrap();
        for cr in &a.client_racks {
            assert!(!a.server_racks.contains(cr));
        }
        // Hosts live in their claimed racks.
        for &h in &a.clients {
            assert!(a.client_racks.contains(&t.switch_of(h)));
        }
        for &h in &a.servers {
            assert!(a.server_racks.contains(&t.switch_of(h)));
        }
    }

    #[test]
    fn incast_corner() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(3);
        let a = CsAssignment::generate(&t, 1, 12, &mut rng).unwrap();
        assert_eq!(a.clients.len(), 1);
        assert_eq!(a.client_racks.len(), 1);
        assert_eq!(a.all_pairs().len(), 12);
    }

    #[test]
    fn capacity_errors() {
        let t = topo(); // 24 servers
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            CsAssignment::generate(&t, 20, 8, &mut rng),
            Err(CsError::NotEnoughCapacity { .. })
        ));
        assert!(matches!(
            CsAssignment::generate(&t, 0, 5, &mut rng),
            Err(CsError::EmptySet)
        ));
    }

    #[test]
    fn sampled_pairs_respects_cap_and_membership() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(5);
        let a = CsAssignment::generate(&t, 8, 12, &mut rng).unwrap();
        let pairs = a.sampled_pairs(10, &mut rng);
        assert_eq!(pairs.len(), 10);
        for (c, s) in pairs {
            assert!(a.clients.contains(&c));
            assert!(a.servers.contains(&s));
        }
        // Under the cap: exact bipartite set.
        assert_eq!(a.sampled_pairs(1000, &mut rng).len(), 96);
    }

    #[test]
    fn random_rack_choice_varies_with_seed() {
        let t = topo();
        let a = CsAssignment::generate(&t, 4, 4, &mut SmallRng::seed_from_u64(6)).unwrap();
        let b = CsAssignment::generate(&t, 4, 4, &mut SmallRng::seed_from_u64(7)).unwrap();
        assert_ne!(
            (a.client_racks.clone(), a.server_racks.clone()),
            (b.client_racks, b.server_racks)
        );
    }
}
