//! Lookahead-domain partitioning for the sharded simulation engine.
//!
//! A conservative parallel discrete-event simulation splits the fabric
//! into *shards* that only interact through link transit: a packet
//! crossing a shard boundary cannot arrive earlier than its serialization
//! plus propagation time, and that bound (the *lookahead*) is what lets
//! shards run ahead of each other safely. The partition therefore wants
//! (a) every server and its ToR in one shard (server links have tiny
//! delay and enormous event rates), and (b) balanced per-shard load, so
//! the window barrier is not dominated by a straggler.
//!
//! [`partition_domains`] delivers both with the structure every topology
//! in this workspace already has: rack switches get contiguous, server-
//! count-balanced blocks (DRing's switch ids are supernode-major, so
//! contiguous blocks align with supernode groups; flat rewirings are
//! id-uniform, so blocks are simply equal slices), and server-less
//! switches (leaf-spine/dragonfly spines) join the shard that owns the
//! plurality of their cabled neighbors.

use crate::topology::Topology;

/// A switch → shard assignment produced by [`partition_domains`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainPartition {
    /// Shard of each switch, indexed by [`NodeId`].
    pub shard_of: Vec<u32>,
    /// Number of shards actually used (≤ the requested count; never more
    /// than the number of racks, and at least 1).
    pub shards: u32,
}

impl DomainPartition {
    /// Number of switches assigned to each shard.
    pub fn shard_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.shards as usize];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Number of cables whose endpoints live in different shards.
    pub fn cut_edges(&self, topo: &Topology) -> u32 {
        topo.graph
            .edges()
            .iter()
            .filter(|&&(a, b)| self.shard_of[a as usize] != self.shard_of[b as usize])
            .count() as u32
    }
}

/// Partitions `topo` into at most `shards` lookahead domains.
///
/// Deterministic in `topo` and `shards`. The request is clamped to
/// `[1, num_racks]` — a shard with no rack would idle at every window and
/// only add barrier overhead.
pub fn partition_domains(topo: &Topology, shards: u32) -> DomainPartition {
    let n = topo.num_switches();
    let total_servers = topo.num_servers() as u64;
    let racks = topo.racks();
    let k = shards.clamp(1, racks.len().max(1) as u32);
    let mut shard_of = vec![u32::MAX; n as usize];

    // Rack switches: contiguous blocks balanced by server count. Walk
    // racks in id order, advancing to the next shard when the running
    // server total passes the ideal boundary — the greedy split that keeps
    // blocks contiguous (supernode-aligned for DRing) and near-balanced.
    let mut acc = 0u64;
    let mut cur = 0u32;
    for &r in &racks {
        // Boundary for shard `cur`: (cur+1)/k of all servers.
        while cur + 1 < k && acc * k as u64 >= (cur as u64 + 1) * total_servers {
            cur += 1;
        }
        shard_of[r as usize] = cur;
        acc += topo.servers[r as usize] as u64;
    }

    // Server-less switches (spines): plurality vote of cabled neighbors
    // already assigned; ties break toward the lowest shard id. A second
    // pass catches spines cabled only to other spines.
    for pass in 0..2 {
        for v in 0..n {
            if shard_of[v as usize] != u32::MAX {
                continue;
            }
            let mut votes = vec![0u32; k as usize];
            let mut any = false;
            for &(u, _) in topo.graph.neighbors(v) {
                let s = shard_of[u as usize];
                if s != u32::MAX {
                    votes[s as usize] += 1;
                    any = true;
                }
            }
            if any {
                let best = votes
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                    .map(|(i, _)| i as u32)
                    .expect("k >= 1");
                shard_of[v as usize] = best;
            } else if pass == 1 {
                // Isolated from every assigned switch: park it in shard 0.
                shard_of[v as usize] = 0;
            }
        }
    }

    DomainPartition {
        shard_of,
        shards: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dring::DRing;
    use crate::leafspine::LeafSpine;

    #[test]
    fn every_switch_assigned_and_in_range() {
        for k in [1, 2, 3, 4, 8, 64] {
            let t = DRing::uniform(12, 2, 20).build();
            let p = partition_domains(&t, k);
            assert!(p.shards >= 1 && p.shards <= t.num_racks());
            assert!(p.shard_of.iter().all(|&s| s < p.shards), "k={k}");
        }
    }

    #[test]
    fn rack_blocks_are_contiguous() {
        let t = DRing::uniform(12, 2, 20).build();
        let p = partition_domains(&t, 4);
        assert_eq!(p.shards, 4);
        let rack_shards: Vec<u32> = t.racks().iter().map(|&r| p.shard_of[r as usize]).collect();
        // Non-decreasing over id order = contiguous blocks.
        assert!(rack_shards.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rack_shards.last().unwrap(), 3);
    }

    #[test]
    fn balanced_by_servers_on_uniform_racks() {
        let t = DRing::uniform(12, 2, 20).build(); // 24 racks, uniform
        let p = partition_domains(&t, 4);
        let sizes = p.shard_sizes();
        assert_eq!(sizes, vec![6, 6, 6, 6]);
    }

    #[test]
    fn spines_follow_their_neighbors() {
        let t = LeafSpine::new(4, 2).build(); // 6 leaves, 2 spines
        let p = partition_domains(&t, 2);
        // Every spine must have been assigned to a real shard.
        for v in 0..t.num_switches() {
            assert!(p.shard_of[v as usize] < p.shards);
        }
        // Leaves (racks) split 3/3; each spine is cabled to all leaves,
        // so the plurality tie breaks to shard 0.
        let spines: Vec<u32> = (0..t.num_switches())
            .filter(|&v| t.servers[v as usize] == 0)
            .map(|v| p.shard_of[v as usize])
            .collect();
        assert!(!spines.is_empty());
        assert!(spines.iter().all(|&s| s == 0));
    }

    #[test]
    fn request_clamps_to_rack_count() {
        let t = LeafSpine::new(4, 2).build(); // 6 racks
        let p = partition_domains(&t, 100);
        assert_eq!(p.shards, 6);
        assert_eq!(partition_domains(&t, 1).shards, 1);
    }

    #[test]
    fn deterministic() {
        let t = DRing::paper_config().build();
        let a = partition_domains(&t, 8);
        let b = partition_domains(&t, 8);
        assert_eq!(a, b);
        assert!(a.cut_edges(&t) > 0);
    }
}
