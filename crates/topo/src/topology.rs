//! The [`Topology`] type: a switch-level graph plus server placement.
//!
//! Every topology in the paper — leaf-spine, DRing, RRG, Xpander — reduces
//! to the same data: which switches are cabled to which, and how many
//! servers hang off each switch. Routing, simulation, the fluid model and
//! all metrics consume this one type.
//!
//! Servers get dense global ids `0..num_servers()` assigned rack by rack
//! (switch 0's servers first, then switch 1's, ...), so a workload generator
//! can address servers without knowing the topology's internal structure.

use spineless_graph::{Graph, NodeId};
use std::fmt;

/// Dense global identifier of a server (host).
pub type ServerId = u32;

/// Errors from topology construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoError {
    /// A switch would need more ports than the radix allows.
    PortOverflow {
        /// The switch exceeding its radix.
        switch: NodeId,
        /// Ports the switch would need (links + servers).
        needed: u32,
        /// The radix (total ports available).
        radix: u32,
    },
    /// A parameter was out of its legal range.
    BadParameter(String),
    /// The construction could not be completed (e.g. random graph stuck).
    ConstructionFailed(String),
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::PortOverflow {
                switch,
                needed,
                radix,
            } => write!(
                f,
                "switch {switch} needs {needed} ports but the radix is {radix}"
            ),
            TopoError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
            TopoError::ConstructionFailed(msg) => write!(f, "construction failed: {msg}"),
        }
    }
}

impl std::error::Error for TopoError {}

/// The hardware a topology is built from: the paper's comparisons hold
/// equipment fixed (§3.1 "built with the same equipment") and only rewire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Equipment {
    /// Number of switches.
    pub switches: u32,
    /// Ports per switch (radix). All switches are identical, matching the
    /// paper's homogeneous-line-speed configuration (§5.1).
    pub ports_per_switch: u32,
    /// Total number of servers to attach.
    pub servers: u32,
}

impl Equipment {
    /// Total ports across all switches.
    pub fn total_ports(&self) -> u64 {
        self.switches as u64 * self.ports_per_switch as u64
    }

    /// Ports left for network links after attaching all servers.
    pub fn network_ports(&self) -> u64 {
        self.total_ports() - self.servers as u64
    }
}

/// A switch-level data-center topology with server placement.
///
/// Immutable once constructed; builders live in the sibling modules.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Human-readable name, e.g. `"leaf-spine(48,16)"`.
    pub name: String,
    /// The switch-level multigraph. Nodes are switches, edges are cables.
    pub graph: Graph,
    /// `servers[s]` = number of servers attached to switch `s`.
    pub servers: Vec<u32>,
    /// Prefix sums of `servers` for global-id lookup; length
    /// `num_switches + 1`.
    server_offsets: Vec<u32>,
    /// Switch radix this topology was built for (ports per switch).
    pub ports_per_switch: u32,
}

impl Topology {
    /// Assembles a topology and validates that no switch exceeds its radix.
    pub fn new(
        name: impl Into<String>,
        graph: Graph,
        servers: Vec<u32>,
        ports_per_switch: u32,
    ) -> Result<Topology, TopoError> {
        let name = name.into();
        if servers.len() != graph.num_nodes() as usize {
            return Err(TopoError::BadParameter(format!(
                "{name}: {} server counts for {} switches",
                servers.len(),
                graph.num_nodes()
            )));
        }
        for v in 0..graph.num_nodes() {
            let needed = graph.degree(v) + servers[v as usize];
            if needed > ports_per_switch {
                return Err(TopoError::PortOverflow {
                    switch: v,
                    needed,
                    radix: ports_per_switch,
                });
            }
        }
        let mut server_offsets = Vec::with_capacity(servers.len() + 1);
        let mut acc = 0u32;
        server_offsets.push(0);
        for &s in &servers {
            acc += s;
            server_offsets.push(acc);
        }
        Ok(Topology {
            name,
            graph,
            servers,
            server_offsets,
            ports_per_switch,
        })
    }

    /// Number of switches.
    pub fn num_switches(&self) -> u32 {
        self.graph.num_nodes()
    }

    /// Number of switches that host at least one server ("racks" in the
    /// paper's sense: in a flat network all switches are racks; in a
    /// leaf-spine only the leaves are).
    pub fn num_racks(&self) -> u32 {
        self.servers.iter().filter(|&&s| s > 0).count() as u32
    }

    /// Switch ids that host at least one server.
    pub fn racks(&self) -> Vec<NodeId> {
        (0..self.num_switches())
            .filter(|&v| self.servers[v as usize] > 0)
            .collect()
    }

    /// Total number of servers.
    pub fn num_servers(&self) -> u32 {
        *self.server_offsets.last().expect("offsets non-empty")
    }

    /// The switch a server is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `server >= num_servers()`.
    pub fn switch_of(&self, server: ServerId) -> NodeId {
        assert!(server < self.num_servers(), "server {server} out of range");
        // offsets is sorted; find the rack whose range contains `server`.
        match self.server_offsets.binary_search(&server) {
            // Exact hit on an offset: the server is the first of that rack,
            // but empty racks share offsets — advance past them.
            Ok(mut i) => {
                while self.servers[i] == 0 {
                    i += 1;
                }
                i as NodeId
            }
            Err(i) => (i - 1) as NodeId,
        }
    }

    /// Global ids of the servers attached to switch `v`, as a range.
    pub fn servers_on(&self, v: NodeId) -> std::ops::Range<ServerId> {
        self.server_offsets[v as usize]..self.server_offsets[v as usize + 1]
    }

    /// Ports in use at switch `v`: network links plus attached servers.
    pub fn ports_used(&self, v: NodeId) -> u32 {
        self.graph.degree(v) + self.servers[v as usize]
    }

    /// The equipment this topology consumes — used to build equal-hardware
    /// rivals (paper §5.1 builds the RRG "with the exact same equipment").
    pub fn equipment(&self) -> Equipment {
        Equipment {
            switches: self.num_switches(),
            ports_per_switch: self.ports_per_switch,
            servers: self.num_servers(),
        }
    }

    /// `true` iff every switch hosts servers — the paper's definition of a
    /// *flat* network (§3: "switches have only one role").
    pub fn is_flat(&self) -> bool {
        self.servers.iter().all(|&s| s > 0)
    }

    /// Number of cables between switches.
    pub fn num_links(&self) -> u32 {
        self.graph.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spineless_graph::GraphBuilder;

    fn tiny() -> Topology {
        // 3 switches in a path; 2, 0, 3 servers.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        Topology::new("tiny", b.build(), vec![2, 0, 3], 8).unwrap()
    }

    #[test]
    fn server_id_mapping() {
        let t = tiny();
        assert_eq!(t.num_servers(), 5);
        assert_eq!(t.switch_of(0), 0);
        assert_eq!(t.switch_of(1), 0);
        assert_eq!(t.switch_of(2), 2);
        assert_eq!(t.switch_of(4), 2);
        assert_eq!(t.servers_on(0), 0..2);
        assert_eq!(t.servers_on(1), 2..2);
        assert_eq!(t.servers_on(2), 2..5);
    }

    #[test]
    fn switch_of_skips_empty_racks_at_offsets() {
        // Rack 1 has zero servers; server 2 (first of rack 2) must map to 2.
        let t = tiny();
        assert_eq!(t.switch_of(2), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn switch_of_rejects_out_of_range() {
        tiny().switch_of(5);
    }

    #[test]
    fn racks_and_flatness() {
        let t = tiny();
        assert_eq!(t.num_racks(), 2);
        assert_eq!(t.racks(), vec![0, 2]);
        assert!(!t.is_flat());
    }

    #[test]
    fn ports_accounting() {
        let t = tiny();
        assert_eq!(t.ports_used(0), 1 + 2);
        assert_eq!(t.ports_used(1), 2);
        assert_eq!(t.ports_used(2), 1 + 3);
        assert_eq!(
            t.equipment(),
            Equipment {
                switches: 3,
                ports_per_switch: 8,
                servers: 5
            }
        );
    }

    #[test]
    fn rejects_port_overflow() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let err = Topology::new("x", b.build(), vec![4, 0], 4).unwrap_err();
        assert_eq!(
            err,
            TopoError::PortOverflow {
                switch: 0,
                needed: 5,
                radix: 4
            }
        );
    }

    #[test]
    fn rejects_length_mismatch() {
        let g = GraphBuilder::new(2).build();
        assert!(matches!(
            Topology::new("x", g, vec![1], 4),
            Err(TopoError::BadParameter(_))
        ));
    }

    #[test]
    fn equipment_arithmetic() {
        let e = Equipment {
            switches: 10,
            ports_per_switch: 64,
            servers: 400,
        };
        assert_eq!(e.total_ports(), 640);
        assert_eq!(e.network_ports(), 240);
    }
}
