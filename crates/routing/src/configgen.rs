//! Router-configuration generation for the §4 prototype.
//!
//! The paper: "the routing configurations at each router can be generated
//! by a simple script to avoid errors." This module *is* that script,
//! driven by the same [`VrfGraph`] the analysis uses, so configuration and
//! model cannot drift apart. For every router it emits an FRR-style
//! configuration implementing Shortest-Union(K):
//!
//! * K VRFs per router, host interfaces in `VRF K`;
//! * one eBGP session per *virtual connection* of the VRF graph, carried
//!   on a VLAN subinterface of the physical link (one /30 per session);
//! * per-direction link costs realized as outbound AS-path prepending
//!   route-maps (`cost c` ⇒ the implicit eBGP hop plus `c − 1` prepends),
//!   exactly the paper's "costs can be set via path prepending in BGP";
//! * one private ASN per router, shared by all its VRFs, so stock AS-path
//!   loop prevention provides the design's loop freedom.
//!
//! The emitted text is deterministic, so golden tests can pin it.

use crate::vrf::VrfGraph;
use spineless_graph::{EdgeId, NodeId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One router's generated configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// The router (switch id).
    pub router: NodeId,
    /// Its BGP autonomous-system number.
    pub asn: u32,
    /// The configuration text (FRR dialect).
    pub text: String,
}

/// A BGP session between `(vrf_a @ edge side A)` and `(vrf_b @ side B)`,
/// with the per-direction advertisement costs from the VRF graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Session {
    /// VRF level at the edge's `a` endpoint.
    vrf_a: u32,
    /// VRF level at the edge's `b` endpoint.
    vrf_b: u32,
    /// Cost of traffic a→b over this session (None: direction unused).
    cost_ab: Option<u32>,
    /// Cost of traffic b→a.
    cost_ba: Option<u32>,
}

/// First private 32-bit-safe ASN; one per router.
const ASN_BASE: u32 = 64_512;

/// ASN of a router.
pub fn asn_of(router: NodeId) -> u32 {
    ASN_BASE + router
}

/// Derives the per-edge session table from the VRF graph's arcs.
///
/// Traffic arc `x@tail → y@head` means the *head* side advertises to the
/// tail side over the `(x, y)` session, with `cost − 1` extra prepends.
fn sessions(vrf: &VrfGraph) -> BTreeMap<EdgeId, Vec<Session>> {
    // (edge, vrf_at_a, vrf_at_b) -> (cost_ab, cost_ba)
    type SessionAcc = BTreeMap<(EdgeId, u32, u32), (Option<u32>, Option<u32>)>;
    let mut acc: SessionAcc = BTreeMap::new();
    for arc in 0..vrf.graph.num_arcs() {
        let (tail, head, cost) = vrf.graph.arc(arc);
        let e = vrf.edge_of_arc(arc);
        let (tr, hr) = (vrf.router_of(tail), vrf.router_of(head));
        let (tl, hl) = (vrf.level_of(tail), vrf.level_of(head));
        // Orient onto the edge's canonical (a, b) endpoints. The physical
        // edge is known to join tr and hr.
        let a_is_tail = {
            // edge endpoints: recover by probing the arc's routers; the
            // VrfGraph doesn't expose the physical graph, so we orient by
            // router id order and store levels accordingly.
            tr < hr
        };
        let key = if a_is_tail { (e, tl, hl) } else { (e, hl, tl) };
        let slot = acc.entry(key).or_insert((None, None));
        if a_is_tail {
            // Arc goes a → b.
            debug_assert!(slot.0.is_none() || slot.0 == Some(cost));
            slot.0 = Some(cost);
        } else {
            debug_assert!(slot.1.is_none() || slot.1 == Some(cost));
            slot.1 = Some(cost);
        }
    }
    let mut out: BTreeMap<EdgeId, Vec<Session>> = BTreeMap::new();
    for ((e, va, vb), (cab, cba)) in acc {
        out.entry(e).or_default().push(Session {
            vrf_a: va,
            vrf_b: vb,
            cost_ab: cab,
            cost_ba: cba,
        });
    }
    out
}

/// /30 subnet for session `sidx` of edge `e`: `10.E_hi.E_lo.(4·sidx)/30`,
/// side a = `.1`, side b = `.2`. Supports 64 sessions/edge, 65k edges.
fn session_ips(e: EdgeId, sidx: usize) -> (String, String) {
    let base = 4 * sidx as u32;
    (
        format!("10.{}.{}.{}", e >> 8 & 0xFF, e & 0xFF, base + 1),
        format!("10.{}.{}.{}", e >> 8 & 0xFF, e & 0xFF, base + 2),
    )
}

/// Generates the full per-router configuration set for `Shortest-Union(K)`
/// over the physical topology captured in `vrf` (router ids follow the
/// topology's switch ids; `edge_ends[e]` are the physical endpoints).
pub fn generate(vrf: &VrfGraph, edge_ends: &[(NodeId, NodeId)]) -> Vec<RouterConfig> {
    let table = sessions(vrf);
    let mut texts: Vec<String> = (0..vrf.routers)
        .map(|r| {
            let mut t = String::new();
            let _ = writeln!(t, "! ---- router r{r} (AS {}) ----", asn_of(r));
            let _ = writeln!(t, "hostname r{r}");
            for level in 1..=vrf.k {
                let _ = writeln!(t, "vrf VRF{level}");
                let _ = writeln!(t, " exit-vrf");
            }
            let _ = writeln!(
                t,
                "! host interfaces live in VRF{} (the paper's host VRF)",
                vrf.k
            );
            t
        })
        .collect();
    // Interfaces + BGP neighbor stanzas per session.
    let mut bgp: Vec<BTreeMap<u32, Vec<String>>> = vec![BTreeMap::new(); vrf.routers as usize]; // router -> vrf -> lines
    let mut prepends_used: Vec<std::collections::BTreeSet<u32>> =
        vec![Default::default(); vrf.routers as usize];
    for (&e, sess) in &table {
        let (ra, rb) = {
            let (x, y) = edge_ends[e as usize];
            (x.min(y), x.max(y))
        };
        for (sidx, s) in sess.iter().enumerate() {
            let (ip_a, ip_b) = session_ips(e, sidx);
            let vlan = 100 + sidx as u32;
            for (me, my_vrf, my_ip, peer, peer_ip, my_adv_cost) in [
                // Side a advertises to b with the b→a traffic cost.
                (ra, s.vrf_a, &ip_a, rb, &ip_b, s.cost_ba),
                (rb, s.vrf_b, &ip_b, ra, &ip_a, s.cost_ab),
            ] {
                let t = &mut texts[me as usize];
                let _ = writeln!(t, "interface eth{e}.{vlan} vrf VRF{my_vrf}");
                let _ = writeln!(t, " ip address {my_ip}/30");
                let lines = bgp[me as usize].entry(my_vrf).or_default();
                lines.push(format!(" neighbor {peer_ip} remote-as {}", asn_of(peer)));
                if let Some(c) = my_adv_cost {
                    if c > 1 {
                        lines.push(format!(" neighbor {peer_ip} route-map PREPEND-{c} out"));
                        prepends_used[me as usize].insert(c);
                    }
                } else {
                    // Direction unused by the design: filter everything out.
                    lines.push(format!(" neighbor {peer_ip} route-map DENY-ALL out"));
                }
                lines.push(format!(" neighbor {peer_ip} maximum-paths 64"));
            }
        }
    }
    // Assemble BGP sections and route-maps.
    for r in 0..vrf.routers as usize {
        let t = &mut texts[r];
        for (vrf_level, lines) in &bgp[r] {
            let _ = writeln!(t, "router bgp {} vrf VRF{vrf_level}", asn_of(r as u32));
            if *vrf_level == vrf.k {
                let _ = writeln!(t, " ! originate the host prefix from the host VRF");
                let _ = writeln!(t, " network 192.168.{}.0/24", r);
            }
            for l in lines {
                let _ = writeln!(t, "{l}");
            }
            let _ = writeln!(t, " exit");
        }
        for &c in &prepends_used[r] {
            let _ = writeln!(t, "route-map PREPEND-{c} permit 10");
            let reps = vec![asn_of(r as u32).to_string(); (c - 1) as usize].join(" ");
            let _ = writeln!(t, " set as-path prepend {reps}");
        }
        if texts[r].contains("DENY-ALL") {
            let _ = writeln!(texts[r], "route-map DENY-ALL deny 10");
        }
    }
    (0..vrf.routers)
        .map(|r| RouterConfig {
            router: r,
            asn: asn_of(r),
            text: std::mem::take(&mut texts[r as usize]),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spineless_topo::dring::DRing;

    fn setup(k: u32) -> (Vec<(NodeId, NodeId)>, VrfGraph, Vec<RouterConfig>) {
        let t = DRing::uniform(6, 2, 24).build();
        let vrf = VrfGraph::build(&t.graph, k);
        let ends = t.graph.edges().to_vec();
        let cfgs = generate(&vrf, &ends);
        (ends, vrf, cfgs)
    }

    #[test]
    fn one_config_per_router_with_unique_asn() {
        let (_, vrf, cfgs) = setup(2);
        assert_eq!(cfgs.len(), vrf.routers as usize);
        let mut asns: Vec<u32> = cfgs.iter().map(|c| c.asn).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), cfgs.len());
    }

    #[test]
    fn k2_sessions_cover_all_vrf_pairs_per_edge() {
        // For K = 2 the rule set uses all four (vrf_a, vrf_b) combinations
        // on every physical link: 4 sessions, 4 subinterfaces per side.
        let (ends, vrf, cfgs) = setup(2);
        let per_edge = sessions(&vrf);
        assert_eq!(per_edge.len(), ends.len());
        for sess in per_edge.values() {
            assert_eq!(sess.len(), 4);
        }
        // Each router's config mentions one subinterface per session side:
        // every ToR in DRing(6,2) has degree 8, so 8 × 4 = 32.
        for c in &cfgs {
            let n_ifaces = c.text.matches("interface eth").count();
            assert_eq!(n_ifaces, 8 * 4, "router {}", c.router);
        }
    }

    #[test]
    fn prepend_route_maps_match_costs() {
        let (_, _vrf, cfgs) = setup(2);
        for c in &cfgs {
            // K = 2: only cost-2 arcs (rule 1, i = 2) need prepending.
            assert!(c.text.contains("route-map PREPEND-2 permit 10"));
            assert!(!c.text.contains("PREPEND-3"));
            // The prepend adds exactly one copy of the router's own ASN.
            let line = format!(" set as-path prepend {}", c.asn);
            assert!(c.text.contains(&line), "router {}", c.router);
        }
    }

    #[test]
    fn host_vrf_originates_the_prefix() {
        let (_, vrf, cfgs) = setup(2);
        for c in &cfgs {
            let marker = format!("router bgp {} vrf VRF{}", c.asn, vrf.k);
            assert!(c.text.contains(&marker));
            assert!(c
                .text
                .contains(&format!("network 192.168.{}.0/24", c.router)));
        }
    }

    #[test]
    fn deterministic_output() {
        let (_, _, a) = setup(2);
        let (_, _, b) = setup(2);
        assert_eq!(a, b);
    }

    #[test]
    fn k3_uses_deeper_prepends() {
        let (_, _, cfgs) = setup(3);
        let any_p3 = cfgs.iter().any(|c| c.text.contains("PREPEND-3"));
        assert!(any_p3, "rule-1 i=3 arcs need two prepends");
        // And the two-copy prepend line exists somewhere.
        let any_two = cfgs
            .iter()
            .any(|c| c.text.contains(&format!("prepend {} {}", c.asn, c.asn)));
        assert!(any_two);
    }

    #[test]
    fn ecmp_configs_have_no_prepends() {
        let (_, _, cfgs) = setup(1);
        for c in &cfgs {
            assert!(!c.text.contains("PREPEND"));
            assert!(c.text.contains("maximum-paths"));
        }
    }
}
