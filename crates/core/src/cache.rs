//! Shared routing-state cache for the experiment grids.
//!
//! Building a [`ForwardingState`] is the experiments' fixed cost: one
//! Dijkstra per destination over the VRF graph. The Fig. 4 grid has 35
//! cells but only 5 distinct (topology, scheme) pairs, and the Fig. 5
//! driver reuses the same leaf-spine ECMP state across all four panels —
//! so the states are built once up front (in parallel) and handed to
//! worker threads as [`Arc`] clones. `Arc<ForwardingState>` implements
//! [`Forwarding`](spineless_routing::Forwarding) directly, so a cached
//! state drops into `Simulation::new` unchanged.

use crate::fct::TopoKind;
use crate::topos::EvalTopos;
use spineless_graph::par;
use spineless_routing::{ForwardingState, RoutingScheme};
use std::sync::Arc;

/// Forwarding states for a set of (topology, scheme) combos, built once.
///
/// Lookup is a linear scan: the cache holds a handful of entries, and a
/// scan over an inline pair is faster than hashing at that size.
#[derive(Debug, Clone)]
pub struct RoutingCache {
    entries: Vec<((TopoKind, RoutingScheme), Arc<ForwardingState>)>,
}

impl RoutingCache {
    /// Builds the forwarding state of every *distinct* combo in `combos`
    /// over the given topologies, on the [`par`] pool.
    ///
    /// Deterministic: `ForwardingState::build` depends only on its inputs,
    /// so the parallel build order cannot influence any result.
    pub fn build(topos: &EvalTopos, combos: &[(TopoKind, RoutingScheme)]) -> RoutingCache {
        let mut distinct: Vec<(TopoKind, RoutingScheme)> = Vec::new();
        for &c in combos {
            if !distinct.contains(&c) {
                distinct.push(c);
            }
        }
        let states = par::map_ordered(
            &distinct,
            par::host_threads(),
            || (),
            |_, &(tk, rs)| Arc::new(ForwardingState::build(&tk.of(topos).graph, rs)),
        );
        RoutingCache {
            entries: distinct.into_iter().zip(states).collect(),
        }
    }

    /// The cached state for a combo, as a cheap [`Arc`] clone.
    ///
    /// # Panics
    ///
    /// Panics if the combo was not part of the build set.
    pub fn get(&self, tk: TopoKind, rs: RoutingScheme) -> Arc<ForwardingState> {
        self.entries
            .iter()
            .find(|(k, _)| *k == (tk, rs))
            .map(|(_, fs)| Arc::clone(fs))
            .unwrap_or_else(|| panic!("combo ({tk:?}, {rs:?}) not in routing cache"))
    }

    /// Number of distinct cached states.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fct::paper_combos;
    use crate::topos::Scale;

    #[test]
    fn deduplicates_and_serves_all_paper_combos() {
        let topos = EvalTopos::build(Scale::Small, 1);
        // Duplicate the combo list: the cache must still build each state
        // exactly once.
        let mut combos = paper_combos().to_vec();
        combos.extend(paper_combos());
        let cache = RoutingCache::build(&topos, &combos);
        assert_eq!(cache.len(), 5);
        assert!(!cache.is_empty());
        for (tk, rs) in paper_combos() {
            let fs = cache.get(tk, rs);
            assert_eq!(fs.scheme, rs);
            assert_eq!(fs.vrf.routers, tk.of(&topos).num_switches());
        }
        // Two gets of the same combo share one allocation.
        let a = cache.get(TopoKind::DRing, RoutingScheme::Ecmp);
        let b = cache.get(TopoKind::DRing, RoutingScheme::Ecmp);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cached_state_matches_direct_build() {
        let topos = EvalTopos::build(Scale::Small, 2);
        let cache = RoutingCache::build(
            &topos,
            &[(TopoKind::DRing, RoutingScheme::ShortestUnion(2))],
        );
        let cached = cache.get(TopoKind::DRing, RoutingScheme::ShortestUnion(2));
        let direct = ForwardingState::build(&topos.dring.graph, RoutingScheme::ShortestUnion(2));
        assert_eq!(*cached, direct);
    }

    #[test]
    #[should_panic(expected = "not in routing cache")]
    fn missing_combo_panics() {
        let topos = EvalTopos::build(Scale::Small, 3);
        let cache = RoutingCache::build(&topos, &[(TopoKind::Rrg, RoutingScheme::Ecmp)]);
        cache.get(TopoKind::Rrg, RoutingScheme::ShortestUnion(2));
    }
}
