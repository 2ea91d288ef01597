//! De Bruijn flat topologies (arXiv:1610.03245).
//!
//! The De Bruijn graph `B(k, n)` has `k^n` switches labelled by length-`n`
//! words over `k` symbols; switch `x` connects to every left-shift
//! `(k·x + j) mod k^n`. Taken undirected (shift-right neighbours arrive
//! for free as the reverse arcs) it is a *structured* flat topology: near-
//! optimal diameter `n = ⌈log_k N⌉` at degree ≤ 2k, with fully
//! deterministic wiring — no random seed, no swap process — which makes it
//! the cable-management-friendly alternative to the RRG in the design
//! search's topology zoo.

use crate::topology::{TopoError, Topology};
use spineless_graph::{GraphBuilder, NodeId};
use std::collections::BTreeSet;

/// Builder for the undirected De Bruijn topology `B(symbols, word_length)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeBruijn {
    /// Alphabet size `k ≥ 2`; network degree is at most `2k`.
    pub symbols: u32,
    /// Word length `n ≥ 2`; the switch count is `symbols^word_length` and
    /// the hop diameter is at most `n`.
    pub word_length: u32,
    /// Switch radix; every port not used for a network link hosts a server.
    pub ports_per_switch: u32,
}

impl DeBruijn {
    /// The builder for `B(symbols, word_length)` at the given radix.
    pub fn new(symbols: u32, word_length: u32, ports_per_switch: u32) -> DeBruijn {
        DeBruijn {
            symbols,
            word_length,
            ports_per_switch,
        }
    }

    /// Switch count `symbols^word_length` (`None` on u32 overflow).
    pub fn num_switches(&self) -> Option<u32> {
        self.symbols.checked_pow(self.word_length)
    }

    /// The largest De Bruijn graph fitting an equipment envelope cell:
    /// at most `max_switches` switches, network degree at most `2k ≤
    /// radix − 1` (every switch keeps at least one server port). Scans
    /// the small `(k, n)` lattice for the most switches, breaking ties
    /// towards smaller `k` (lower degree ⇒ more server ports per switch).
    /// `None` if nothing fits.
    pub fn fit(max_switches: u32, ports_per_switch: u32) -> Option<DeBruijn> {
        let mut best: Option<(u32, DeBruijn)> = None;
        for k in 2..=ports_per_switch.saturating_sub(1) / 2 {
            let mut n = 2u32;
            while let Some(nodes) = k.checked_pow(n) {
                if nodes > max_switches {
                    break;
                }
                let better = match best {
                    None => true,
                    Some((bn, _)) => nodes > bn,
                };
                if better {
                    best = Some((nodes, DeBruijn::new(k, n, ports_per_switch)));
                }
                n += 1;
            }
        }
        best.map(|(_, d)| d)
    }

    /// Fallible construction. Fails on degenerate parameters or when some
    /// switch's network degree fills the whole radix (no server port left).
    pub fn try_build(&self) -> Result<Topology, TopoError> {
        let k = self.symbols;
        if k < 2 {
            return Err(TopoError::BadParameter(format!(
                "De Bruijn needs at least 2 symbols, got {k}"
            )));
        }
        if self.word_length < 2 {
            return Err(TopoError::BadParameter(format!(
                "De Bruijn needs word length >= 2, got {}",
                self.word_length
            )));
        }
        let n = self.num_switches().ok_or_else(|| {
            TopoError::BadParameter(format!(
                "De Bruijn {k}^{} overflows the switch id space",
                self.word_length
            ))
        })?;
        // Undirected collapse of the shift arcs: x — (k·x + j) mod k^n,
        // self-loops dropped, parallel shifts collapsed to one cable. The
        // BTreeSet yields a deterministic sorted edge order.
        let mut pairs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for x in 0..n {
            for j in 0..k {
                let y = (((k as u64) * (x as u64) + j as u64) % n as u64) as NodeId;
                if y != x {
                    pairs.insert((x.min(y), x.max(y)));
                }
            }
        }
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &pairs {
            b.add_edge(u, v);
        }
        let graph = b.build();
        let mut servers = Vec::with_capacity(n as usize);
        for v in 0..n {
            let deg = graph.degree(v);
            if deg >= self.ports_per_switch {
                return Err(TopoError::PortOverflow {
                    switch: v,
                    needed: deg + 1,
                    radix: self.ports_per_switch,
                });
            }
            servers.push(self.ports_per_switch - deg);
        }
        Topology::new(
            format!("debruijn(k={k},n={},switches={n})", self.word_length),
            graph,
            servers,
            self.ports_per_switch,
        )
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics on construction failure; use [`try_build`](Self::try_build)
    /// for untrusted input.
    pub fn build(&self) -> Topology {
        self.try_build().expect("invalid De Bruijn parameters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spineless_graph::bfs;

    #[test]
    fn small_debruijn_is_connected_and_flat() {
        let t = DeBruijn::new(2, 3, 8).build();
        assert_eq!(t.num_switches(), 8);
        assert!(t.graph.is_connected());
        assert!(t.is_flat());
        // Every switch hosts at least one server.
        assert_eq!(t.num_racks(), 8);
        // Degree is bounded by 2k.
        assert!(t.graph.max_degree() <= 4);
    }

    /// arXiv:1610.03245's headline property: hop diameter at most
    /// `n = ⌈log_k N⌉` — the shift walk spells out any target word in
    /// `n` steps, and the undirected graph can only be shorter.
    #[test]
    fn diameter_within_log_bound() {
        for (k, n) in [(2u32, 3u32), (2, 5), (3, 3), (4, 2), (3, 4)] {
            let t = DeBruijn::new(k, n, 2 * k + 4).build();
            let nodes = k.pow(n);
            let d = bfs::diameter(&t.graph).expect("connected");
            assert!(d <= n, "B({k},{n}): diameter {d} > {n}");
            // n really is ⌈log_k N⌉ for the exact power.
            assert!(k.pow(n - 1) < nodes && nodes <= k.pow(n));
        }
    }

    #[test]
    fn fit_respects_the_envelope() {
        let d = DeBruijn::fit(100, 16).expect("fits");
        let t = d.build();
        assert!(t.num_switches() <= 100);
        assert!(t.graph.max_degree() <= 15);
        // 3^4 = 81 beats 2^6 = 64 and 4^3 = 64 under 100 switches.
        assert_eq!((d.symbols, d.word_length), (3, 4));
        // Nothing fits a radix too small for degree 4 + a server port.
        assert!(DeBruijn::fit(100, 4).is_none());
        assert!(DeBruijn::fit(3, 16).is_none());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(DeBruijn::new(1, 3, 8).try_build().is_err());
        assert!(DeBruijn::new(2, 1, 8).try_build().is_err());
        // Radix 4 cannot host degree-4 switches plus a server.
        assert!(matches!(
            DeBruijn::new(2, 3, 4).try_build(),
            Err(TopoError::PortOverflow { .. })
        ));
    }
}
