//! Path enumeration.
//!
//! **Shortest-Union(K)** (paper §4) needs *all simple paths of length ≤ K*
//! between rack pairs; K is tiny (2 in the paper), so depth-limited DFS is
//! exact and cheap. Sampling single paths the way per-hop ECMP hashing draws
//! them is the forwarding planes' job (`routing::Forwarding`).

use crate::bfs::SpDag;
use crate::{Graph, NodeId, UNREACHABLE};

/// Enumerates every *simple* path from `src` to `dst` with at most
/// `max_hops` edges, in lexicographic DFS order.
///
/// Intended for small `max_hops` (the paper uses K = 2; we test up to 4).
/// Paths are returned as node sequences including both endpoints.
/// Returns an empty vector when `src == dst` (the empty path is not a
/// routing path) or no such path exists.
pub fn bounded_simple_paths(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    max_hops: u32,
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    if src == dst || max_hops == 0 {
        return out;
    }
    let mut on_path = vec![false; g.num_nodes() as usize];
    let mut stack = vec![src];
    on_path[src as usize] = true;
    dfs(g, dst, max_hops, &mut stack, &mut on_path, &mut out);
    out
}

fn dfs(
    g: &Graph,
    dst: NodeId,
    max_hops: u32,
    stack: &mut Vec<NodeId>,
    on_path: &mut [bool],
    out: &mut Vec<Vec<NodeId>>,
) {
    let u = *stack.last().expect("stack never empty");
    let used = stack.len() as u32 - 1;
    if used == max_hops {
        return;
    }
    for &(v, _) in g.neighbors(u) {
        if v == dst {
            let mut p = stack.clone();
            p.push(dst);
            out.push(p);
            continue;
        }
        if on_path[v as usize] {
            continue;
        }
        // Prune: even going straight to dst must fit in the budget.
        if used + 1 >= max_hops {
            continue;
        }
        on_path[v as usize] = true;
        stack.push(v);
        dfs(g, dst, max_hops, stack, on_path, out);
        stack.pop();
        on_path[v as usize] = false;
    }
}

/// Enumerates all shortest paths from `src` to `dst`, up to `cap` of them
/// (so pathological pair counts cannot blow memory). Deterministic DFS order.
pub fn all_shortest_paths(g: &Graph, src: NodeId, dst: NodeId, cap: usize) -> Vec<Vec<NodeId>> {
    let dag = SpDag::towards(g, dst);
    let mut out = Vec::new();
    if src == dst || dag.dist[src as usize] == UNREACHABLE {
        return out;
    }
    let mut stack = vec![src];
    sp_dfs(&dag, &mut stack, &mut out, cap);
    out
}

fn sp_dfs(dag: &SpDag, stack: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>, cap: usize) {
    if out.len() >= cap {
        return;
    }
    let u = *stack.last().expect("stack never empty");
    if u == dag.dst {
        out.push(stack.clone());
        return;
    }
    for &(v, _) in &dag.next_hops[u as usize] {
        stack.push(v);
        sp_dfs(dag, stack, out, cap);
        stack.pop();
        if out.len() >= cap {
            return;
        }
    }
}

/// The Shortest-Union(K) path set of paper §4: the union of all shortest
/// paths and all simple paths of length ≤ `k`, deduplicated.
///
/// `sp_cap` bounds the shortest-path enumeration (see
/// [`all_shortest_paths`]); the bounded part is exact.
pub fn shortest_union_paths(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: u32,
    sp_cap: usize,
) -> Vec<Vec<NodeId>> {
    let mut paths = all_shortest_paths(g, src, dst, sp_cap);
    for p in bounded_simple_paths(g, src, dst, k) {
        if !paths.contains(&p) {
            paths.push(p);
        }
    }
    paths
}

/// True iff `path` is a valid walk in `g` (consecutive nodes adjacent) that
/// starts at `src`, ends at `dst` and repeats no node.
pub fn is_simple_path(g: &Graph, path: &[NodeId], src: NodeId, dst: NodeId) -> bool {
    if path.len() < 2 || path[0] != src || *path.last().expect("non-empty") != dst {
        return false;
    }
    let mut seen = vec![false; g.num_nodes() as usize];
    for &v in path {
        if seen[v as usize] {
            return false;
        }
        seen[v as usize] = true;
    }
    path.windows(2).all(|w| g.has_edge(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn cycle(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build()
    }

    fn k4() -> Graph {
        let mut b = GraphBuilder::new(4);
        for a in 0..4 {
            for c in (a + 1)..4 {
                b.add_edge(a, c);
            }
        }
        b.build()
    }

    #[test]
    fn bounded_paths_on_k4() {
        let g = k4();
        // 0 -> 1 with <= 2 hops: direct, via 2, via 3.
        let ps = bounded_simple_paths(&g, 0, 1, 2);
        assert_eq!(ps.len(), 3);
        assert!(ps.contains(&vec![0, 1]));
        assert!(ps.contains(&vec![0, 2, 1]));
        assert!(ps.contains(&vec![0, 3, 1]));
        // <= 3 hops adds the two 3-hop simple paths (0-2-3-1, 0-3-2-1).
        let ps = bounded_simple_paths(&g, 0, 1, 3);
        assert_eq!(ps.len(), 5);
    }

    #[test]
    fn bounded_paths_edge_cases() {
        let g = k4();
        assert!(bounded_simple_paths(&g, 0, 0, 3).is_empty());
        assert!(bounded_simple_paths(&g, 0, 1, 0).is_empty());
        // Disconnected pair.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        assert!(bounded_simple_paths(&g, 0, 2, 4).is_empty());
    }

    #[test]
    fn all_shortest_on_cycle() {
        let g = cycle(4);
        let ps = all_shortest_paths(&g, 0, 2, 100);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.len(), 3);
            assert!(is_simple_path(&g, p, 0, 2));
        }
    }

    #[test]
    fn shortest_path_cap_respected() {
        let g = k4();
        // 0 -> 1 distance 1, exactly one shortest path, cap larger.
        assert_eq!(all_shortest_paths(&g, 0, 1, 10).len(), 1);
        // Cycle(4) 0->2 has 2; cap of 1 truncates.
        let g = cycle(4);
        assert_eq!(all_shortest_paths(&g, 0, 2, 1).len(), 1);
    }

    #[test]
    fn shortest_union_k2_on_k4() {
        let g = k4();
        // SU(2) for adjacent pair: 1 shortest + 2 two-hop = 3 paths.
        let ps = shortest_union_paths(&g, 0, 1, 2, 100);
        assert_eq!(ps.len(), 3);
        // No duplicates.
        for (i, p) in ps.iter().enumerate() {
            assert!(!ps[i + 1..].contains(p));
        }
    }

    #[test]
    fn shortest_union_includes_long_shortest_paths() {
        // Path graph 0-1-2-3: distance(0,3)=3 > K=2, so SU(2) must still
        // include the (only) shortest path.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build();
        let ps = shortest_union_paths(&g, 0, 3, 2, 100);
        assert_eq!(ps, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn simple_path_validation() {
        let g = cycle(4);
        assert!(is_simple_path(&g, &[0, 1, 2], 0, 2));
        assert!(!is_simple_path(&g, &[0, 2], 0, 2)); // not adjacent
        assert!(!is_simple_path(&g, &[0, 1, 0, 3], 0, 3)); // repeats
        assert!(!is_simple_path(&g, &[0], 0, 0)); // too short
        assert!(!is_simple_path(&g, &[1, 2, 3], 0, 3)); // wrong src
    }
}
