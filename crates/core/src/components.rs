//! Connected components of the `CSPairs` graph.
//!
//! Phase 2 only ever emits groups that are *cliques* in the mutual-
//! neighbor ("CS-pair") graph: a compact set `S` requires every member's
//! `|S|`-nearest-neighbor set to equal `S`, so any two members are mutual
//! neighbors. The relational Phase 2 ([`crate::phase2::partition_via_tables`])
//! groups its `CSPairs` rows into the connected components of that graph
//! with the union-find below and extracts them in canonical (min-id) order.

/// Union-find (disjoint-set forest) over ids `0..n`, with union by rank
/// and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n as u32).collect(), rank: vec![0; n] }
    }

    /// Representative of `x`'s set (path-halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merge the sets containing `a` and `b`.
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => self.parent[ra as usize] = rb,
            std::cmp::Ordering::Greater => self.parent[rb as usize] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb as usize] = ra;
                self.rank[ra as usize] += 1;
            }
        }
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Extract all components in canonical order: each component's members
    /// ascending, components ordered by their minimum id. Singletons are
    /// included (every id belongs to exactly one component).
    pub fn components(mut self) -> Vec<Vec<u32>> {
        let n = self.parent.len();
        // First pass: slot index per root, in min-id order (ids ascend, so
        // a root's first appearance is at its component's minimum id).
        let mut slot_of_root: Vec<u32> = vec![u32::MAX; n];
        let mut components: Vec<Vec<u32>> = Vec::new();
        for id in 0..n as u32 {
            let root = self.find(id) as usize;
            let slot = if slot_of_root[root] == u32::MAX {
                let s = components.len() as u32;
                slot_of_root[root] = s;
                components.push(Vec::new());
                s
            } else {
                slot_of_root[root]
            };
            components[slot as usize].push(id);
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_when_no_unions() {
        let uf = UnionFind::new(4);
        assert_eq!(uf.components(), vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn unions_merge_and_order_is_canonical() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 1);
        uf.union(3, 5);
        uf.union(1, 4); // duplicate edge is a no-op
        assert!(uf.connected(1, 4));
        assert!(!uf.connected(0, 1));
        // Components ordered by min id, members ascending.
        assert_eq!(uf.components(), vec![vec![0], vec![1, 4], vec![2], vec![3, 5]]);
    }

    #[test]
    fn chain_collapses_to_one_component() {
        let mut uf = UnionFind::new(5);
        for i in 0..4 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.components(), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn empty_universe() {
        assert!(UnionFind::new(0).components().is_empty());
    }
}
