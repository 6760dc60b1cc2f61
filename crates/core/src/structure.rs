//! Finite relational structures over a columnar index substrate.

use crate::atom::GroundAtom;
use crate::fasthash::FastBuild;
use crate::signature::{ConstId, PredId, Signature};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An element (vertex) of a structure, local to that structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub u32);

/// Process-global source of structure identities (see [`Structure::uid`]).
static STRUCTURE_UIDS: AtomicU64 = AtomicU64::new(1);

fn next_structure_uid() -> u64 {
    STRUCTURE_UIDS.fetch_add(1, Ordering::Relaxed)
}

/// One predicate's atoms in columnar layout: the row list, one flat
/// column of argument nodes per position, and sorted per-position
/// postings.
///
/// `rows` holds the *global* atom indices (into [`Structure::atoms`]) of
/// this predicate's atoms, in insertion order — and insertion order is
/// ascending, so `rows` is sorted and prefix queries against a frozen
/// snapshot boundary are a `partition_point`. `cols[pos][i]` is the
/// argument at `pos` of the atom `rows[i]`. `postings[pos]` maps a node
/// to the ascending global atom indices carrying it at `pos`; each
/// posting list is sorted for the same reason `rows` is, which is what
/// makes the worst-case-optimal search's k-way sorted intersections
/// possible.
#[derive(Debug, Clone, Default)]
struct ColumnarRel {
    rows: Vec<u32>,
    cols: Vec<Vec<Node>>,
    postings: Vec<HashMap<Node, Vec<u32>, FastBuild>>,
}

/// A finite relational structure over a [`Signature`] (paper §II.A).
///
/// A structure is a set of positive ground atoms over a domain of [`Node`]s.
/// Constants of the signature are materialised as dedicated nodes on first
/// use and are fixed by every homomorphism.
///
/// Atoms are kept in insertion order (so iteration is deterministic) and
/// deduplicated. Lookups are served by a per-predicate **columnar
/// substrate** ([`ColumnarRel`]): a dense `Vec` indexed by [`PredId`]
/// holding, for each predicate, its row list, one flat node column per
/// argument position, and sorted per-position postings. The historical
/// accessors (`atoms_with_pred*`, `pred_pos_node_index`, …) are thin
/// views over this layout, so existing callers are unaffected; the
/// columnar extras (`column`, `distinct_count`, `epoch`) feed the
/// worst-case-optimal homomorphism search in `hom::wco`.
#[derive(Debug)]
pub struct Structure {
    sig: Arc<Signature>,
    atoms: Vec<GroundAtom>,
    atom_set: HashSet<GroundAtom, FastBuild>,
    rels: Vec<ColumnarRel>,
    /// Flat CSR side table of every atom's arguments: atom `i`'s args are
    /// `flat_args[arg_starts[i]..arg_starts[i+1]]`. The hom-search inner
    /// loops read argument tuples by global atom id millions of times per
    /// chase; this table serves them from one contiguous allocation
    /// instead of chasing each [`GroundAtom`]'s own heap `Vec`.
    flat_args: Vec<Node>,
    arg_starts: Vec<u32>,
    node_count: u32,
    const_node: HashMap<ConstId, Node>,
    node_const: HashMap<Node, ConstId>,
    /// Monotone mutation counter, bumped on every atom insertion.
    epoch: u64,
    /// Process-unique identity; fresh per construction *and* per clone.
    uid: u64,
}

impl Clone for Structure {
    /// Clones the structure with a **fresh identity**: the clone gets its
    /// own [`uid`](Self::uid) so plan caches keyed by `(uid, epoch)` can
    /// never confuse a clone with its original once they diverge.
    fn clone(&self) -> Self {
        Structure {
            sig: Arc::clone(&self.sig),
            atoms: self.atoms.clone(),
            atom_set: self.atom_set.clone(),
            rels: self.rels.clone(),
            flat_args: self.flat_args.clone(),
            arg_starts: self.arg_starts.clone(),
            node_count: self.node_count,
            const_node: self.const_node.clone(),
            node_const: self.node_const.clone(),
            epoch: self.epoch,
            uid: next_structure_uid(),
        }
    }
}

impl Structure {
    /// Creates an empty structure over a signature.
    pub fn new(sig: Arc<Signature>) -> Self {
        Structure {
            sig,
            atoms: Vec::new(),
            atom_set: HashSet::default(),
            rels: Vec::new(),
            flat_args: Vec::new(),
            arg_starts: vec![0],
            node_count: 0,
            const_node: HashMap::new(),
            node_const: HashMap::new(),
            epoch: 0,
            uid: next_structure_uid(),
        }
    }

    /// Creates an empty structure, wrapping the signature in an [`Arc`].
    pub fn with_signature(sig: Signature) -> Self {
        Self::new(Arc::new(sig))
    }

    /// The structure's signature.
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// A process-unique identity for this structure value. Fresh on every
    /// construction and on every clone, so `(uid, epoch)` pairs identify a
    /// specific index state without retaining a borrow — the key shape the
    /// `hom::wco` plan cache uses.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Monotone mutation counter: bumped on every atom insertion. A plan
    /// or statistic derived from the indexes is valid exactly as long as
    /// the epoch it was computed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Empties the structure (atoms, nodes and constant pins) but keeps
    /// its allocations, so a loop that builds many small structures over
    /// one signature can reuse a single value.
    ///
    /// The cleared structure takes a fresh [`uid`](Self::uid) and a
    /// strictly higher [`epoch`](Self::epoch), so no plan cache keyed by
    /// `(uid, epoch)` can confuse it with its earlier contents.
    pub fn clear(&mut self) {
        self.atoms.clear();
        self.atom_set.clear();
        for rel in &mut self.rels {
            rel.rows.clear();
            rel.cols.iter_mut().for_each(Vec::clear);
            rel.postings.iter_mut().for_each(HashMap::clear);
        }
        self.flat_args.clear();
        self.arg_starts.truncate(1);
        self.node_count = 0;
        self.const_node.clear();
        self.node_const.clear();
        self.epoch += 1;
        self.uid = next_structure_uid();
    }

    /// Allocates a fresh node.
    pub fn fresh_node(&mut self) -> Node {
        let n = Node(self.node_count);
        self.node_count += 1;
        n
    }

    /// The node representing a constant, allocated on first use.
    pub fn node_for_const(&mut self, c: ConstId) -> Node {
        if let Some(&n) = self.const_node.get(&c) {
            return n;
        }
        let n = self.fresh_node();
        self.const_node.insert(c, n);
        self.node_const.insert(n, c);
        n
    }

    /// The constant a node stands for, if it is a constant node.
    pub fn const_of_node(&self, n: Node) -> Option<ConstId> {
        self.node_const.get(&n).copied()
    }

    /// Pins a constant to an *already allocated* node. Used when
    /// reconstructing a structure with a prescribed node numbering (e.g.
    /// chase stage snapshots).
    ///
    /// # Panics
    /// If the node is unallocated, or the constant is already pinned to a
    /// different node, or the node already stands for another constant.
    pub fn pin_constant(&mut self, c: ConstId, n: Node) {
        assert!(n.0 < self.node_count, "node {n:?} not allocated");
        if let Some(&old) = self.const_node.get(&c) {
            assert_eq!(old, n, "constant already pinned elsewhere");
            return;
        }
        assert!(
            !self.node_const.contains_key(&n),
            "node already pinned to another constant"
        );
        self.const_node.insert(c, n);
        self.node_const.insert(n, c);
    }

    /// The node a constant is pinned to, if it has been materialised.
    pub fn existing_const_node(&self, c: ConstId) -> Option<Node> {
        self.const_node.get(&c).copied()
    }

    /// Number of nodes allocated (including constant nodes and nodes that do
    /// not occur in any atom).
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Iterates over all allocated nodes.
    pub fn nodes(&self) -> impl Iterator<Item = Node> {
        (0..self.node_count).map(Node)
    }

    /// The set of nodes that occur in at least one atom or stand for a
    /// constant — the *active domain*.
    pub fn active_nodes(&self) -> BTreeSet<Node> {
        let mut s: BTreeSet<Node> = self
            .atoms
            .iter()
            .flat_map(|a| a.args.iter().copied())
            .collect();
        s.extend(self.const_node.values().copied());
        s
    }

    /// Inserts a ground atom; returns `true` if it was new.
    ///
    /// Maintains the columnar substrate incrementally: the atom's global
    /// index is appended to the predicate's row list, each argument to its
    /// position's column, and each `(position, node)` posting — all
    /// appends of an ascending index, so every list stays sorted without
    /// re-sorting. Bumps [`epoch`](Self::epoch).
    ///
    /// # Panics
    /// If the argument count does not match the predicate's arity, or an
    /// argument node was never allocated in this structure.
    pub fn add_atom(&mut self, atom: GroundAtom) -> bool {
        assert!(
            atom.args.len() == self.sig.arity(atom.pred),
            "atom over `{}` has {} arguments, expected {} (declared arity of `{}`)",
            self.sig.pred_name(atom.pred),
            atom.args.len(),
            self.sig.arity(atom.pred),
            self.sig.pred_name(atom.pred)
        );
        for &n in &atom.args {
            assert!(n.0 < self.node_count, "node {n:?} not allocated");
        }
        if self.atom_set.contains(&atom) {
            return false;
        }
        let idx = self.atoms.len() as u32;
        let pid = atom.pred.0 as usize;
        if self.rels.len() <= pid {
            self.rels.resize_with(pid + 1, ColumnarRel::default);
        }
        let rel = &mut self.rels[pid];
        if rel.rows.is_empty() && rel.cols.len() != atom.args.len() {
            rel.cols = vec![Vec::new(); atom.args.len()];
            rel.postings = vec![HashMap::default(); atom.args.len()];
        }
        rel.rows.push(idx);
        for (pos, &n) in atom.args.iter().enumerate() {
            rel.cols[pos].push(n);
            rel.postings[pos].entry(n).or_default().push(idx);
        }
        self.flat_args.extend_from_slice(&atom.args);
        self.arg_starts.push(self.flat_args.len() as u32);
        self.epoch += 1;
        self.atom_set.insert(atom.clone());
        self.atoms.push(atom);
        true
    }

    /// Convenience: allocate-and-insert `pred(args…)`.
    pub fn add(&mut self, pred: PredId, args: Vec<Node>) -> bool {
        self.add_atom(GroundAtom::new(pred, args))
    }

    /// Does the structure contain this exact atom?
    pub fn contains_atom(&self, atom: &GroundAtom) -> bool {
        self.atom_set.contains(atom)
    }

    /// Does the structure contain `pred(args…)`?
    pub fn contains(&self, pred: PredId, args: &[Node]) -> bool {
        self.atom_set
            .contains(&GroundAtom::new(pred, args.to_vec()))
    }

    /// All atoms, in insertion order.
    pub fn atoms(&self) -> &[GroundAtom] {
        &self.atoms
    }

    /// The argument tuple of the atom with global index `row`, served
    /// from the flat CSR side table (one contiguous allocation — the
    /// cache-friendly read path the hom-search inner loops use instead of
    /// `atoms()[row].args`).
    pub fn args_of(&self, row: u32) -> &[Node] {
        let i = row as usize;
        &self.flat_args[self.arg_starts[i] as usize..self.arg_starts[i + 1] as usize]
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    fn rel(&self, pred: PredId) -> Option<&ColumnarRel> {
        self.rels.get(pred.0 as usize)
    }

    /// Atoms with the given predicate, in insertion order.
    pub fn atoms_with_pred(&self, pred: PredId) -> impl Iterator<Item = &GroundAtom> {
        self.pred_index(pred)
            .iter()
            .map(|&i| &self.atoms[i as usize])
    }

    /// Number of atoms with the given predicate.
    pub fn pred_count(&self, pred: PredId) -> usize {
        self.rel(pred).map_or(0, |r| r.rows.len())
    }

    /// Atoms with the given predicate that carry `node` at position `pos`.
    pub fn atoms_with_pred_pos_node(
        &self,
        pred: PredId,
        pos: u8,
        node: Node,
    ) -> impl Iterator<Item = &GroundAtom> {
        self.pred_pos_node_index(pred, pos, node)
            .iter()
            .map(|&i| &self.atoms[i as usize])
    }

    /// Number of atoms matching (pred, pos, node) — used for index selection.
    pub fn index_size(&self, pred: PredId, pos: u8, node: Node) -> usize {
        self.pred_pos_node_index(pred, pos, node).len()
    }

    /// The raw by-predicate index: global atom indices (into
    /// [`Self::atoms`]) with this predicate, ascending. A thin view of the
    /// columnar row list; an absent predicate yields an empty slice.
    pub fn pred_index(&self, pred: PredId) -> &[u32] {
        self.rel(pred).map_or(&[], |r| r.rows.as_slice())
    }

    /// The raw by-(predicate, position, node) posting: ascending global
    /// atom indices carrying `node` at position `pos`. Companion of
    /// [`Self::pred_index`] for the hom-search hot paths; both engines
    /// rely on the ascending order (the legacy engine to stop prefix scans
    /// early, the wco engine for sorted intersection).
    pub fn pred_pos_node_index(&self, pred: PredId, pos: u8, node: Node) -> &[u32] {
        self.rel(pred)
            .and_then(|r| r.postings.get(pos as usize))
            .and_then(|p| p.get(&node))
            .map_or(&[], Vec::as_slice)
    }

    /// The flat node column of a predicate's argument position:
    /// `column(p, pos)[i]` is the argument at `pos` of the atom
    /// `pred_index(p)[i]`. This is the columnar access path the
    /// worst-case-optimal search scans for candidate values.
    pub fn column(&self, pred: PredId, pos: u8) -> &[Node] {
        self.rel(pred)
            .and_then(|r| r.cols.get(pos as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// Number of distinct nodes at a predicate's argument position — the
    /// posting count, used by the wco variable-ordering planner to
    /// estimate selectivity (rows ÷ distinct = average posting length).
    pub fn distinct_count(&self, pred: PredId, pos: u8) -> usize {
        self.rel(pred)
            .and_then(|r| r.postings.get(pos as usize))
            .map_or(0, HashMap::len)
    }

    /// Like [`Self::atoms_with_pred`], restricted to the first `limit` atoms
    /// (by insertion order). Row lists are ascending, so this is a prefix
    /// scan. Used by the chase to enumerate triggers over a frozen stage
    /// snapshot (paper §II.C: triggers range over `chaseᵢ`).
    pub fn atoms_with_pred_limited(
        &self,
        pred: PredId,
        limit: u32,
    ) -> impl Iterator<Item = &GroundAtom> {
        self.pred_index(pred)
            .iter()
            .take_while(move |&&i| i < limit)
            .map(|&i| &self.atoms[i as usize])
    }

    /// Like [`Self::atoms_with_pred_pos_node`], restricted to the first
    /// `limit` atoms by insertion order.
    pub fn atoms_with_pred_pos_node_limited(
        &self,
        pred: PredId,
        pos: u8,
        node: Node,
        limit: u32,
    ) -> impl Iterator<Item = &GroundAtom> {
        self.pred_pos_node_index(pred, pos, node)
            .iter()
            .take_while(move |&&i| i < limit)
            .map(|&i| &self.atoms[i as usize])
    }

    /// Is `self` a substructure of `other` (same signature family), i.e. is
    /// every atom of `self` an atom of `other`? Nodes are compared by
    /// identity, so this is the paper's literal substructure notion.
    pub fn is_substructure_of(&self, other: &Structure) -> bool {
        self.atoms.iter().all(|a| other.contains_atom(a))
    }

    /// Copies all atoms of `other` into `self`, translating nodes.
    ///
    /// Constant nodes of `other` map to the corresponding constant nodes of
    /// `self`; every other node of `other` gets a fresh node in `self`
    /// (shared across atoms). Returns the node translation used.
    ///
    /// This is the "disjoint union except for constants" operation of §IX
    /// (footnote 25: constants "belong to all the copies").
    pub fn absorb(&mut self, other: &Structure) -> HashMap<Node, Node> {
        let mut map: HashMap<Node, Node> = HashMap::new();
        for n in other.nodes() {
            let image = match other.const_of_node(n) {
                Some(c) => self.node_for_const(c),
                None => self.fresh_node(),
            };
            map.insert(n, image);
        }
        for a in other.atoms() {
            let args = a.args.iter().map(|n| map[n]).collect();
            self.add(a.pred, args);
        }
        map
    }

    /// Builds the quotient of this structure under an equivalence given as a
    /// representative-choosing map (`rep(n)` must be idempotent on its own
    /// image). Returns the quotient structure and the node map into it.
    ///
    /// Used for "folding" chase prefixes (Figure 2: `h(b_t) = h(b_t')`) and
    /// for the knee-gluing step of `compile` (Definition 29).
    pub fn quotient(&self, rep: impl Fn(Node) -> Node) -> (Structure, HashMap<Node, Node>) {
        let mut q = Structure::new(Arc::clone(&self.sig));
        let mut map: HashMap<Node, Node> = HashMap::new();
        for n in self.nodes() {
            let r = rep(n);
            let image = if let Some(&m) = map.get(&r) {
                m
            } else {
                let m = match self.const_of_node(r) {
                    Some(c) => q.node_for_const(c),
                    None => q.fresh_node(),
                };
                map.insert(r, m);
                m
            };
            map.insert(n, image);
        }
        for a in &self.atoms {
            let args = a.args.iter().map(|n| map[n]).collect();
            q.add(a.pred, args);
        }
        (q, map)
    }

    /// A copy of this structure keeping only atoms selected by `keep`.
    /// The domain (node allocation, constants) is preserved unchanged.
    pub fn filter_atoms(&self, keep: impl Fn(&GroundAtom) -> bool) -> Structure {
        let mut s = Structure::new(Arc::clone(&self.sig));
        s.node_count = self.node_count;
        s.const_node = self.const_node.clone();
        s.node_const = self.node_const.clone();
        for a in &self.atoms {
            if keep(a) {
                s.add_atom(a.clone());
            }
        }
        s
    }

    /// A copy of this structure with every atom's predicate replaced by
    /// `f(pred)`, over the given (possibly different) signature.
    ///
    /// This implements the coloring maps `G(·)`, `R(·)` and `dalt(·)` of
    /// §IV at the structure level. Arities must be preserved by `f`.
    pub fn map_predicates(&self, sig: Arc<Signature>, f: impl Fn(PredId) -> PredId) -> Structure {
        let mut s = Structure::new(sig);
        s.node_count = self.node_count;
        s.const_node = self.const_node.clone();
        s.node_const = self.node_const.clone();
        for a in &self.atoms {
            s.add(f(a.pred), a.args.clone());
        }
        s
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "structure ({} nodes, {} atoms):",
            self.node_count,
            self.atoms.len()
        )?;
        for a in &self.atoms {
            writeln!(f, "  {}", a.display_with(&self.sig))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig2() -> Arc<Signature> {
        let mut sig = Signature::new();
        sig.add_predicate("R", 2);
        sig.add_predicate("S", 1);
        sig.add_constant("c");
        Arc::new(sig)
    }

    #[test]
    fn add_and_dedup() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        assert!(d.add(r, vec![a, b]));
        assert!(!d.add(r, vec![a, b]));
        assert!(d.add(r, vec![b, a]));
        assert_eq!(d.atom_count(), 2);
        assert!(d.contains(r, &[a, b]));
        assert!(!d.contains(r, &[a, a]));
    }

    #[test]
    fn constant_nodes_are_stable() {
        let sig = sig2();
        let c = sig.constant("c").unwrap();
        let mut d = Structure::new(sig);
        let n1 = d.node_for_const(c);
        let n2 = d.node_for_const(c);
        assert_eq!(n1, n2);
        assert_eq!(d.const_of_node(n1), Some(c));
    }

    #[test]
    fn indexes_answer_lookups() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let s = sig.predicate("S").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let c = d.fresh_node();
        d.add(r, vec![a, b]);
        d.add(r, vec![a, c]);
        d.add(r, vec![b, c]);
        d.add(s, vec![a]);
        assert_eq!(d.pred_count(r), 3);
        assert_eq!(d.atoms_with_pred_pos_node(r, 0, a).count(), 2);
        assert_eq!(d.atoms_with_pred_pos_node(r, 1, c).count(), 2);
        assert_eq!(d.index_size(r, 0, c), 0);
    }

    #[test]
    fn columns_mirror_rows() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let c = d.fresh_node();
        d.add(r, vec![a, b]);
        d.add(r, vec![b, c]);
        d.add(r, vec![a, c]);
        // column(p, pos)[i] is the argument of atom pred_index(p)[i].
        assert_eq!(d.column(r, 0), &[a, b, a]);
        assert_eq!(d.column(r, 1), &[b, c, c]);
        assert_eq!(d.distinct_count(r, 0), 2);
        assert_eq!(d.distinct_count(r, 1), 2);
        // Postings are ascending global atom ids.
        assert_eq!(d.pred_pos_node_index(r, 0, a), &[0, 2]);
        assert_eq!(d.pred_pos_node_index(r, 1, c), &[1, 2]);
        // Absent predicate/position/node: empty views, zero counts.
        let s = d.signature().predicate("S").unwrap();
        assert!(d.column(s, 0).is_empty());
        assert_eq!(d.distinct_count(s, 0), 0);
    }

    #[test]
    fn epoch_advances_only_on_new_atoms() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let e0 = d.epoch();
        let a = d.fresh_node();
        let b = d.fresh_node();
        assert_eq!(d.epoch(), e0, "node allocation does not move the epoch");
        d.add(r, vec![a, b]);
        let e1 = d.epoch();
        assert!(e1 > e0);
        d.add(r, vec![a, b]); // duplicate: rejected, epoch unchanged
        assert_eq!(d.epoch(), e1);
        d.add(r, vec![b, a]);
        assert!(d.epoch() > e1);
    }

    #[test]
    fn clones_get_fresh_uids() {
        let sig = sig2();
        let d = Structure::new(Arc::clone(&sig));
        let d2 = d.clone();
        let d3 = Structure::new(sig);
        assert_ne!(d.uid(), d2.uid());
        assert_ne!(d.uid(), d3.uid());
        assert_eq!(d.epoch(), d2.epoch());
    }

    #[test]
    fn cleared_structure_indexes_like_a_fresh_build() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let s = sig.add_predicate("S", 1);
        let c = sig.add_constant("c");
        let sig = Arc::new(sig);
        let build = |d: &mut Structure| {
            let cc = d.node_for_const(c);
            let x = d.fresh_node();
            let y = d.fresh_node();
            d.add(r, vec![cc, x]);
            d.add(r, vec![x, y]);
            d.add(r, vec![cc, y]);
            d.add(s, vec![y]);
        };
        let mut fresh = Structure::new(Arc::clone(&sig));
        build(&mut fresh);

        // Different earlier contents: more nodes, other atoms, S first.
        let mut reused = Structure::new(Arc::clone(&sig));
        let nodes: Vec<Node> = (0..4).map(|_| reused.fresh_node()).collect();
        reused.add(s, vec![nodes[3]]);
        reused.add(r, vec![nodes[2], nodes[1]]);
        reused.add(r, vec![nodes[0], nodes[3]]);
        let (uid0, epoch0) = (reused.uid(), reused.epoch());
        reused.clear();
        assert_ne!(reused.uid(), uid0);
        assert!(reused.epoch() > epoch0);
        assert_eq!((reused.atom_count(), reused.node_count()), (0, 0));
        assert_eq!(reused.existing_const_node(c), None);
        build(&mut reused);

        assert_ne!(reused.uid(), fresh.uid());
        assert_eq!(reused.atoms(), fresh.atoms());
        assert_eq!(reused.node_count(), fresh.node_count());
        assert_eq!(reused.existing_const_node(c), fresh.existing_const_node(c));
        for row in 0..fresh.atom_count() as u32 {
            assert_eq!(reused.args_of(row), fresh.args_of(row));
        }
        for p in [r, s] {
            assert_eq!(reused.pred_index(p), fresh.pred_index(p));
            for pos in 0..sig.arity(p) as u8 {
                assert_eq!(reused.column(p, pos), fresh.column(p, pos));
                assert_eq!(reused.distinct_count(p, pos), fresh.distinct_count(p, pos));
                for n in fresh.nodes() {
                    assert_eq!(
                        reused.pred_pos_node_index(p, pos, n),
                        fresh.pred_pos_node_index(p, pos, n)
                    );
                }
            }
        }
    }

    #[test]
    fn substructure_checks() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d1 = Structure::new(Arc::clone(&sig));
        let a = d1.fresh_node();
        let b = d1.fresh_node();
        d1.add(r, vec![a, b]);
        let mut d2 = d1.clone();
        d2.add(r, vec![b, b]);
        assert!(d1.is_substructure_of(&d2));
        assert!(!d2.is_substructure_of(&d1));
    }

    #[test]
    fn absorb_shares_constants_and_freshens_the_rest() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let c = sig.constant("c").unwrap();
        let mut d1 = Structure::new(Arc::clone(&sig));
        let cc = d1.node_for_const(c);
        let x = d1.fresh_node();
        d1.add(r, vec![cc, x]);
        let mut d2 = Structure::new(Arc::clone(&sig));
        let cc2 = d2.node_for_const(c);
        let y = d2.fresh_node();
        d2.add(r, vec![cc2, y]);
        let map = d1.absorb(&d2);
        assert_eq!(map[&cc2], cc, "constant nodes are identified");
        assert_ne!(map[&y], x, "ordinary nodes stay disjoint");
        assert_eq!(d1.atom_count(), 2);
    }

    #[test]
    fn quotient_folds_nodes() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let b2 = d.fresh_node();
        d.add(r, vec![a, b]);
        d.add(r, vec![a, b2]);
        // fold b2 onto b
        let (q, map) = d.quotient(|n| if n == b2 { b } else { n });
        assert_eq!(map[&b], map[&b2]);
        assert_eq!(q.atom_count(), 1, "the two atoms collapse");
    }

    #[test]
    fn filter_and_map_predicates() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let g = sig.add_predicate("G_R", 2);
        let sig = Arc::new(sig);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, vec![a, b]);
        d.add(g, vec![b, a]);
        let only_r = d.filter_atoms(|at| at.pred == r);
        assert_eq!(only_r.atom_count(), 1);
        assert_eq!(only_r.node_count(), d.node_count(), "domain preserved");
        let swapped = d.map_predicates(Arc::clone(&sig), |p| if p == r { g } else { r });
        assert!(swapped.contains(g, &[a, b]));
        assert!(swapped.contains(r, &[b, a]));
    }

    #[test]
    #[should_panic(expected = "atom over `R` has 3 arguments, expected 2")]
    fn add_atom_arity_panic_names_predicate_and_both_arities() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        d.add(r, vec![a, a, a]);
    }

    #[test]
    fn active_nodes_excludes_isolated() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let _isolated = d.fresh_node();
        d.add(r, vec![a, b]);
        let act = d.active_nodes();
        assert_eq!(act.len(), 2);
        assert!(act.contains(&a) && act.contains(&b));
    }
}
