//! A native strict total order over `n` events (see
//! [`crate::Solver::add_total_order`]).
//!
//! Each unordered event pair `{x, y}` has one *pair variable*; its value
//! orients the pair. Instead of the `2·C(n,3)` transitivity clauses of a
//! CNF encoding, the solver keeps a dense `n×n` value matrix of the
//! pairs and, whenever a pair is assigned, scans the two matrix rows of
//! its endpoints for the orderings it forces (`solver.rs`). A forced pair
//! is enqueued with the [`ORDER_REASON`] sentinel and its middle event;
//! its reason clause — always one of the paper's transitivity clauses —
//! is built only when conflict analysis resolves on it, and cached per
//! triple and orientation.

use std::collections::HashMap;

use crate::clause::ClauseRef;
use crate::types::{Lit, Var};

/// The reason of a pair implied by the order scan whose transitivity
/// clause has not been built yet; the middle event is in
/// [`TotalOrder::mid`].
pub(crate) const ORDER_REASON: ClauseRef = ClauseRef::SENTINEL;

/// `edge` entry of a variable that orders no pair.
const NO_EDGE: (u32, u32) = (u32::MAX, u32::MAX);

/// The order constraint's state; empty (`n == 0`) on a solver without one.
#[derive(Debug, Default)]
pub(crate) struct TotalOrder {
    n: usize,
    /// `value[x * n + y]`: 1 once `x < y` holds, -1 once `y < x` holds,
    /// 0 while the pair is unassigned (the diagonal stays 0).
    value: Vec<i8>,
    /// `lits[x * n + y]`: the literal of `x < y`.
    lits: Vec<Lit>,
    /// Per variable: the edge `(a, b)` its *true* value asserts
    /// (`a < b`), or [`NO_EDGE`]; only as long as the last pair variable.
    edge: Vec<(u32, u32)>,
    /// Per variable: the middle event `m` of a pair implied as
    /// `a < m ∧ m < b ⇒ a < b` (meaningful while its reason is
    /// [`ORDER_REASON`]).
    pub mid: Vec<u32>,
    /// Built transitivity clauses by [`TotalOrder::key`].
    pub explained: HashMap<u64, ClauseRef>,
}

impl TotalOrder {
    /// The constraint over `n` events whose pair `x < y` (for `x < y`) is
    /// the literal `pair(x, y)`; every pair needs its own variable.
    pub fn new(n: usize, mut pair: impl FnMut(usize, usize) -> Lit) -> Self {
        let mut lits = vec![Lit(0); n * n];
        let mut edge: Vec<(u32, u32)> = Vec::new();
        for x in 0..n {
            for y in x + 1..n {
                let l = pair(x, y);
                lits[x * n + y] = l;
                lits[y * n + x] = !l;
                let v = l.var().index();
                if edge.len() <= v {
                    edge.resize(v + 1, NO_EDGE);
                }
                assert_eq!(edge[v], NO_EDGE, "every event pair needs its own variable");
                let (x, y) = (x as u32, y as u32);
                edge[v] = if l.sign() { (x, y) } else { (y, x) };
            }
        }
        TotalOrder {
            n,
            value: vec![0; n * n],
            lits,
            mid: vec![0; edge.len()],
            edge,
            explained: HashMap::new(),
        }
    }

    /// Number of ordered events.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The edge `(a, b)` meaning `a < b` that the true literal `l`
    /// asserts, if `l` is a pair literal.
    #[inline]
    pub fn edge(&self, l: Lit) -> Option<(usize, usize)> {
        match self.edge.get(l.var().index()) {
            Some(&(a, b)) if (a, b) != NO_EDGE => Some(if l.sign() {
                (a as usize, b as usize)
            } else {
                (b as usize, a as usize)
            }),
            _ => None,
        }
    }

    /// The literal of `a < b`.
    #[inline]
    pub fn lit(&self, a: usize, b: usize) -> Lit {
        self.lits[a * self.n + b]
    }

    /// The matrix entry of `a < b` (1 true, -1 false, 0 unassigned).
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> i8 {
        self.value[a * self.n + b]
    }

    /// Records the assignment of `l` in the matrix (no-op for a
    /// non-pair literal).
    #[inline]
    pub fn assign(&mut self, l: Lit) {
        if let Some((a, b)) = self.edge(l) {
            self.value[a * self.n + b] = 1;
            self.value[b * self.n + a] = -1;
        }
    }

    /// Clears the matrix entry of `v` (no-op for a non-pair variable).
    #[inline]
    pub fn unassign(&mut self, v: Var) {
        if let Some((a, b)) = self.edge(v.positive()) {
            self.value[a * self.n + b] = 0;
            self.value[b * self.n + a] = 0;
        }
    }

    /// Whether some event `z` in `zs` is forced by the edge `u < w`: `w < z`
    /// holds and `u < z` does not yet, or `z < u` holds and `z < w` does
    /// not yet. Both cases read `value[w][z] > value[u][z]` on the two
    /// contiguous rows, which the compiler vectorizes.
    #[inline]
    pub fn any_forced(&self, u: usize, w: usize, zs: std::ops::Range<usize>) -> bool {
        let row_u = &self.value[u * self.n + zs.start..u * self.n + zs.end];
        let row_w = &self.value[w * self.n + zs.start..w * self.n + zs.end];
        row_u
            .iter()
            .zip(row_w)
            .fold(false, |hit, (&uz, &wz)| hit | (wz > uz))
    }

    /// The transitivity clause `a < m ∧ m < b ⇒ a < b`, implied literal
    /// first: the paper's clause excluding the cycle `a → m → b → a`.
    pub fn clause(&self, a: usize, m: usize, b: usize) -> [Lit; 3] {
        [self.lit(a, b), !self.lit(a, m), !self.lit(m, b)]
    }

    /// The cache key of [`TotalOrder::clause`]: its cycle rotated to
    /// start at the smallest event, so the three implications a clause
    /// serves share one entry.
    pub fn key(&self, a: usize, m: usize, b: usize) -> u64 {
        let (x, y, z) = if a < m && a < b {
            (a, m, b)
        } else if m < b {
            (m, b, a)
        } else {
            (b, a, m)
        };
        ((x * self.n + y) * self.n + z) as u64
    }

    /// The variables of the two pairs that implied the true pair literal
    /// `implied` (`a < m` and `m < b` for its edge `a < b`).
    pub fn antecedents(&self, implied: Lit) -> [Var; 2] {
        let (a, b) = self
            .edge(implied)
            .expect("an order reason is a pair literal");
        let m = self.mid[implied.var().index()] as usize;
        [self.lit(a, m).var(), self.lit(m, b).var()]
    }
}
