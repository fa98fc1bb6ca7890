//! CNF construction: Tseitin gates and bitvector circuits.
//!
//! The encoder lowers the term DAG and the memory-model axioms through
//! this builder into the clause database of the [`cf_sat::Solver`]. Gates
//! are cached structurally, constants fold away, and bitvectors are
//! little-endian `Vec<Lit>`s.
//!
//! Conjunctions and disjunctions of any width are *one* gate:
//! [`CnfBuilder::and_many`] defines a k-input AND with one fresh
//! variable and `k + 1` clauses, where a chain of binary ANDs would
//! spend `k − 1` variables and `3(k − 1)` clauses, and make every
//! propagation cascade walk each link. A multiplexer
//! ([`CnfBuilder::ite`]) is likewise one variable, with two redundant
//! clauses that keep unit propagation as strong as the three-gate form.
//! The caches only answer lookups and are never iterated, so the
//! clause order depends on the call order alone.

use std::hash::{Hash, Hasher};

use cf_sat::{Lit, Solver};

use crate::fxhash::{FxHashMap, FxHasher};

/// A CNF builder wrapping an incremental SAT solver.
#[derive(Debug)]
pub struct CnfBuilder {
    /// The underlying solver (exposed for solving and model queries).
    pub solver: Solver,
    true_lit: Lit,
    // Gate caches use FxHash: they are hit once per gate on the encode
    // hot path, where SipHash is measurably slower.
    and_cache: FxHashMap<(Lit, Lit), Lit>,
    xor_cache: FxHashMap<(Lit, Lit), Lit>,
    /// N-ary conjunctions (three or more inputs): the hash of the
    /// sorted, deduplicated input list → `(start, len, gate)`, the lists
    /// stored back to back in `and_many_inputs` rather than one heap key
    /// per gate. A hash collision leaves the later gate uncached.
    and_many_cache: FxHashMap<u64, (u32, u32, Lit)>,
    and_many_inputs: Vec<Lit>,
    /// Multiplexers keyed on `(c, a, b)` with `c` and `a` positive.
    ite_cache: FxHashMap<(Lit, Lit, Lit), Lit>,
    clauses: u64,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CnfBuilder {
    /// Creates a builder with a constant-true variable reserved.
    pub fn new() -> Self {
        let mut solver = Solver::new();
        let t = solver.new_var().positive();
        solver.add_clause([t]);
        CnfBuilder {
            solver,
            true_lit: t,
            and_cache: FxHashMap::default(),
            xor_cache: FxHashMap::default(),
            and_many_cache: FxHashMap::default(),
            and_many_inputs: Vec::new(),
            ite_cache: FxHashMap::default(),
            clauses: 0,
        }
    }

    /// The constant-true literal.
    pub fn tt(&self) -> Lit {
        self.true_lit
    }

    /// The constant-false literal.
    pub fn ff(&self) -> Lit {
        !self.true_lit
    }

    /// A constant literal.
    pub fn constant(&self, b: bool) -> Lit {
        if b {
            self.tt()
        } else {
            self.ff()
        }
    }

    /// A fresh variable literal.
    pub fn fresh(&mut self) -> Lit {
        self.solver.new_var().positive()
    }

    /// Number of SAT variables allocated.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of clauses emitted through this builder.
    pub fn num_clauses(&self) -> u64 {
        self.clauses
    }

    /// Asserts a clause.
    pub fn clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.clauses += 1;
        self.solver.add_clause(lits);
    }

    /// Asserts a single literal.
    pub fn assert_lit(&mut self, l: Lit) {
        self.clause([l]);
    }

    // --------------------------------------------------------------- gates

    /// `a ∧ b` (cached, constant-folded).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.ff() || b == self.ff() || a == !b {
            return self.ff();
        }
        if a == self.tt() || a == b {
            return b;
        }
        if b == self.tt() {
            return a;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&l) = self.and_cache.get(&key) {
            return l;
        }
        let c = self.fresh();
        self.clause([!c, a]);
        self.clause([!c, b]);
        self.clause([!a, !b, c]);
        self.and_cache.insert(key, c);
        c
    }

    /// `a ∨ b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// `a ⊕ b` (cached, constant-folded).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.ff() {
            return b;
        }
        if b == self.ff() {
            return a;
        }
        if a == self.tt() {
            return !b;
        }
        if b == self.tt() {
            return !a;
        }
        if a == b {
            return self.ff();
        }
        if a == !b {
            return self.tt();
        }
        // Canonical key on positive forms; sign folded into result.
        let (ka, fa) = (Lit::from_index(a.index() & !1), !a.sign());
        let (kb, fb) = (Lit::from_index(b.index() & !1), !b.sign());
        let flip = fa ^ fb;
        let key = if ka < kb { (ka, kb) } else { (kb, ka) };
        let base = if let Some(&l) = self.xor_cache.get(&key) {
            l
        } else {
            let c = self.fresh();
            self.clause([!c, ka, kb]);
            self.clause([!c, !ka, !kb]);
            self.clause([c, !ka, kb]);
            self.clause([c, ka, !kb]);
            self.xor_cache.insert(key, c);
            c
        };
        if flip {
            !base
        } else {
            base
        }
    }

    /// `a ↔ b`.
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// `if c then a else b` (cached, constant-folded).
    ///
    /// A non-degenerate mux is one fresh variable `g` with the four
    /// defining clauses plus the two redundant ones `¬a ∨ ¬b ∨ g` and
    /// `a ∨ b ∨ ¬g`, which let unit propagation fix `g` from equal
    /// branches while `c` is still open.
    pub fn ite(&mut self, c: Lit, a: Lit, b: Lit) -> Lit {
        let (tt, ff) = (self.tt(), self.ff());
        if c == tt {
            return a;
        }
        if c == ff {
            return b;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.iff(c, a);
        }
        if a == tt || a == c {
            return self.or(c, b);
        }
        if a == ff || a == !c {
            return self.and(!c, b);
        }
        if b == tt || b == !c {
            return self.or(!c, a);
        }
        if b == ff || b == c {
            return self.and(c, a);
        }
        // Canonical key: `ite(¬c, a, b) = ite(c, b, a)` and
        // `ite(c, ¬a, ¬b) = ¬ite(c, a, b)`.
        let (c, a, b) = if c.sign() { (c, a, b) } else { (!c, b, a) };
        let (a, b, flip) = if a.sign() {
            (a, b, false)
        } else {
            (!a, !b, true)
        };
        let key = (c, a, b);
        let g = if let Some(&g) = self.ite_cache.get(&key) {
            g
        } else {
            let g = self.fresh();
            self.clause([!c, !a, g]);
            self.clause([!c, a, !g]);
            self.clause([c, !b, g]);
            self.clause([c, b, !g]);
            self.clause([!a, !b, g]);
            self.clause([a, b, !g]);
            self.ite_cache.insert(key, g);
            g
        };
        if flip {
            !g
        } else {
            g
        }
    }

    /// Conjunction of many literals: one gate for the whole list
    /// (cached, constant-folded).
    ///
    /// `ff` inputs fold the gate to `ff`, `tt` inputs drop out, and
    /// duplicates merge; a complementary pair gives `ff`. Zero, one or
    /// two remaining inputs give `tt`, the input itself, or the binary
    /// [`CnfBuilder::and`]. Three or more give one fresh `g` with
    /// `¬g ∨ aᵢ` per input and `g ∨ ¬a₁ ∨ … ∨ ¬a_k`.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let (tt, ff) = (self.tt(), self.ff());
        let mut xs: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if l == ff {
                return ff;
            }
            if l != tt {
                xs.push(l);
            }
        }
        xs.sort_unstable();
        xs.dedup();
        // A literal and its negation differ only in the low bit, so
        // sorting makes a complementary pair adjacent.
        if xs.windows(2).any(|w| w[0] == !w[1]) {
            return ff;
        }
        match xs[..] {
            [] => return tt,
            [x] => return x,
            [x, y] => return self.and(x, y),
            _ => {}
        }
        let mut h = FxHasher::default();
        xs.hash(&mut h);
        let key = h.finish();
        let cached = self.and_many_cache.get(&key).copied();
        if let Some((start, len, g)) = cached {
            if self.and_many_inputs[start as usize..][..len as usize] == xs[..] {
                return g;
            }
        }
        let g = self.fresh();
        for &x in &xs {
            self.clause([!g, x]);
        }
        let mut long = Vec::with_capacity(xs.len() + 1);
        long.push(g);
        long.extend(xs.iter().map(|&x| !x));
        self.clause(long);
        if cached.is_none() {
            let start = self.and_many_inputs.len() as u32;
            self.and_many_inputs.extend_from_slice(&xs);
            self.and_many_cache.insert(key, (start, xs.len() as u32, g));
        }
        g
    }

    /// Disjunction of many literals (De Morgan over [`CnfBuilder::and_many`]).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.and_many(&negated)
    }

    // ---------------------------------------------------------- bitvectors

    /// A constant bitvector (little-endian, two's complement).
    pub fn bv_const(&mut self, value: i64, width: usize) -> Vec<Lit> {
        (0..width)
            .map(|i| self.constant(value >> i & 1 == 1))
            .collect()
    }

    /// A fresh bitvector.
    pub fn bv_fresh(&mut self, width: usize) -> Vec<Lit> {
        (0..width).map(|_| self.fresh()).collect()
    }

    /// Bitwise equality (one conjunction over the per-bit `iff`s).
    pub fn bv_eq(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let bits: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| self.iff(x, y)).collect();
        self.and_many(&bits)
    }

    /// Bitwise mux.
    pub fn bv_ite(&mut self, c: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        assert_eq!(a.len(), b.len(), "width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.ite(c, x, y)).collect()
    }

    /// Two's complement addition (wrapping).
    pub fn bv_add(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let mut out = Vec::with_capacity(a.len());
        let mut carry = self.ff();
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            let c1 = self.and(x, y);
            let c2 = self.and(xy, carry);
            carry = self.or(c1, c2);
        }
        out
    }

    /// Two's complement negation.
    pub fn bv_neg(&mut self, a: &[Lit]) -> Vec<Lit> {
        let inverted: Vec<Lit> = a.iter().map(|&l| !l).collect();
        let one = self.bv_const(1, a.len());
        self.bv_add(&inverted, &one)
    }

    /// Two's complement subtraction (wrapping).
    pub fn bv_sub(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb = self.bv_neg(b);
        self.bv_add(a, &nb)
    }

    /// Multiplication (wrapping, shift-and-add).
    pub fn bv_mul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let w = a.len();
        let mut acc = self.bv_const(0, w);
        for i in 0..w {
            // partial = (a << i) masked by b[i]
            let mut partial = vec![self.ff(); w];
            for j in 0..w - i {
                partial[i + j] = self.and(a[j], b[i]);
            }
            acc = self.bv_add(&acc, &partial);
        }
        acc
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let mut lt = self.ff();
        for (&x, &y) in a.iter().zip(b) {
            // From LSB to MSB: higher bits dominate.
            let xlty = self.and(!x, y);
            let eq = self.iff(x, y);
            let keep = self.and(eq, lt);
            lt = self.or(xlty, keep);
        }
        lt
    }

    /// Signed less-than (two's complement).
    pub fn bv_slt(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        assert!(!a.is_empty());
        let mut af = a.to_vec();
        let mut bf = b.to_vec();
        // Flip sign bits and compare unsigned.
        let n = af.len();
        af[n - 1] = !af[n - 1];
        bf[n - 1] = !bf[n - 1];
        self.bv_ult(&af, &bf)
    }

    /// Decodes a bitvector from the model (two's complement).
    pub fn bv_value(&self, bits: &[Lit]) -> i64 {
        let mut out: i64 = 0;
        for (i, &l) in bits.iter().enumerate() {
            if self.lit_value(l) {
                if i == bits.len() - 1 {
                    out -= 1 << i;
                } else {
                    out |= 1 << i;
                }
            }
        }
        out
    }

    /// Decodes a bitvector as an unsigned value.
    pub fn bv_value_unsigned(&self, bits: &[Lit]) -> u64 {
        let mut out: u64 = 0;
        for (i, &l) in bits.iter().enumerate() {
            if self.lit_value(l) {
                out |= 1 << i;
            }
        }
        out
    }

    /// The model value of a literal (unassigned variables read as false).
    pub fn lit_value(&self, l: Lit) -> bool {
        self.solver.lit_value_model(l).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sat::SolveResult;

    fn check_sat(b: &mut CnfBuilder) {
        assert_eq!(b.solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn gate_folding() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        assert_eq!(b.and(b.tt(), x), x);
        assert_eq!(b.and(b.ff(), x), b.ff());
        assert_eq!(b.or(b.ff(), x), x);
        assert_eq!(b.xor(b.ff(), x), x);
        assert_eq!(b.xor(b.tt(), x), !x);
        assert_eq!(b.and(x, !x), b.ff());
        assert_eq!(b.xor(x, x), b.ff());
    }

    #[test]
    fn gate_cache_shares() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        assert_eq!(b.and(x, y), b.and(y, x));
        assert_eq!(b.xor(x, y), b.xor(y, x));
        assert_eq!(b.xor(!x, y), !b.xor(x, y), "xor sign folding");
    }

    /// Checks that under every assignment of `vars`, `gate` is forced to
    /// `expected(assignment)`: the assignment with the expected value is
    /// satisfiable and the assignment with the other value is not.
    fn assert_truth_table(
        b: &mut CnfBuilder,
        vars: &[Lit],
        gate: Lit,
        expected: impl Fn(&dyn Fn(Lit) -> bool) -> bool,
        what: &str,
    ) {
        let (tt, ff) = (b.tt(), b.ff());
        for bits in 0u32..1 << vars.len() {
            let value = |l: Lit| -> bool {
                if l == tt {
                    return true;
                }
                if l == ff {
                    return false;
                }
                let i = vars
                    .iter()
                    .position(|v| v.var() == l.var())
                    .expect("literal over the test variables");
                (bits >> i & 1 == 1) == l.sign()
            };
            let want = expected(&value);
            let mut asm: Vec<Lit> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| if bits >> i & 1 == 1 { v } else { !v })
                .collect();
            asm.push(if want { gate } else { !gate });
            assert_eq!(
                b.solver.solve_with(&asm),
                SolveResult::Sat,
                "{what}: consistent at {bits:b}"
            );
            asm.pop();
            asm.push(if want { !gate } else { gate });
            assert_eq!(
                b.solver.solve_with(&asm),
                SolveResult::Unsat,
                "{what}: forced to {want} at {bits:b}"
            );
        }
    }

    /// Every input list of up to `max_len` entries over `pool`.
    fn lists(pool: &[Lit], max_len: usize) -> Vec<Vec<Lit>> {
        let mut out = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for l in &frontier {
                for &x in pool {
                    let mut l2: Vec<Lit> = l.clone();
                    l2.push(x);
                    next.push(l2);
                }
            }
            out.extend(next.iter().cloned());
            frontier = next;
        }
        out
    }

    #[test]
    fn and_many_or_many_truth_tables() {
        let mut b = CnfBuilder::new();
        let vars: Vec<Lit> = (0..4).map(|_| b.fresh()).collect();
        // Constants, both polarities, duplicates and complementary pairs:
        // every list of up to three entries over this pool.
        let mut pool = vec![b.tt(), b.ff()];
        for &v in &vars[..3] {
            pool.extend([v, !v]);
        }
        let mut inputs = lists(&pool, 3);
        // Four distinct inputs in every polarity.
        for signs in 0u32..16 {
            let l: Vec<Lit> = (0..4)
                .map(|i| {
                    if signs >> i & 1 == 1 {
                        vars[i]
                    } else {
                        !vars[i]
                    }
                })
                .collect();
            inputs.push(l.iter().rev().copied().collect());
            inputs.push(l);
        }
        for l in &inputs {
            let g = b.and_many(l);
            assert_truth_table(&mut b, &vars, g, |v| l.iter().all(|&x| v(x)), "and_many");
            let g = b.or_many(l);
            assert_truth_table(&mut b, &vars, g, |v| l.iter().any(|&x| v(x)), "or_many");
        }
    }

    #[test]
    fn ite_truth_table() {
        let mut b = CnfBuilder::new();
        let vars: Vec<Lit> = (0..3).map(|_| b.fresh()).collect();
        let mut pool = vec![b.tt(), b.ff()];
        for &v in &vars {
            pool.extend([v, !v]);
        }
        // Every (c, a, b) over constants and both polarities of three
        // variables: the degenerate folds (constant or ±c branches,
        // a == ±b) and the canonicalized general case alike.
        for &c in &pool {
            for &x in &pool {
                for &y in &pool {
                    let g = b.ite(c, x, y);
                    assert_truth_table(&mut b, &vars, g, |v| if v(c) { v(x) } else { v(y) }, "ite");
                }
            }
        }
    }

    #[test]
    fn nary_gate_folding_and_caching() {
        let mut b = CnfBuilder::new();
        let (x, y, z) = (b.fresh(), b.fresh(), b.fresh());
        let (tt, ff) = (b.tt(), b.ff());
        // Folds: no gate is built for these.
        let before = b.num_vars();
        assert_eq!(b.and_many(&[]), tt);
        assert_eq!(b.or_many(&[]), ff);
        assert_eq!(b.and_many(&[x, tt, x]), x);
        assert_eq!(b.and_many(&[x, y, ff, z]), ff);
        assert_eq!(b.and_many(&[x, y, !x]), ff);
        assert_eq!(b.or_many(&[x, y, !x]), tt);
        assert_eq!(b.or_many(&[ff, z, ff]), z);
        assert_eq!(b.ite(x, y, y), y);
        assert_eq!(b.ite(tt, y, z), y);
        assert_eq!(b.ite(ff, y, z), z);
        assert_eq!(b.num_vars(), before);
        // Two inputs are the binary gate.
        let xy = b.and(x, y);
        assert_eq!(b.and_many(&[y, tt, x, y]), xy);
        assert_eq!(b.or_many(&[!x, !y]), !xy);
        // Three or more: one fresh variable, shared by every spelling.
        let g = b.and_many(&[x, y, z]);
        let after = b.num_vars();
        assert_eq!(after, before + 2);
        assert_eq!(b.and_many(&[z, x, y, x, tt]), g);
        assert_eq!(b.or_many(&[!y, !z, !x]), !g);
        // Mux: one fresh variable, shared across the canonical forms.
        let m = b.ite(x, y, z);
        assert_eq!(b.num_vars(), after + 1);
        assert_eq!(b.ite(x, y, z), m);
        assert_eq!(b.ite(!x, z, y), m);
        assert_eq!(b.ite(x, !y, !z), !m);
        assert_eq!(b.ite(!x, !z, !y), !m);
        assert_eq!(b.num_vars(), after + 1);
    }

    #[test]
    fn adder_is_correct() {
        // Exhaustive 4-bit addition check via the solver.
        for x in -8i64..8 {
            for y in -8i64..8 {
                let mut b = CnfBuilder::new();
                let bx = b.bv_const(x, 4);
                let by = b.bv_const(y, 4);
                let sum = b.bv_add(&bx, &by);
                check_sat(&mut b);
                let expected = (x + y) & 0xF;
                let got = b.bv_value_unsigned(&sum) as i64;
                assert_eq!(got, expected, "{x} + {y}");
            }
        }
    }

    #[test]
    fn sub_and_mul() {
        for x in 0i64..8 {
            for y in 0i64..8 {
                let mut b = CnfBuilder::new();
                let bx = b.bv_const(x, 6);
                let by = b.bv_const(y, 6);
                let d = b.bv_sub(&bx, &by);
                let m = b.bv_mul(&bx, &by);
                check_sat(&mut b);
                let wrap6 = |v: i64| ((v + 32).rem_euclid(64)) - 32;
                assert_eq!(b.bv_value(&d), wrap6(x - y), "{x} - {y}");
                assert_eq!(b.bv_value(&m), wrap6(x * y), "{x} * {y}");
            }
        }
    }

    #[test]
    fn comparators() {
        for x in -4i64..4 {
            for y in -4i64..4 {
                let mut b = CnfBuilder::new();
                let bx = b.bv_const(x, 3);
                let by = b.bv_const(y, 3);
                let slt = b.bv_slt(&bx, &by);
                let ult = b.bv_ult(&bx, &by);
                check_sat(&mut b);
                assert_eq!(b.lit_value(slt), x < y, "slt {x} {y}");
                let ux = (x as u64) & 7;
                let uy = (y as u64) & 7;
                assert_eq!(b.lit_value(ult), ux < uy, "ult {ux} {uy}");
            }
        }
    }

    #[test]
    fn solve_for_inputs() {
        // x + y == 5 with x, y fresh 4-bit: solver must find a model.
        let mut b = CnfBuilder::new();
        let x = b.bv_fresh(4);
        let y = b.bv_fresh(4);
        let sum = b.bv_add(&x, &y);
        let five = b.bv_const(5, 4);
        let eq = b.bv_eq(&sum, &five);
        b.assert_lit(eq);
        check_sat(&mut b);
        let got = (b.bv_value_unsigned(&x) + b.bv_value_unsigned(&y)) & 0xF;
        assert_eq!(got, 5);
    }
}
