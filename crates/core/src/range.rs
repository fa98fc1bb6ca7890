//! Range analysis (paper §3.4).
//!
//! A lightweight flow-insensitive fixpoint that computes, for every value
//! term, a conservative set of LSL values it may take during any valid
//! execution. The results drive the CNF encoding exactly as in the paper:
//!
//! 1. the integer bitwidth,
//! 2. the maximal pointer depth and offset width,
//! 3. per-event candidate locations (alias pruning), and
//! 4. skipping of impossible store-to-load flows.
//!
//! Load results feed back into the analysis through the store values of
//! possibly-aliasing stores (the paper's propagation rules for loads and
//! stores); iteration proceeds to a fixpoint, with set sizes capped by a
//! budget (sets exceeding it become `Top`).

use std::collections::BTreeSet;

use cf_lsl::Value;
use cf_memmodel::AccessKind;

use crate::symexec::SymExec;
use crate::term::{VTerm, VTermId};

/// A conservative set of possible values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValueSet {
    /// At most these values.
    Finite(BTreeSet<Value>),
    /// Unknown (budget exceeded).
    Top,
}

impl ValueSet {
    /// The empty set (unreachable terms).
    pub fn empty() -> ValueSet {
        ValueSet::Finite(BTreeSet::new())
    }

    /// Singleton.
    pub fn single(v: Value) -> ValueSet {
        ValueSet::Finite(BTreeSet::from([v]))
    }

    /// `true` if the set is `Top`.
    pub fn is_top(&self) -> bool {
        matches!(self, ValueSet::Top)
    }

    /// May the term be a pointer to the given location?
    pub fn may_be_ptr_to(&self, loc: &[u32]) -> bool {
        match self {
            ValueSet::Top => true,
            ValueSet::Finite(s) => s.iter().any(|v| v.as_ptr() == Some(loc)),
        }
    }

    /// May the term be undefined?
    pub fn may_be_undef(&self) -> bool {
        match self {
            ValueSet::Top => true,
            ValueSet::Finite(s) => s.contains(&Value::Undefined),
        }
    }

    /// Do two sets share a value (conservative aliasing)?
    pub fn may_intersect(&self, other: &ValueSet) -> bool {
        match (self, other) {
            (ValueSet::Top, _) | (_, ValueSet::Top) => true,
            (ValueSet::Finite(a), ValueSet::Finite(b)) => {
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                small.iter().any(|v| large.contains(v))
            }
        }
    }

    fn insert(&mut self, v: Value, budget: usize) -> bool {
        match self {
            ValueSet::Top => false,
            ValueSet::Finite(s) => {
                if s.contains(&v) {
                    return false;
                }
                if s.len() >= budget {
                    *self = ValueSet::Top;
                    return true;
                }
                s.insert(v);
                true
            }
        }
    }

    fn union_from(&mut self, other: &ValueSet, budget: usize) -> bool {
        match other {
            ValueSet::Top => {
                if self.is_top() {
                    false
                } else {
                    *self = ValueSet::Top;
                    true
                }
            }
            ValueSet::Finite(vals) => {
                let mut changed = false;
                for v in vals {
                    changed |= self.insert(v.clone(), budget);
                    if self.is_top() {
                        break;
                    }
                }
                changed
            }
        }
    }
}

/// Results of the analysis.
#[derive(Debug)]
pub struct RangeInfo {
    /// Per-term value sets, indexed by [`VTermId`].
    pub sets: Vec<ValueSet>,
    /// Two's-complement bitwidth sufficient for all integers seen.
    pub int_width: usize,
    /// Maximal pointer path length.
    pub max_depth: usize,
    /// Bitwidth sufficient for any path element.
    pub elem_width: usize,
    /// Whether any set degenerated to `Top`.
    pub imprecise: bool,
}

impl RangeInfo {
    /// Set for a term.
    pub fn set(&self, id: VTermId) -> &ValueSet {
        &self.sets[id.0 as usize]
    }
}

const SET_BUDGET: usize = 128;
const PAIR_BUDGET: usize = 4096;

/// Runs the analysis over a symbolic execution.
///
/// When `enabled` is false, every set is `Top` and the widths fall back to
/// coarse defaults — used by the Fig. 11c experiment measuring the impact
/// of range analysis.
pub fn analyze(sx: &SymExec, enabled: bool) -> RangeInfo {
    let n = sx.arena.num_vterms();
    let mut sets: Vec<ValueSet> = if enabled {
        vec![ValueSet::empty(); n]
    } else {
        vec![ValueSet::Top; n]
    };

    if enabled {
        // Initial values for loads are handled through `init_value`; other
        // roots seed directly. Iterate to fixpoint.
        let locations = sx.space.all_scalar_locations(&sx.types);
        // The `(addr, value)` terms of every store, collected once: each
        // load result unions the values of its possibly-aliasing stores
        // in every round.
        let stores: Vec<(usize, usize)> = sx
            .events
            .iter()
            .filter(|e| e.kind == AccessKind::Store)
            .map(|e| (e.addr.0 as usize, e.value.0 as usize))
            .collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                let tid = VTermId(id as u32);
                let new_vals: ValueSet = match sx.arena.vt(tid) {
                    VTerm::Const(v) => ValueSet::single(v.clone()),
                    VTerm::Arg(_) => {
                        ValueSet::Finite(BTreeSet::from([Value::Int(0), Value::Int(1)]))
                    }
                    VTerm::LoadResult(eid) => {
                        // Union of initial values of candidate locations and
                        // the values of possibly-aliasing stores.
                        let load = &sx.events[eid.index()];
                        let addr_set = &sets[load.addr.0 as usize];
                        let mut out = ValueSet::empty();
                        for loc in &locations {
                            if addr_set.may_be_ptr_to(loc) {
                                out.insert(init_value(sx, loc), SET_BUDGET);
                            }
                        }
                        for &(s_addr, s_value) in &stores {
                            if sets[s_addr].may_intersect(addr_set) {
                                out.union_from(&sets[s_value], SET_BUDGET);
                            }
                        }
                        out
                    }
                    VTerm::Prim(op, args) => {
                        let arg_sets: Vec<&ValueSet> =
                            args.iter().map(|a| &sets[a.0 as usize]).collect();
                        apply_prim(*op, &arg_sets)
                    }
                    VTerm::Mux(_, a, b) => {
                        let mut out = sets[a.0 as usize].clone();
                        out.union_from(&sets[b.0 as usize], SET_BUDGET);
                        out
                    }
                };
                let slot = &mut sets[id];
                if slot != &new_vals {
                    changed |= slot.union_from(&new_vals, SET_BUDGET);
                }
            }
            if !changed {
                break;
            }
        }
    }

    // Derive widths.
    let mut min_int: i64 = 0;
    let mut max_int: i64 = 1;
    let mut max_depth = 1usize;
    let mut max_elem = 1u32;
    let mut imprecise = false;
    for s in &sets {
        match s {
            ValueSet::Top => imprecise = true,
            ValueSet::Finite(vals) => {
                for v in vals {
                    match v {
                        Value::Int(n) => {
                            min_int = min_int.min(*n);
                            max_int = max_int.max(*n);
                        }
                        Value::Ptr(p) => {
                            max_depth = max_depth.max(p.len());
                            for &e in p {
                                max_elem = max_elem.max(e);
                            }
                        }
                        Value::Undefined => {}
                    }
                }
            }
        }
    }
    // Fallbacks when imprecise: size for the whole address space.
    for loc in sx.space.all_scalar_locations(&sx.types) {
        if imprecise {
            max_depth = max_depth.max(loc.len());
            for &e in &loc {
                max_elem = max_elem.max(e);
            }
        }
    }
    if imprecise {
        min_int = min_int.min(-(1 << 10));
        max_int = max_int.max(1 << 10);
    }

    let int_width = signed_width(min_int, max_int);
    let elem_width = bits_for(max_elem as u64).max(1);
    RangeInfo {
        sets,
        int_width,
        max_depth,
        elem_width,
        imprecise,
    }
}

/// The initial memory value `i(a)` of a location: globals are
/// zero-initialized (C semantics), heap allocations start undefined
/// (which is how the lazy-list missing-initialization bug is caught).
pub fn init_value(sx: &SymExec, loc: &[u32]) -> Value {
    let base = loc[0] as usize;
    if sx.space.bases[base].is_heap {
        Value::Undefined
    } else {
        Value::Int(0)
    }
}

fn signed_width(min: i64, max: i64) -> usize {
    let mut w = 2;
    while w < 63 {
        let lo = -(1i64 << (w - 1));
        let hi = (1i64 << (w - 1)) - 1;
        if min >= lo && max <= hi {
            return w;
        }
        w += 1;
    }
    64
}

fn bits_for(n: u64) -> usize {
    (64 - n.leading_zeros() as usize).max(1)
}

fn apply_prim(op: cf_lsl::PrimOp, args: &[&ValueSet]) -> ValueSet {
    // Cartesian application with a budget. Each operand set is
    // flattened once, so the product walk indexes in constant time.
    let mut finite: Vec<Vec<&Value>> = Vec::with_capacity(args.len());
    let mut product = 1usize;
    for a in args {
        match a {
            ValueSet::Top => return ValueSet::Top,
            ValueSet::Finite(s) => {
                product = product.saturating_mul(s.len().max(1));
                finite.push(s.iter().collect());
            }
        }
    }
    if product > PAIR_BUDGET {
        return ValueSet::Top;
    }
    let mut out = ValueSet::empty();
    let mut idx = vec![0usize; finite.len()];
    if finite.iter().any(|s| s.is_empty()) {
        return out; // unreachable operand: no values yet
    }
    loop {
        let vals: Vec<Value> = finite
            .iter()
            .zip(&idx)
            .map(|(s, &i)| s[i].clone())
            .collect();
        let v = op.eval(&vals).unwrap_or(Value::Undefined);
        out.insert(v, SET_BUDGET);
        if out.is_top() {
            return out;
        }
        // Advance the mixed-radix counter.
        let mut k = 0;
        loop {
            if k == finite.len() {
                return out;
            }
            idx[k] += 1;
            if idx[k] < finite[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_lsl::PrimOp;

    #[test]
    fn widths() {
        assert_eq!(signed_width(0, 1), 2);
        assert_eq!(signed_width(0, 3), 3);
        assert_eq!(signed_width(-1, 1), 2);
        assert_eq!(signed_width(-2, 1), 2);
        assert_eq!(signed_width(-3, 1), 3);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
    }

    #[test]
    fn value_set_ops() {
        let mut s = ValueSet::empty();
        assert!(s.insert(Value::Int(1), 4));
        assert!(!s.insert(Value::Int(1), 4));
        assert!(s.may_intersect(&ValueSet::single(Value::Int(1))));
        assert!(!s.may_intersect(&ValueSet::single(Value::Int(2))));
        assert!(s.may_intersect(&ValueSet::Top));
        assert!(!s.may_be_undef());
        s.insert(Value::Undefined, 4);
        assert!(s.may_be_undef());
    }

    #[test]
    fn budget_tops_out() {
        let mut s = ValueSet::empty();
        for i in 0..SET_BUDGET as i64 + 1 {
            s.insert(Value::Int(i), SET_BUDGET);
        }
        assert!(s.is_top());
    }

    #[test]
    fn prim_application() {
        let a = ValueSet::Finite(BTreeSet::from([Value::Int(0), Value::Int(1)]));
        let b = ValueSet::Finite(BTreeSet::from([Value::Int(2)]));
        let out = apply_prim(PrimOp::Add, &[&a, &b]);
        assert_eq!(
            out,
            ValueSet::Finite(BTreeSet::from([Value::Int(2), Value::Int(3)]))
        );
        let top = apply_prim(PrimOp::Add, &[&a, &ValueSet::Top]);
        assert!(top.is_top());
    }
}
