//! The explicit-state oracle: evaluating a compiled specification
//! against concrete traces and litmus tests by brute force.
//!
//! This replaces the hand-written per-[`Mode`](cf_memmodel::Mode) rule
//! checks of `cf-memmodel` as the reference semantics for spec-defined
//! models: it enumerates linearizations of the events (the existential
//! quantifier over the total memory order `mo`) and accepts a trace iff
//! some order satisfies every axiom plus the value axioms 2–3 of
//! §2.3.2.
//!
//! Axioms whose relations are *static* (no `mo`/`rf`/`co`/`fr`) are
//! evaluated once up front: `order`/`acyclic` axioms become required
//! edges that prune the search, `empty`/`irreflexive` axioms are
//! decided immediately. Dynamic axioms are re-evaluated per candidate
//! order with the derived reads-from relation.
//!
//! Model-independent execution structure is enforced exactly as in the
//! legacy oracle: atomic blocks execute in program order and
//! contiguously, and initial values are read when no store is visible.

use std::collections::{BTreeSet, HashMap};

use cf_lsl::{FenceSem, MemOrder, Value};
use cf_memmodel::{sem_orders, AccessKind, ConcreteTrace, Litmus, LitmusOp, TraceItem};

use crate::ast::{Axiom, AxiomKind, BaseRel, ModelSpec, SetFilter};
use crate::eval::{eval, RelBackend};

/// One event of the normalized program shared by both entry points.
struct PEvent {
    thread: usize,
    pos: usize,
    kind: AccessKind,
    addr: Vec<u32>,
    group: Option<u32>,
    ord: MemOrder,
}

struct PFence {
    thread: usize,
    pos: usize,
    sem: FenceSem,
}

struct Prog {
    events: Vec<PEvent>,
    fences: Vec<PFence>,
}

impl Prog {
    /// Some fence between `x` and `y` (same thread) satisfying `pred`.
    fn fence_between(&self, x: &PEvent, y: &PEvent, pred: impl Fn(FenceSem) -> bool) -> bool {
        self.fences
            .iter()
            .any(|f| f.thread == x.thread && f.pos > x.pos && f.pos < y.pos && pred(f.sem))
    }
}

// ----------------------------------------------------------- backends

/// Static relations only (`mo`-free fragments).
struct StaticCtx<'a> {
    prog: &'a Prog,
}

fn static_base(prog: &Prog, rel: BaseRel, x: usize, y: usize) -> bool {
    let (ex, ey) = (&prog.events[x], &prog.events[y]);
    match rel {
        BaseRel::Po => ex.thread == ey.thread && ex.pos < ey.pos,
        BaseRel::Loc => ex.addr == ey.addr,
        BaseRel::Int => ex.thread == ey.thread && x != y,
        BaseRel::Ext => ex.thread != ey.thread,
        BaseRel::Id => x == y,
        BaseRel::Fence(k) => {
            ex.thread == ey.thread
                && ex.pos < ey.pos
                && prog.fence_between(ex, ey, |sem| match (k, sem) {
                    // Generic `fence`: any fence whose semantics order
                    // this pair of access kinds.
                    (None, sem) => sem_orders(sem, ex.kind, ey.kind),
                    // `fence_xy`: classic fences of that kind only (the
                    // pair's kinds must still match the X-Y signature).
                    (Some(want), FenceSem::Classic(have)) => {
                        want == have && sem_orders(sem, ex.kind, ey.kind)
                    }
                    (Some(_), FenceSem::C11(_)) => false,
                })
        }
        BaseRel::FenceAcq => {
            ex.thread == ey.thread
                && ex.pos < ey.pos
                && prog.fence_between(
                    ex,
                    ey,
                    |sem| matches!(sem, FenceSem::C11(o) if o.is_acquire()),
                )
        }
        BaseRel::FenceRel => {
            ex.thread == ey.thread
                && ex.pos < ey.pos
                && prog.fence_between(
                    ex,
                    ey,
                    |sem| matches!(sem, FenceSem::C11(o) if o.is_release()),
                )
        }
        BaseRel::FenceSc => {
            ex.thread == ey.thread
                && ex.pos < ey.pos
                && prog.fence_between(ex, ey, |sem| sem == FenceSem::C11(MemOrder::SeqCst))
        }
        // Read-modify-write: the load and store halves of one atomic
        // group targeting the same location. This is a *derived* notion
        // — an atomic load/store pair to one address is exactly an RMW
        // in this framework — which keeps it aligned with the CNF
        // backend without a dedicated event field.
        BaseRel::Rmw => {
            ex.kind == AccessKind::Load
                && ey.kind == AccessKind::Store
                && ex.thread == ey.thread
                && ex.pos < ey.pos
                && ex.group.is_some()
                && ex.group == ey.group
                && ex.addr == ey.addr
        }
        BaseRel::Mo | BaseRel::Rf | BaseRel::Co | BaseRel::Fr => {
            panic!("dynamic relation {} in a static context", rel.name())
        }
    }
}

fn in_set(prog: &Prog, set: SetFilter, e: usize) -> bool {
    let ev = &prog.events[e];
    match set {
        SetFilter::Loads => ev.kind == AccessKind::Load,
        SetFilter::Stores => ev.kind == AccessKind::Store,
        SetFilter::All => true,
        SetFilter::Relaxed => ev.ord.is_atomic(),
        SetFilter::Acquire => ev.ord.is_acquire(),
        SetFilter::Release => ev.ord.is_release(),
        SetFilter::SeqCst => ev.ord == MemOrder::SeqCst,
        SetFilter::NonAtomic => ev.ord == MemOrder::Plain,
    }
}

impl RelBackend for StaticCtx<'_> {
    type C = bool;
    fn n(&self) -> usize {
        self.prog.events.len()
    }
    fn tt(&self) -> bool {
        true
    }
    fn ff(&self) -> bool {
        false
    }
    fn is_ff(&self, c: &bool) -> bool {
        !*c
    }
    fn and(&mut self, a: bool, b: bool) -> bool {
        a && b
    }
    fn or(&mut self, a: bool, b: bool) -> bool {
        a || b
    }
    fn not(&mut self, a: bool) -> bool {
        !a
    }
    fn base(&mut self, rel: BaseRel, x: usize, y: usize) -> bool {
        static_base(self.prog, rel, x, y)
    }
    fn in_set(&self, set: SetFilter, e: usize) -> bool {
        in_set(self.prog, set, e)
    }
}

/// All relations, given a candidate order and the derived reads-from
/// sources (`rf_src[l] = Some(store)`; `None` means `l` reads the
/// initial value).
struct DynCtx<'a> {
    prog: &'a Prog,
    pos: &'a [usize],
    rf_src: &'a [Option<usize>],
}

impl RelBackend for DynCtx<'_> {
    type C = bool;
    fn n(&self) -> usize {
        self.prog.events.len()
    }
    fn tt(&self) -> bool {
        true
    }
    fn ff(&self) -> bool {
        false
    }
    fn is_ff(&self, c: &bool) -> bool {
        !*c
    }
    fn and(&mut self, a: bool, b: bool) -> bool {
        a && b
    }
    fn or(&mut self, a: bool, b: bool) -> bool {
        a || b
    }
    fn not(&mut self, a: bool) -> bool {
        !a
    }
    fn base(&mut self, rel: BaseRel, x: usize, y: usize) -> bool {
        let (ex, ey) = (&self.prog.events[x], &self.prog.events[y]);
        match rel {
            BaseRel::Mo => x != y && self.pos[x] < self.pos[y],
            BaseRel::Rf => ey.kind == AccessKind::Load && self.rf_src[y] == Some(x),
            BaseRel::Co => {
                ex.kind == AccessKind::Store
                    && ey.kind == AccessKind::Store
                    && ex.addr == ey.addr
                    && x != y
                    && self.pos[x] < self.pos[y]
            }
            BaseRel::Fr => {
                ex.kind == AccessKind::Load
                    && ey.kind == AccessKind::Store
                    && ex.addr == ey.addr
                    && match self.rf_src[x] {
                        // Reading the initial value: fr-before every
                        // same-address store.
                        None => true,
                        Some(s0) => s0 != y && self.pos[s0] < self.pos[y],
                    }
            }
            _ => static_base(self.prog, rel, x, y),
        }
    }
    fn in_set(&self, set: SetFilter, e: usize) -> bool {
        in_set(self.prog, set, e)
    }
}

// ------------------------------------------------- static compilation

struct CompiledStatic<'s> {
    /// Required `x <mo y` edges from static `order`/`acyclic` axioms,
    /// plus atomic-block internal program order.
    edges: Vec<(usize, usize)>,
    /// Axioms needing per-order evaluation.
    dynamic: Vec<&'s Axiom>,
    /// A static axiom is violated by the program text alone: no
    /// execution is allowed.
    impossible: bool,
}

fn compile_static<'s>(spec: &'s ModelSpec, prog: &Prog) -> CompiledStatic<'s> {
    let n = prog.events.len();
    let mut out = CompiledStatic {
        edges: Vec::new(),
        dynamic: Vec::new(),
        impossible: false,
    };
    for ax in &spec.axioms {
        if !ax.rel.is_static() {
            out.dynamic.push(ax);
            continue;
        }
        let m = eval(&mut StaticCtx { prog }, &ax.rel);
        match ax.kind {
            AxiomKind::Order | AxiomKind::Acyclic => {
                for (x, row) in m.iter().enumerate() {
                    for (y, &member) in row.iter().enumerate() {
                        if !member {
                            continue;
                        }
                        if x == y {
                            out.impossible = true;
                        } else {
                            out.edges.push((x, y));
                        }
                    }
                }
            }
            AxiomKind::Irreflexive => {
                if (0..n).any(|x| m[x][x]) {
                    out.impossible = true;
                }
            }
            AxiomKind::Empty => {
                if m.iter().any(|row| row.iter().any(|&c| c)) {
                    out.impossible = true;
                }
            }
        }
    }
    // Atomic blocks execute in program order internally (model
    // independent, as in the legacy oracle).
    for x in 0..n {
        for y in 0..n {
            let (ex, ey) = (&prog.events[x], &prog.events[y]);
            if ex.thread == ey.thread
                && ex.pos < ey.pos
                && ex.group.is_some()
                && ex.group == ey.group
            {
                out.edges.push((x, y));
            }
        }
    }
    out
}

fn dynamic_ok(dynamic: &[&Axiom], prog: &Prog, pos: &[usize], rf_src: &[Option<usize>]) -> bool {
    let n = prog.events.len();
    for ax in dynamic {
        let m = eval(&mut DynCtx { prog, pos, rf_src }, &ax.rel);
        let ok = match ax.kind {
            AxiomKind::Order | AxiomKind::Acyclic => {
                (0..n).all(|x| (0..n).all(|y| !m[x][y] || (x != y && pos[x] < pos[y])))
            }
            AxiomKind::Irreflexive => (0..n).all(|x| !m[x][x]),
            AxiomKind::Empty => m.iter().all(|row| row.iter().all(|&c| !c)),
        };
        if !ok {
            return false;
        }
    }
    true
}

// ------------------------------------------------------- trace oracle

/// Does some total memory order satisfy `spec` for this annotated
/// trace? The spec-driven analogue of
/// [`ConcreteTrace::allowed`](cf_memmodel::ConcreteTrace::allowed).
///
/// # Panics
///
/// Panics if the trace has more than 12 accesses (the search is
/// factorial; the SAT path handles bigger programs).
pub fn trace_allowed(trace: &ConcreteTrace, spec: &ModelSpec) -> bool {
    replay(trace, spec, true).0
}

/// [`trace_allowed`]'s answer and the number of order prefixes its
/// search visited, with or without value pruning.
fn replay(trace: &ConcreteTrace, spec: &ModelSpec, prune_values: bool) -> (bool, u64) {
    let mut events = Vec::new();
    let mut values = Vec::new();
    let mut fences = Vec::new();
    for (t, items) in trace.threads.iter().enumerate() {
        for (i, item) in items.iter().enumerate() {
            match item {
                TraceItem::Access {
                    kind,
                    addr,
                    value,
                    group,
                    ord,
                } => {
                    events.push(PEvent {
                        thread: t,
                        pos: i,
                        kind: *kind,
                        addr: addr.clone(),
                        group: *group,
                        ord: *ord,
                    });
                    values.push(value.clone());
                }
                TraceItem::Fence(k) => fences.push(PFence {
                    thread: t,
                    pos: i,
                    sem: FenceSem::Classic(*k),
                }),
                TraceItem::CFence(o) => fences.push(PFence {
                    thread: t,
                    pos: i,
                    sem: FenceSem::C11(*o),
                }),
            }
        }
    }
    assert!(
        events.len() <= 12,
        "explicit-state check limited to 12 accesses"
    );
    let prog = Prog { events, fences };
    let compiled = compile_static(spec, &prog);
    if compiled.impossible {
        return (false, 0);
    }
    let n = prog.events.len();
    let mut search = TraceSearch {
        prog: &prog,
        values: &values,
        init: &trace.init,
        spec,
        compiled: &compiled,
        prune_values,
        nodes: 0,
    };
    let allowed = search.run(&mut Vec::with_capacity(n), &mut vec![false; n]);
    (allowed, search.nodes)
}

/// The order search behind [`trace_allowed`]: extends a prefix of the
/// memory order one event at a time, respecting the static edges and
/// atomic groups, and checks values and dynamic axioms at each leaf.
struct TraceSearch<'a> {
    prog: &'a Prog,
    values: &'a [Value],
    init: &'a HashMap<Vec<u32>, Value>,
    spec: &'a ModelSpec,
    compiled: &'a CompiledStatic<'a>,
    /// Cut a prefix as soon as one of its loads must read a wrong value
    /// ([`values_possible`]); off only to cross-check the pruning.
    prune_values: bool,
    /// Prefixes visited so far.
    nodes: u64,
}

impl TraceSearch<'_> {
    fn run(&mut self, order: &mut Vec<usize>, used: &mut Vec<bool>) -> bool {
        self.nodes += 1;
        let prog = self.prog;
        let n = prog.events.len();
        if order.len() == n {
            let pos = positions(order);
            let Some(rf_src) =
                trace_values_ok(prog, self.values, self.init, &pos, self.spec.forwarding)
            else {
                return false;
            };
            return dynamic_ok(&self.compiled.dynamic, prog, &pos, &rf_src);
        }
        'next: for c in 0..n {
            if used[c] {
                continue;
            }
            for &(a, b) in &self.compiled.edges {
                if b == c && !used[a] {
                    continue 'next;
                }
            }
            // Atomic group contiguity (as in the legacy oracle): an open
            // group must finish before anything else runs.
            if let Some(&last) = order.last() {
                let open_group = prog.events[last].group.filter(|g| {
                    prog.events.iter().enumerate().any(|(i, e)| {
                        !used[i] && e.group == Some(*g) && e.thread == prog.events[last].thread
                    })
                });
                if let Some(g) = open_group {
                    if prog.events[c].group != Some(g)
                        || prog.events[c].thread != prog.events[last].thread
                    {
                        continue 'next;
                    }
                }
            }
            if self.prune_values
                && !values_possible(
                    prog,
                    self.values,
                    self.init,
                    order,
                    used,
                    c,
                    self.spec.forwarding,
                )
            {
                continue 'next;
            }
            used[c] = true;
            order.push(c);
            let found = self.run(order, used);
            used[c] = false;
            order.pop();
            if found {
                return true;
            }
        }
        false
    }
}

/// Whether every load can still read its annotated value once event `c`
/// is placed next after the prefix `order`. Events placed later come
/// after `c` in the memory order, so:
///
/// - a load `c` with no unplaced store that may forward to it (same
///   thread, earlier in program order, same address) reads the last
///   placed store to its address, or the initial value;
/// - a load still unplaced after a store `c` to its address reads `c` or
///   a store placed later, whatever forwarding does.
///
/// Both are what [`trace_values_ok`] finds for every completion of the
/// prefix, so pruning on a mismatch only skips orders that would fail at
/// the leaf.
fn values_possible(
    prog: &Prog,
    values: &[Value],
    init: &HashMap<Vec<u32>, Value>,
    order: &[usize],
    used: &[bool],
    c: usize,
    forwarding: bool,
) -> bool {
    let ec = &prog.events[c];
    let n = prog.events.len();
    let store_to = |s: usize, addr: &[u32]| {
        let es = &prog.events[s];
        es.kind == AccessKind::Store && es.addr == addr
    };
    if ec.kind == AccessKind::Store {
        return (0..n).all(|l| {
            let el = &prog.events[l];
            used[l]
                || el.kind != AccessKind::Load
                || el.addr != ec.addr
                || values[l] == values[c]
                || (0..n)
                    .any(|s| s != c && !used[s] && store_to(s, &ec.addr) && values[s] == values[l])
        });
    }
    let may_forward = |s: usize| {
        let es = &prog.events[s];
        store_to(s, &ec.addr) && es.thread == ec.thread && es.pos < ec.pos
    };
    if forwarding && (0..n).any(|s| !used[s] && may_forward(s)) {
        return true;
    }
    match order.iter().rev().find(|&&s| store_to(s, &ec.addr)) {
        Some(&s) => values[c] == values[s],
        None => init
            .get(&ec.addr)
            .map_or(values[c] == Value::Undefined, |v| values[c] == *v),
    }
}

fn positions(order: &[usize]) -> Vec<usize> {
    let mut pos = vec![0; order.len()];
    for (p, &e) in order.iter().enumerate() {
        pos[e] = p;
    }
    pos
}

/// Checks the value axioms 2–3 against annotated values and returns the
/// derived reads-from sources on success.
fn trace_values_ok(
    prog: &Prog,
    values: &[Value],
    init: &HashMap<Vec<u32>, Value>,
    pos: &[usize],
    forwarding: bool,
) -> Option<Vec<Option<usize>>> {
    let n = prog.events.len();
    let mut rf_src = vec![None; n];
    for l in 0..n {
        let el = &prog.events[l];
        if el.kind != AccessKind::Load {
            continue;
        }
        let mut max_store: Option<usize> = None;
        for s in 0..n {
            let es = &prog.events[s];
            if es.kind != AccessKind::Store || es.addr != el.addr {
                continue;
            }
            let before_m = pos[s] < pos[l];
            let forwarded = forwarding && es.thread == el.thread && es.pos < el.pos;
            if before_m || forwarded {
                max_store = Some(match max_store {
                    None => s,
                    Some(m) if pos[s] > pos[m] => s,
                    Some(m) => m,
                });
            }
        }
        let expected = match max_store {
            Some(s) => values[s].clone(),
            None => init.get(&el.addr).cloned().unwrap_or(Value::Undefined),
        };
        if values[l] != expected {
            return None;
        }
        rf_src[l] = max_store;
    }
    Some(rf_src)
}

/// Names the axioms that forbid `trace` under `spec`: every axiom whose
/// *individual* removal makes the trace allowed, by its `as` label or a
/// positional fallback. Returns the empty vector when the trace is
/// allowed, and the full axiom list when only removing several axioms
/// together admits the trace (a joint violation). A trace rejected by
/// the value axioms alone (no candidate order reproduces the annotated
/// loads, whatever the spec says) has no violated axiom to name and
/// also yields the empty vector.
///
/// This is the diagnostic behind counterexample reports: the checker
/// replays a witness execution against a reference spec and names the
/// axiom the witness breaks.
///
/// # Panics
///
/// Panics if the trace has more than 12 accesses (see
/// [`trace_allowed`]).
pub fn violated_axioms(trace: &ConcreteTrace, spec: &ModelSpec) -> Vec<String> {
    if trace_allowed(trace, spec) {
        return Vec::new();
    }
    let name_of = |i: usize, ax: &Axiom| {
        ax.label
            .clone()
            .unwrap_or_else(|| format!("{} axiom #{i}", ax.kind.name()))
    };
    let mut blocking = Vec::new();
    for i in 0..spec.axioms.len() {
        let mut reduced = spec.clone();
        reduced.axioms.remove(i);
        if trace_allowed(trace, &reduced) {
            blocking.push(name_of(i, &spec.axioms[i]));
        }
    }
    if !blocking.is_empty() {
        return blocking;
    }
    // No single axiom is responsible. If the axioms are jointly to
    // blame (the trace satisfies the value axioms under *some* order),
    // report all of them; otherwise the rejection is value-level.
    let mut bare = spec.clone();
    bare.axioms.clear();
    if trace_allowed(trace, &bare) {
        spec.axioms
            .iter()
            .enumerate()
            .map(|(i, ax)| name_of(i, ax))
            .collect()
    } else {
        Vec::new()
    }
}

// ------------------------------------------------------ litmus oracle

/// Enumerates all final register outcomes allowed by `spec` — the
/// spec-driven analogue of
/// [`Litmus::allowed_outcomes`](cf_memmodel::Litmus::allowed_outcomes).
///
/// # Panics
///
/// Panics if the test has more than 10 accesses.
pub fn litmus_outcomes(test: &Litmus, spec: &ModelSpec) -> BTreeSet<Vec<i64>> {
    let mut events = Vec::new();
    let mut fences = Vec::new();
    let mut store_val = Vec::new();
    let mut load_reg = Vec::new();
    for (t, ops) in test.threads.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            match *op {
                LitmusOp::Store { addr, value, ord } => {
                    events.push(PEvent {
                        thread: t,
                        pos: i,
                        kind: AccessKind::Store,
                        addr: vec![addr],
                        group: None,
                        ord,
                    });
                    store_val.push(value);
                    load_reg.push(None);
                }
                LitmusOp::Load { addr, reg, ord } => {
                    events.push(PEvent {
                        thread: t,
                        pos: i,
                        kind: AccessKind::Load,
                        addr: vec![addr],
                        group: None,
                        ord,
                    });
                    store_val.push(0);
                    load_reg.push(Some(reg));
                }
                LitmusOp::Fence(k) => fences.push(PFence {
                    thread: t,
                    pos: i,
                    sem: FenceSem::Classic(k),
                }),
                LitmusOp::CFence(o) => fences.push(PFence {
                    thread: t,
                    pos: i,
                    sem: FenceSem::C11(o),
                }),
            }
        }
    }
    assert!(
        events.len() <= 10,
        "litmus enumeration limited to 10 accesses"
    );
    let prog = Prog { events, fences };
    let compiled = compile_static(spec, &prog);
    let mut outcomes = BTreeSet::new();
    if compiled.impossible {
        return outcomes;
    }
    let n = prog.events.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    litmus_rec(
        &prog,
        spec,
        &compiled,
        &store_val,
        &load_reg,
        test.num_regs,
        &mut order,
        &mut used,
        &mut outcomes,
    );
    outcomes
}

/// Is the given register outcome possible under `spec`?
pub fn litmus_allows(test: &Litmus, spec: &ModelSpec, outcome: &[i64]) -> bool {
    litmus_outcomes(test, spec).contains(outcome)
}

#[allow(clippy::too_many_arguments)]
fn litmus_rec(
    prog: &Prog,
    spec: &ModelSpec,
    compiled: &CompiledStatic<'_>,
    store_val: &[i64],
    load_reg: &[Option<usize>],
    num_regs: usize,
    order: &mut Vec<usize>,
    used: &mut Vec<bool>,
    outcomes: &mut BTreeSet<Vec<i64>>,
) {
    let n = prog.events.len();
    if order.len() == n {
        let pos = positions(order);
        let mut regs = vec![0i64; num_regs];
        let mut rf_src = vec![None; n];
        for l in 0..n {
            let Some(r) = load_reg[l] else { continue };
            let el = &prog.events[l];
            let mut best: Option<usize> = None;
            for s in 0..n {
                let es = &prog.events[s];
                if es.kind != AccessKind::Store || es.addr != el.addr {
                    continue;
                }
                let visible = pos[s] < pos[l]
                    || (spec.forwarding && es.thread == el.thread && es.pos < el.pos);
                if visible {
                    best = Some(match best {
                        None => s,
                        Some(b) if pos[s] > pos[b] => s,
                        Some(b) => b,
                    });
                }
            }
            regs[r] = best.map_or(0, |s| store_val[s]);
            rf_src[l] = best;
        }
        if dynamic_ok(&compiled.dynamic, prog, &pos, &rf_src) {
            outcomes.insert(regs);
        }
        return;
    }
    'next: for c in 0..n {
        if used[c] {
            continue;
        }
        for &(a, b) in &compiled.edges {
            if b == c && !used[a] {
                continue 'next;
            }
        }
        used[c] = true;
        order.push(c);
        litmus_rec(
            prog, spec, compiled, store_val, load_reg, num_regs, order, used, outcomes,
        );
        used[c] = false;
        order.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::compile;
    use cf_lsl::FenceKind;
    use cf_memmodel::{litmus, Mode};

    #[test]
    fn order_po_is_sequential_consistency() {
        let sc = compile("model sc\norder po").expect("checks");
        let sb = litmus::store_buffering();
        assert!(!litmus_allows(&sb, &sc, &[0, 0]));
        assert_eq!(litmus_outcomes(&sb, &sc), sb.allowed_outcomes(Mode::Sc));
    }

    #[test]
    fn rf_based_sc_formulation_matches_order_po() {
        // The classic `acyclic (po | rf | co | fr)` SC formulation:
        // under the total-order semantics with forwarding off, the
        // communication edges are implied, so it coincides with
        // `order po`.
        let sc = compile("model sc_rf\nacyclic po | rf | co | fr").expect("checks");
        for t in litmus::all() {
            assert_eq!(
                litmus_outcomes(&t, &sc),
                t.allowed_outcomes(Mode::Sc),
                "{}",
                t.name
            );
        }
    }

    #[test]
    fn fence_free_spec_ignores_fences() {
        // A spec without `fence` in its ordering axiom treats fences as
        // no-ops — the fence-semantics-experiment use case.
        let weak =
            compile("model weak\noption forwarding\norder (po ; [W]) & loc").expect("checks");
        let fenced = litmus::store_buffering_fenced();
        assert!(
            litmus_allows(&fenced, &weak, &[0, 0]),
            "fences are inert without a fence axiom"
        );
        let with_fence =
            compile("model weak_f\noption forwarding\norder ((po ; [W]) & loc) | fence")
                .expect("checks");
        assert!(!litmus_allows(&fenced, &with_fence, &[0, 0]));
    }

    #[test]
    fn empty_axiom_forbids_executions() {
        let spec = compile("model none\norder po\nempty po").expect("checks");
        let sb = litmus::store_buffering();
        assert!(litmus_outcomes(&sb, &spec).is_empty());
    }

    #[test]
    fn dynamic_empty_axiom_restricts_reads() {
        // `empty rf & ext`: no load may read another thread's store.
        let spec = compile("model local\norder po\nempty rf & ext").expect("checks");
        let mp = litmus::message_passing();
        let out = litmus_outcomes(&mp, &spec);
        assert!(out.contains(&vec![0, 0]), "init reads remain");
        assert!(!out.contains(&vec![1, 1]), "cross-thread reads forbidden");
    }

    #[test]
    fn violated_axioms_names_the_blocking_axiom() {
        // A fenced message-passing trace with a stale data read: the
        // bundled relaxed spec (whose single axiom carries the label
        // `same_address_stores`) forbids it through the fence edges of
        // that axiom — and removal-flipping names exactly it.
        use crate::bundled;
        use cf_lsl::Value;
        let relaxed = compile(bundled::RELAXED).expect("bundled relaxed compiles");
        let trace = ConcreteTrace {
            threads: vec![
                vec![
                    TraceItem::Access {
                        kind: AccessKind::Store,
                        addr: vec![0],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    TraceItem::Fence(FenceKind::StoreStore),
                    TraceItem::Access {
                        kind: AccessKind::Store,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
                vec![
                    TraceItem::Access {
                        kind: AccessKind::Load,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    TraceItem::Fence(FenceKind::LoadLoad),
                    TraceItem::Access {
                        kind: AccessKind::Load,
                        addr: vec![0],
                        value: Value::Int(0),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
            ],
            init: HashMap::from([(vec![0], Value::Int(0)), (vec![1], Value::Int(0))]),
        };
        assert!(!trace_allowed(&trace, &relaxed));
        assert_eq!(
            violated_axioms(&trace, &relaxed),
            vec!["same_address_stores".to_string()]
        );
        // The unfenced variant of the same trace is allowed: nothing to
        // blame.
        let mut unfenced = trace.clone();
        for t in &mut unfenced.threads {
            t.retain(|i| !matches!(i, TraceItem::Fence(_)));
        }
        for (i, items) in unfenced.threads.iter().enumerate() {
            assert_eq!(items.len(), 2, "thread {i}");
        }
        assert!(violated_axioms(&unfenced, &relaxed).is_empty());
    }

    #[test]
    fn trace_oracle_checks_values_and_fences() {
        use cf_lsl::Value;
        let relaxed =
            compile("model relaxed\noption forwarding\norder (((po ; [W]) & loc) | fence)")
                .expect("checks");
        let mk = |data_read: i64| ConcreteTrace {
            threads: vec![
                vec![
                    TraceItem::Access {
                        kind: AccessKind::Store,
                        addr: vec![0],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    TraceItem::Fence(FenceKind::StoreStore),
                    TraceItem::Access {
                        kind: AccessKind::Store,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
                vec![
                    TraceItem::Access {
                        kind: AccessKind::Load,
                        addr: vec![1],
                        value: Value::Int(1),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                    TraceItem::Fence(FenceKind::LoadLoad),
                    TraceItem::Access {
                        kind: AccessKind::Load,
                        addr: vec![0],
                        value: Value::Int(data_read),
                        group: None,
                        ord: MemOrder::Plain,
                    },
                ],
            ],
            init: HashMap::from([(vec![0], Value::Int(0)), (vec![1], Value::Int(0))]),
        };
        assert!(trace_allowed(&mk(1), &relaxed));
        assert!(
            !trace_allowed(&mk(0), &relaxed),
            "fenced MP forbids stale read"
        );
    }

    /// A small deterministic generator for the randomized trace tests.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    fn access(kind: AccessKind, addr: u32, value: i64, ord: MemOrder) -> TraceItem {
        TraceItem::Access {
            kind,
            addr: vec![addr],
            value: cf_lsl::Value::Int(value),
            group: None,
            ord,
        }
    }

    #[test]
    fn value_pruning_keeps_every_answer() {
        // Random traces of up to seven accesses over two addresses, with
        // fences and C11 annotations, under every bundled spec: the
        // pruned search answers exactly as the plain one and never
        // visits more prefixes.
        use crate::bundled;
        use cf_lsl::Value;
        let specs: Vec<ModelSpec> = [
            bundled::SERIAL,
            bundled::SC,
            bundled::TSO,
            bundled::PSO,
            bundled::RELAXED,
            bundled::C11,
            bundled::RC11,
        ]
        .iter()
        .map(|src| compile(src).expect("bundled spec compiles"))
        .collect();
        let fences = [
            FenceKind::LoadLoad,
            FenceKind::LoadStore,
            FenceKind::StoreLoad,
            FenceKind::StoreStore,
        ];
        let mut rng = Lcg(0x5eed);
        let (mut allowed, mut pruned_nodes, mut plain_nodes) = (0, 0, 0);
        for _ in 0..300 {
            let mut accesses = 0;
            let threads: Vec<Vec<TraceItem>> = (0..2 + rng.below(2))
                .map(|_| {
                    (0..1 + rng.below(3))
                        .filter_map(|_| {
                            if rng.below(6) == 0 {
                                return Some(TraceItem::Fence(fences[rng.below(4) as usize]));
                            }
                            if accesses == 7 {
                                return None;
                            }
                            accesses += 1;
                            let addr = rng.below(2) as u32;
                            Some(if rng.below(2) == 0 {
                                let ord = [MemOrder::Plain, MemOrder::Release, MemOrder::SeqCst]
                                    [rng.below(3) as usize];
                                access(AccessKind::Store, addr, 1 + rng.below(2) as i64, ord)
                            } else {
                                let ord = [MemOrder::Plain, MemOrder::Acquire, MemOrder::SeqCst]
                                    [rng.below(3) as usize];
                                access(AccessKind::Load, addr, rng.below(3) as i64, ord)
                            })
                        })
                        .collect()
                })
                .collect();
            let trace = ConcreteTrace {
                threads,
                init: HashMap::from([(vec![0], Value::Int(0)), (vec![1], Value::Int(0))]),
            };
            for spec in &specs {
                let (ok, pruned) = replay(&trace, spec, true);
                let (want, plain) = replay(&trace, spec, false);
                assert_eq!(ok, want, "{} on {trace:?}", spec.name);
                assert!(pruned <= plain, "{} on {trace:?}", spec.name);
                allowed += usize::from(ok);
                pruned_nodes += pruned;
                plain_nodes += plain;
            }
        }
        let checks = 300 * specs.len();
        assert!(
            allowed > checks / 10 && allowed < checks * 9 / 10,
            "{allowed}"
        );
        assert!(
            pruned_nodes * 2 < plain_nodes,
            "{pruned_nodes} vs {plain_nodes}"
        );
    }

    #[test]
    fn value_pruning_waits_for_forwarding_stores() {
        // Store buffering where each thread reads its own store early:
        // TSO allows it only with each such load placed before the store
        // it forwards from, so the pruning must not judge a load while a
        // store that may forward to it is still unplaced.
        use cf_lsl::Value;
        let thread = |own: u32, other: u32| {
            vec![
                access(AccessKind::Store, own, 1, MemOrder::Plain),
                access(AccessKind::Load, own, 1, MemOrder::Plain),
                access(AccessKind::Load, other, 0, MemOrder::Plain),
            ]
        };
        let trace = ConcreteTrace {
            threads: vec![thread(0, 1), thread(1, 0)],
            init: HashMap::from([(vec![0], Value::Int(0)), (vec![1], Value::Int(0))]),
        };
        let tso = compile(crate::bundled::TSO).expect("bundled tso compiles");
        assert!(replay(&trace, &tso, false).0);
        assert!(trace_allowed(&trace, &tso));
        let sc = compile(crate::bundled::SC).expect("bundled sc compiles");
        assert!(!trace_allowed(&trace, &sc));
    }

    #[test]
    fn value_pruning_bounds_the_replay_of_a_large_trace() {
        // Twelve accesses: three threads each store their own value to
        // one location and load two of the others'. Without axioms every
        // order of the twelve is a candidate (12! leaves); the annotated
        // values pin which store each load follows, so the pruned search
        // must decide the trace from a small part of that space. This
        // is the shape of the serializability replay behind
        // counterexample reports, which removes axioms one at a time.
        use cf_lsl::Value;
        let thread = |t: u32| {
            let (a, b) = ((t + 1) % 3, (t + 2) % 3);
            vec![
                access(AccessKind::Store, t, i64::from(t) + 1, MemOrder::Plain),
                access(AccessKind::Load, a, i64::from(a) + 1, MemOrder::Plain),
                access(AccessKind::Store, t + 3, i64::from(t) + 1, MemOrder::Plain),
                access(AccessKind::Load, b + 3, 0, MemOrder::Plain),
            ]
        };
        let trace = ConcreteTrace {
            threads: (0..3).map(thread).collect(),
            init: (0..6).map(|l| (vec![l], Value::Int(0))).collect(),
        };
        let bare = compile("model bare").expect("checks");
        let sc = compile(crate::bundled::SC).expect("bundled sc compiles");
        let (allowed, nodes) = replay(&trace, &bare, true);
        assert!(allowed);
        assert!(nodes < 1_000, "{nodes} prefixes");
        let (allowed, nodes) = replay(&trace, &sc, true);
        assert!(
            !allowed,
            "each thread reads a store the next one makes later"
        );
        assert!(nodes < 1_000, "{nodes} prefixes");
    }
}
