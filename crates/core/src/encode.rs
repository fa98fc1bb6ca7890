//! Encoding concurrent executions as propositional formulae (§3.2.1).
//!
//! The encoding has two halves, exactly as in the paper:
//!
//! * **Thread-local formulae Δ** — the term DAG of the symbolic execution
//!   is lowered to circuits: every LSL value becomes a tagged record
//!   (undefined / integer / pointer) whose widths come from the range
//!   analysis; every load result and test argument is a vector of fresh
//!   SAT variables.
//! * **Memory-model formula Θ** — the axioms of §2.3.2. The total memory
//!   order `<M` is encoded either *pairwise* (variables `Mxy`, the
//!   paper's encoding) or via per-event *timestamps* (an equivalent
//!   comparator encoding, provided as an ablation). Pairwise
//!   transitivity is not emitted as the paper's `2·C(n,3)` clauses: it
//!   is the solver's native total order
//!   ([`cf_sat::Solver::add_total_order`]), which builds those clauses
//!   only as the explanations its search needs. Visibility uses the
//!   auxiliary `Init`/`Flows` variables described in the paper.
//!
//! Every wide conjunction is one n-ary gate of the
//! [`CnfBuilder`](crate::cnf::CnfBuilder) rather than a chain of binary
//! ones: `Flows(s, l)` is one AND over `s`'s visibility and the negated
//! shadowing of every other candidate store, `Init(l)` one AND over the
//! negated visibilities, and each visibility term `gₛ ∧ addr_eq ∧ ord`,
//! pointer equality, location selector and bitvector equality one gate
//! each.

use std::collections::{BTreeMap, HashMap};

use cf_lsl::{PrimOp, Value};
use cf_memmodel::{sem_orders, AccessKind, Mode, ModeSet};
use cf_sat::Lit;
use cf_spec::ModelSpec;

use crate::cnf::CnfBuilder;
use crate::range::{init_value, RangeInfo, ValueSet};
use crate::symexec::{ErrorKind, SymExec};
use crate::term::{BTerm, BTermId, VTerm, VTermId};

/// How the total memory order is encoded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OrderEncoding {
    /// Boolean variables `Mxy` per event pair — the paper's encoding
    /// (quadratic variables). Transitivity is the solver's native total
    /// order: no transitivity clause is emitted, and the search builds
    /// only the paper's clauses it needs as explanations.
    #[default]
    Pairwise,
    /// A `⌈log n⌉`-bit clock per event; `x <M y` is a comparator circuit
    /// and totality is pairwise distinctness. Equivalent, and needs no
    /// transitivity constraint at all.
    Timestamp,
}

impl OrderEncoding {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OrderEncoding::Pairwise => "pairwise",
            OrderEncoding::Timestamp => "timestamp",
        }
    }
}

/// An encoded LSL value: tag bits plus integer and pointer payloads.
#[derive(Clone, Debug)]
pub struct EncVal {
    /// Tag: the value is an integer.
    pub t_int: Lit,
    /// Tag: the value is a pointer (mutually exclusive with `t_int`; both
    /// false means undefined).
    pub t_ptr: Lit,
    /// Two's complement integer payload.
    pub int: Vec<Lit>,
    /// Pointer path length (unsigned).
    pub len: Vec<Lit>,
    /// Pointer path elements (`path[i]` meaningful when `i < len`).
    pub path: Vec<Vec<Lit>>,
}

/// A reference to one memory model of a multi-model encoding: either a
/// built-in [`Mode`] or a compiled [`ModelSpec`] by its index in the
/// encoding's spec list.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelSel {
    /// A built-in mode.
    Builtin(Mode),
    /// The `i`-th spec passed to [`Encoding::build_with_specs`] (or
    /// [`EngineConfig::specs`](crate::EngineConfig::specs)).
    Spec(usize),
}

impl From<Mode> for ModelSel {
    fn from(m: Mode) -> ModelSel {
        ModelSel::Builtin(m)
    }
}

/// The full encoding of one test under one or more memory models.
///
/// A single-mode encoding ([`Encoding::build`]) is exactly the paper's
/// Δ ∧ Θ formula. A multi-mode encoding ([`Encoding::build_multi`])
/// additionally gates every mode-dependent Θ clause behind a per-mode
/// *selector literal*, so one persistent solver can answer queries for
/// every mode in the set (selecting a mode is an assumption vector, and
/// learnt clauses not involving the selectors transfer between modes).
/// Candidate fences ([`cf_lsl::Stmt::CandidateFence`]) likewise get
/// per-site *activation literals*, making a fence placement an
/// assumption vector instead of a re-encode.
///
/// Declarative models ([`cf_spec::ModelSpec`]) join the same machinery
/// through [`Encoding::build_with_specs`]: each spec's axioms are
/// compiled to clauses over the shared memory-order variables, gated
/// behind a per-spec selector literal, so user models toggle as
/// assumptions alongside the built-ins.
pub struct Encoding {
    /// The CNF builder / solver.
    pub cnf: CnfBuilder,
    /// The memory models this encoding can answer queries for.
    pub modes: ModeSet,
    /// Order encoding used.
    pub order_encoding: OrderEncoding,
    /// Per-event guard literals.
    pub guards: Vec<Lit>,
    /// Per-event address encodings.
    pub addrs: Vec<EncVal>,
    /// Per-event value encodings.
    pub values: Vec<EncVal>,
    /// All scalar locations of the address space.
    pub locations: Vec<Vec<u32>>,
    /// Per-event location selectors (`sel[e][i]` ⇔ event e targets
    /// `locations[i]`); absent entries are statically impossible.
    /// `BTreeMap` so iteration (and thus clause emission) is
    /// reproducible — a hash map here makes the whole solve
    /// run-to-run nondeterministic.
    pub sel: Vec<BTreeMap<usize, Lit>>,
    /// Observation component encodings (parallel to `sx.obs`).
    pub obs: Vec<EncVal>,
    /// `(lit, kind, label)` per potential error.
    pub errors: Vec<(Lit, ErrorKind, String)>,
    /// Disjunction of all error literals.
    pub error_lit: Lit,
    /// Loop-bound-exceeded flags `(loop key, lit)`.
    pub exceeded: Vec<(String, Lit)>,
    /// Integer width used.
    pub int_width: usize,
    /// Activation literal per candidate fence site (empty unless the
    /// program contains [`cf_lsl::Stmt::CandidateFence`] statements).
    /// Assuming a site's literal activates every unrolling of its fence;
    /// assuming the negation makes the site inert.
    pub fence_acts: BTreeMap<u32, Lit>,
    /// Toggle literal per mutation site (empty unless the program
    /// contains [`cf_lsl::Stmt::Toggle`] statements). Assuming a site's
    /// literal runs the mutant branch of every unrolling of that site;
    /// assuming the negation runs the original branch. The batched
    /// mutation engine ([`crate::mutate`]) selects one mutant per query
    /// this way — the statement-level generalization of `fence_acts`.
    pub toggle_acts: BTreeMap<u32, Lit>,

    /// The declarative models encoded alongside the built-in modes,
    /// in selector order ([`ModelSel::Spec`] indexes this list).
    pub(crate) specs: Vec<ModelSpec>,
    /// Whether this encoding was built for provenance extraction: spec
    /// axiom clauses are additionally gated per-axiom so unsat cores
    /// resolve to axiom names. Off by default — a provenance-free
    /// encoding is clause-for-clause identical to what it always was.
    pub(crate) provenance: bool,
    /// Per-spec, per-axiom gate literals `(label, gate)` (parallel to
    /// `specs[i].axioms`). Empty unless `provenance` is on. A query on
    /// spec `i` must assume every `axiom_acts[i]` gate positively;
    /// non-selected specs' gates are free (their clauses are already
    /// satisfied through the spec selector).
    pub(crate) axiom_acts: Vec<Vec<(String, Lit)>>,

    order: OrderVars,
    /// Cached spec-membership circuits `(spec, no_match lit)` — pure
    /// definitions reused by session inclusion queries with one spec and
    /// many assumption vectors.
    spec_cache: Vec<(crate::checker::ObsSet, Lit)>,
    /// Selector literal per mode (indexed by [`Mode::index`]): `tt` in a
    /// single-model encoding, `ff` for modes outside the set, a fresh
    /// variable per member otherwise.
    mode_sel: [Lit; 5],
    /// Selector literal per declarative model (parallel to `specs`).
    spec_sel: Vec<Lit>,
    /// Reads-from literals `(store, load) → Flows(s, l)` retained from
    /// the value-flow encoding (the `rf` base relation of compiled
    /// specs).
    pub(crate) flows: HashMap<(usize, usize), Lit>,
    /// Per-load `Init(l)` literals (no store visible), for the
    /// initial-value case of the `fr` relation.
    pub(crate) load_init: HashMap<usize, Lit>,
    /// Gate literals per mode group (keyed by the `ModeSet` bitmask).
    group_cache: HashMap<ModeSet, Lit>,
    vcache: HashMap<VTermId, EncVal>,
    bcache: HashMap<BTermId, Lit>,
    addr_eq_cache: HashMap<(VTermId, VTermId), Lit>,
    widths: Widths,
}

#[derive(Clone, Copy, Debug)]
struct Widths {
    int: usize,
    depth: usize,
    elem: usize,
    len: usize,
}

enum OrderVars {
    /// `lits[x * n + y]` is the literal of `x <M y`: a pair variable for
    /// `x < y`, its negation for `x > y`.
    Pairwise {
        n: usize,
        lits: Vec<Lit>,
    },
    Timestamp(Vec<Vec<Lit>>),
}

impl Encoding {
    /// Builds the single-mode encoding of `sx` under `mode` (the paper's
    /// Δ ∧ Θ formula; mode selectors degenerate to constants).
    pub fn build(
        sx: &SymExec,
        range: &RangeInfo,
        mode: Mode,
        order_encoding: OrderEncoding,
    ) -> Encoding {
        Self::build_multi(sx, range, ModeSet::single(mode), order_encoding)
    }

    /// Builds a multi-mode encoding: one CNF answering queries for every
    /// mode in `modes`, with mode-dependent axioms gated behind selector
    /// literals (see [`Encoding::mode_assumptions`]).
    pub fn build_multi(
        sx: &SymExec,
        range: &RangeInfo,
        modes: ModeSet,
        order_encoding: OrderEncoding,
    ) -> Encoding {
        Self::build_with_specs(sx, range, modes, &[], order_encoding)
    }

    /// Builds a multi-model encoding over built-in modes *and* compiled
    /// declarative models: every model (either kind) gets a selector
    /// literal, and a query picks one via [`Encoding::model_assumptions`].
    pub fn build_with_specs(
        sx: &SymExec,
        range: &RangeInfo,
        modes: ModeSet,
        specs: &[ModelSpec],
        order_encoding: OrderEncoding,
    ) -> Encoding {
        Self::build_full(sx, range, modes, specs, order_encoding, false)
    }

    /// [`Encoding::build_with_specs`] with the full option set: when
    /// `provenance` is on, every spec axiom's clauses are additionally
    /// gated behind a fresh per-axiom literal so assumption cores
    /// resolve to axiom names. With `provenance` off the built formula
    /// is identical to [`Encoding::build_with_specs`].
    pub fn build_full(
        sx: &SymExec,
        range: &RangeInfo,
        modes: ModeSet,
        specs: &[ModelSpec],
        order_encoding: OrderEncoding,
        provenance: bool,
    ) -> Encoding {
        assert!(
            !modes.is_empty() || !specs.is_empty(),
            "encoding needs at least one model"
        );
        let widths = Widths {
            int: range.int_width.max(2),
            depth: range.max_depth.max(1),
            elem: range.elem_width.max(1),
            len: bits_for(range.max_depth.max(1) as u64 + 1),
        };
        let mut cnf = CnfBuilder::new();
        // Selector literals: constants when only one model is encoded,
        // so the single-model build costs exactly what it did before.
        let total = modes.len() + specs.len();
        let mut mode_sel = [cnf.ff(); 5];
        for m in modes.iter() {
            mode_sel[m.index()] = if total == 1 { cnf.tt() } else { cnf.fresh() };
        }
        let spec_sel: Vec<Lit> = specs
            .iter()
            .map(|_| if total == 1 { cnf.tt() } else { cnf.fresh() })
            .collect();
        let mut enc = Encoding {
            cnf,
            modes,
            order_encoding,
            guards: Vec::new(),
            addrs: Vec::new(),
            values: Vec::new(),
            locations: sx.space.all_scalar_locations(&sx.types),
            sel: Vec::new(),
            obs: Vec::new(),
            errors: Vec::new(),
            error_lit: Lit::from_index(0),
            exceeded: Vec::new(),
            int_width: range.int_width.max(2),
            fence_acts: BTreeMap::new(),
            toggle_acts: BTreeMap::new(),
            specs: specs.to_vec(),
            provenance,
            axiom_acts: Vec::new(),
            order: OrderVars::Pairwise {
                n: 0,
                lits: Vec::new(),
            },
            spec_cache: Vec::new(),
            mode_sel,
            spec_sel,
            flows: HashMap::new(),
            load_init: HashMap::new(),
            group_cache: HashMap::new(),
            vcache: HashMap::new(),
            bcache: HashMap::new(),
            addr_eq_cache: HashMap::new(),
            widths,
        };
        enc.encode_all(sx, range);
        enc
    }

    /// The selector literal of `mode` (`tt` in a single-mode encoding).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is not in the encoded set.
    pub fn mode_selector(&self, mode: Mode) -> Lit {
        assert!(
            self.modes.contains(mode),
            "mode {} not in the encoded set",
            mode.name()
        );
        self.mode_sel[mode.index()]
    }

    /// The assumption vector selecting `mode`: its selector positive,
    /// every other encoded model's selector negative. Empty for a
    /// single-model encoding (the selector is the constant `tt`).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is not in the encoded set.
    pub fn mode_assumptions(&self, mode: Mode) -> Vec<Lit> {
        self.model_assumptions(ModelSel::Builtin(mode))
    }

    /// The assumption vector selecting one model (built-in mode or
    /// compiled spec): its selector positive, every other encoded
    /// model's selector negative. Empty for a single-model encoding.
    ///
    /// # Panics
    ///
    /// Panics if the model is not part of the encoding.
    pub fn model_assumptions(&self, model: ModelSel) -> Vec<Lit> {
        match model {
            ModelSel::Builtin(mode) => assert!(
                self.modes.contains(mode),
                "mode {} not in the encoded set",
                mode.name()
            ),
            ModelSel::Spec(i) => assert!(
                i < self.specs.len(),
                "spec index {i} out of range ({} specs encoded)",
                self.specs.len()
            ),
        }
        if self.modes.len() + self.specs.len() == 1 {
            return Vec::new();
        }
        let mut asm: Vec<Lit> = self
            .modes
            .iter()
            .map(|m| {
                let sel = self.mode_sel[m.index()];
                if model == ModelSel::Builtin(m) {
                    sel
                } else {
                    !sel
                }
            })
            .collect();
        asm.extend(self.spec_sel.iter().enumerate().map(|(i, &sel)| {
            if model == ModelSel::Spec(i) {
                sel
            } else {
                !sel
            }
        }));
        asm
    }

    /// The per-axiom gate literals a query on `model` must assume
    /// positively (empty unless the encoding was built with provenance
    /// and the model is a spec). Only the *selected* spec's gates are
    /// needed: other specs' axiom clauses are already satisfied through
    /// their negated selectors.
    pub(crate) fn axiom_assumptions(&self, model: ModelSel) -> Vec<Lit> {
        match model {
            ModelSel::Spec(i) if self.provenance => self
                .axiom_acts
                .get(i)
                .map(|gates| gates.iter().map(|&(_, g)| g).collect())
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// The display name of an encoded model.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range spec index.
    pub fn model_name(&self, model: ModelSel) -> String {
        match model {
            ModelSel::Builtin(mode) => mode.name().to_string(),
            ModelSel::Spec(i) => self.specs[i].name.clone(),
        }
    }

    /// The selector literal of the `i`-th compiled spec.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn spec_selector(&self, i: usize) -> Lit {
        self.spec_sel[i]
    }

    /// The gate literal for a group of modes: true iff the selected
    /// model is in the group. Constant-folds to `ff` when the group is
    /// empty and to `tt` when it is the whole model universe (only
    /// possible with no specs encoded); cached otherwise.
    fn mode_gate(&mut self, group: ModeSet) -> Lit {
        if group.is_empty() {
            return self.cnf.ff();
        }
        if group == self.modes && self.specs.is_empty() {
            return self.cnf.tt();
        }
        if let Some(&l) = self.group_cache.get(&group) {
            return l;
        }
        let sels: Vec<Lit> = group.iter().map(|m| self.mode_sel[m.index()]).collect();
        let gate = self.cnf.or_many(&sels);
        self.group_cache.insert(group, gate);
        gate
    }

    /// The spec-membership circuit `obs ∉ spec`: one conjunction of
    /// per-vector mismatches, each the negation of one conjunction of
    /// per-component equalities. A pure definition, cached per spec, so
    /// a session's inclusion queries with one spec and many assumption
    /// vectors encode it once.
    pub(crate) fn spec_no_match(&mut self, spec: &crate::checker::ObsSet) -> Lit {
        if let Some(&(_, l)) = self.spec_cache.iter().find(|(s, _)| s == spec) {
            return l;
        }
        let obs = self.obs.clone();
        let mut mismatches = Vec::with_capacity(spec.vectors.len());
        for o in &spec.vectors {
            let eqs: Vec<Lit> = obs
                .iter()
                .zip(o)
                .map(|(e, v)| self.enc_eq_const(e, v))
                .collect();
            mismatches.push(!self.cnf.and_many(&eqs));
        }
        let no_match = self.cnf.and_many(&mismatches);
        self.spec_cache.push((spec.clone(), no_match));
        no_match
    }

    /// The activation literal of candidate fence site `site`, created on
    /// first use.
    pub(crate) fn fence_act(&mut self, site: u32) -> Lit {
        if let Some(&l) = self.fence_acts.get(&site) {
            return l;
        }
        let l = self.cnf.fresh();
        self.fence_acts.insert(site, l);
        l
    }

    /// The toggle literal of mutation site `site`, created on first use.
    pub(crate) fn toggle_act(&mut self, site: u32) -> Lit {
        if let Some(&l) = self.toggle_acts.get(&site) {
            return l;
        }
        let l = self.cnf.fresh();
        self.toggle_acts.insert(site, l);
        l
    }

    fn encode_all(&mut self, sx: &SymExec, range: &RangeInfo) {
        // --- per-event encodings
        for e in &sx.events {
            let g = self.encode_b(sx, e.guard);
            let a = self.encode_v(sx, e.addr);
            let v = self.encode_v(sx, e.value);
            self.guards.push(g);
            self.addrs.push(a);
            self.values.push(v);
        }

        // --- location selectors + address validity
        for (i, e) in sx.events.iter().enumerate() {
            let addr_set = range.set(e.addr);
            let mut sels = BTreeMap::new();
            let locations = self.locations.clone();
            for (li, loc) in locations.iter().enumerate() {
                if !addr_set.may_be_ptr_to(loc) {
                    continue;
                }
                let lit = self.sel_lit(i, loc);
                sels.insert(li, lit);
            }
            let all: Vec<Lit> = sels.values().copied().collect();
            let valid = self.cnf.or_many(&all);
            // Skip the error when the range analysis proves validity.
            let statically_valid = match addr_set {
                ValueSet::Top => false,
                ValueSet::Finite(vals) => vals.iter().all(|v| match v {
                    Value::Ptr(p) => self.locations.iter().any(|l| l == p),
                    _ => false,
                }),
            };
            if !statically_valid {
                let g = self.guards[i];
                let bad = self.cnf.and(g, !valid);
                self.errors
                    .push((bad, ErrorKind::BadAddress, e.label.clone()));
            }
            self.sel.push(sels);
        }

        // --- memory order variables
        let n = sx.events.len();
        match self.order_encoding {
            OrderEncoding::Pairwise => {
                let mut lits = vec![self.cnf.ff(); n * n];
                for x in 0..n {
                    for y in x + 1..n {
                        let l = self.cnf.fresh();
                        lits[x * n + y] = l;
                        lits[y * n + x] = !l;
                    }
                }
                // Transitivity is the solver's native total order: its
                // explanations are the paper's two clauses per triple,
                // built only when the search needs them.
                self.cnf.solver.add_total_order(n, |x, y| lits[x * n + y]);
                self.order = OrderVars::Pairwise { n, lits };
            }
            OrderEncoding::Timestamp => {
                let k = bits_for(n.max(2) as u64 - 1).max(1);
                let ts: Vec<Vec<Lit>> = (0..n).map(|_| self.cnf.bv_fresh(k)).collect();
                self.order = OrderVars::Timestamp(ts);
                // Totality: timestamps pairwise distinct.
                for x in 0..n {
                    for y in x + 1..n {
                        let xy = self.before(x, y);
                        let yx = self.before(y, x);
                        self.cnf.clause([xy, yx]);
                    }
                }
            }
        }

        // --- axiom 1: program order, fences, atomic blocks
        self.encode_program_order(sx, range);
        // --- seriality: operations are atomic (gated on the selectors
        // of the models requesting it in a multi-model encoding)
        if self.modes.contains(Mode::Serial) || self.specs.iter().any(|s| s.atomic_ops) {
            self.encode_operation_atomicity(sx);
        }
        // --- initialization happens before all thread events
        self.encode_init_order(sx);
        // --- axioms 2 & 3: load visibility and values
        self.encode_value_flow(sx, range);
        // --- declarative models: compile each spec's axioms over the
        // shared order/flow variables, gated on its selector (needs the
        // Flows/Init literals of the value-flow encoding for `rf`/`fr`)
        crate::spec_compile::emit_spec_axioms(self, sx, range);

        // --- assumptions
        let assumes = sx.assumes.clone();
        for a in assumes {
            let l = self.encode_b(sx, a);
            self.cnf.assert_lit(l);
        }
        // --- error conditions from symbolic execution
        for e in &sx.errors.clone() {
            let l = self.encode_b(sx, e.cond);
            if l != self.cnf.ff() {
                self.errors.push((l, e.kind, e.label.clone()));
            }
        }
        let all_err: Vec<Lit> = self.errors.iter().map(|(l, _, _)| *l).collect();
        self.error_lit = self.cnf.or_many(&all_err);

        // --- loop-bound flags
        for (key, cond) in &sx.exceeded.clone() {
            let l = self.encode_b(sx, *cond);
            self.exceeded.push((key.clone(), l));
        }

        // --- observation vector
        for entry in &sx.obs.clone() {
            let e = self.encode_v(sx, entry.term);
            self.obs.push(e);
        }
    }

    // ----------------------------------------------------------- ordering

    /// The literal for `x <M y` (event indices).
    pub fn before(&mut self, x: usize, y: usize) -> Lit {
        match &self.order {
            OrderVars::Pairwise { n, lits } => lits[x * n + y],
            OrderVars::Timestamp(ts) => {
                let a = ts[x].clone();
                let b = ts[y].clone();
                self.cnf.bv_ult(&a, &b)
            }
        }
    }

    pub(crate) fn imply(&mut self, premises: &[Lit], conclusion: Lit) {
        let mut clause: Vec<Lit> = premises.iter().map(|&p| !p).collect();
        clause.push(conclusion);
        clause.retain(|&l| l != self.cnf.ff());
        if clause.iter().any(|&l| l == self.cnf.tt()) {
            return;
        }
        self.cnf.clause(clause);
    }

    fn encode_program_order(&mut self, sx: &SymExec, range: &RangeInfo) {
        let n = sx.events.len();
        for x in 0..n {
            for y in 0..n {
                let (ex, ey) = (&sx.events[x], &sx.events[y]);
                if ex.thread != ey.thread || ex.po >= ey.po {
                    continue;
                }
                let (xk, yk) = (ex.kind, ey.kind);
                let gx = self.guards[x];
                let gy = self.guards[y];
                // Mode groups for this pair of access kinds: the modes
                // requiring the edge unconditionally, and the modes
                // requiring it only under address coincidence (the
                // same-address store edge of the Relaxed axiom 1). One
                // clause per non-empty group, gated by the group literal.
                let uncond = ModeSet::po_edge_group(self.modes, xk, yk, false);
                let same_only: ModeSet = ModeSet::po_edge_group(self.modes, xk, yk, true)
                    .iter()
                    .filter(|m| !uncond.contains(*m))
                    .collect();
                if !uncond.is_empty() {
                    let gate = self.mode_gate(uncond);
                    let b = self.before(x, y);
                    self.imply(&[gate, gx, gy], b);
                    if uncond == self.modes && self.specs.is_empty() {
                        // Every encoded model already orders this pair
                        // unconditionally: the fence and atomic-block
                        // edges below are subsumed (same conclusion,
                        // premises ⊇ {gx, gy}), so skip emitting them.
                        // (With specs encoded the gate is not `tt`, so
                        // the edges below must still be emitted.)
                        continue;
                    }
                }
                if !same_only.is_empty() && may_alias(range, ex.addr, ey.addr) {
                    let gate = self.mode_gate(same_only);
                    let ae = self.addr_eq(sx, ex.addr, ey.addr);
                    let b = self.before(x, y);
                    self.imply(&[gate, gx, gy, ae], b);
                }
                // Fence edges: sound under every built-in mode (in modes
                // ordering the pair unconditionally they are subsumed,
                // and skipped above when that covers the whole set).
                // Declarative models define their own fence semantics
                // through the `fence` relation, so when specs share the
                // encoding these clauses are gated on "a built-in mode
                // is selected". Candidate fences are additionally gated
                // by their site's activation literal.
                let builtin_gate = self.mode_gate(self.modes);
                for fi in 0..sx.fences.len() {
                    let f = &sx.fences[fi];
                    if f.thread == ex.thread
                        && f.po > ex.po
                        && f.po < ey.po
                        && sem_orders(f.sem, xk, yk)
                    {
                        let guard = f.guard;
                        let site = f.site;
                        let gf = self.encode_b(sx, guard);
                        let act = match site {
                            Some(s) => self.fence_act(s),
                            None => self.cnf.tt(),
                        };
                        let b = self.before(x, y);
                        self.imply(&[builtin_gate, act, gx, gy, gf], b);
                    }
                }
                // Atomic blocks: internal program order.
                if ex.group.is_some() && ex.group == ey.group {
                    let b = self.before(x, y);
                    self.imply(&[gx, gy], b);
                }
            }
        }
        // Atomic block contiguity (all modes). Bucketed into a
        // `BTreeMap` so the contiguity clauses come out in group order.
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, e) in sx.events.iter().enumerate() {
            if let Some(g) = e.group {
                groups.entry(g).or_default().push(i);
            }
        }
        let tt = self.cnf.tt();
        for members in groups.values() {
            self.encode_group_contiguity(sx, members, tt);
        }
    }

    fn encode_operation_atomicity(&mut self, sx: &SymExec) {
        let mut ops: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, e) in sx.events.iter().enumerate() {
            ops.entry(e.op).or_default().push(i);
        }
        // Whole-operation atomicity belongs to Seriality and to any
        // declarative model with `option atomic_ops`; the contiguity
        // clauses are gated on the union of those selectors.
        let serial = if self.modes.contains(Mode::Serial) {
            self.mode_gate(ModeSet::single(Mode::Serial))
        } else {
            self.cnf.ff()
        };
        let gate = self.spec_option_gate(serial, |s| s.atomic_ops);
        for members in ops.values() {
            self.encode_group_contiguity(sx, members, gate);
        }
    }

    /// ORs onto `base` the selector of every encoded spec for which the
    /// option predicate holds — the gate "the selected model has this
    /// framework option" given the built-in contribution `base`.
    fn spec_option_gate(&mut self, base: Lit, has: impl Fn(&ModelSpec) -> bool) -> Lit {
        let mut gate = vec![base];
        gate.extend(
            self.specs
                .iter()
                .zip(&self.spec_sel)
                .filter(|(s, _)| has(s))
                .map(|(_, &sel)| sel),
        );
        self.cnf.or_many(&gate)
    }

    /// No external event may fall between two members of the group (when
    /// `gate` holds; pass `tt` for an ungated group).
    fn encode_group_contiguity(&mut self, sx: &SymExec, members: &[usize], gate: Lit) {
        if members.len() < 2 {
            return;
        }
        for z in 0..sx.events.len() {
            if members.contains(&z) {
                continue;
            }
            let gz = self.guards[z];
            for (ai, &a) in members.iter().enumerate() {
                for &b in &members[ai + 1..] {
                    let ga = self.guards[a];
                    let gb = self.guards[b];
                    let za = self.before(z, a);
                    let bz = self.before(b, z);
                    let mut clause = vec![!gate, !gz, !ga, !gb, za, bz];
                    clause.retain(|&l| l != self.cnf.ff());
                    if clause.iter().any(|&l| l == self.cnf.tt()) {
                        continue;
                    }
                    self.cnf.clause(clause);
                }
            }
        }
    }

    fn encode_init_order(&mut self, sx: &SymExec) {
        for x in 0..sx.events.len() {
            if sx.events[x].thread != 0 {
                continue;
            }
            for y in 0..sx.events.len() {
                if sx.events[y].thread == 0 {
                    continue;
                }
                let gx = self.guards[x];
                let gy = self.guards[y];
                let b = self.before(x, y);
                self.imply(&[gx, gy], b);
            }
        }
    }

    // --------------------------------------------------------- value flow

    fn encode_value_flow(&mut self, sx: &SymExec, range: &RangeInfo) {
        let n = sx.events.len();
        // Store-to-load forwarding (a buffered same-thread earlier store
        // is visible regardless of the memory order) applies under the
        // forwarding modes and under declarative models with
        // `option forwarding`; the combined gate folds to a constant in
        // a single-model encoding, reproducing the paper's two
        // visibility shapes exactly.
        let fwd_gate = {
            let fwd = ModeSet::forwarding_group(self.modes);
            let base = self.mode_gate(fwd);
            self.spec_option_gate(base, |s| s.forwarding)
        };
        for l in 0..n {
            if sx.events[l].kind != AccessKind::Load {
                continue;
            }
            // Candidate stores.
            let mut cands: Vec<usize> = Vec::new();
            for s in 0..n {
                let es = &sx.events[s];
                let el = &sx.events[l];
                if es.kind != AccessKind::Store {
                    continue;
                }
                // Under every built-in mode, a same-thread store after
                // the load in program order can never be visible (see
                // module docs): same-address implies l <M s by axiom 1,
                // different address implies ¬addr_eq. A declarative
                // model need not order same-address load→store pairs,
                // so with specs encoded the candidate is kept and the
                // ordering literal decides (specs that do order the
                // pair falsify `before(s, l)`, recovering the pruning
                // inside the solver).
                if es.thread == el.thread && es.po > el.po && self.specs.is_empty() {
                    continue;
                }
                if may_alias(range, es.addr, el.addr) {
                    cands.push(s);
                }
            }
            let mut vis: Vec<Lit> = Vec::with_capacity(cands.len());
            for &s in &cands {
                let es = &sx.events[s];
                let el = &sx.events[l];
                let gs = self.guards[s];
                let ae = self.addr_eq(sx, es.addr, el.addr);
                let forwarding_shape = es.thread == el.thread && es.po < el.po;
                let ord = if forwarding_shape {
                    let b = self.before(s, l);
                    self.cnf.or(fwd_gate, b)
                } else {
                    self.before(s, l)
                };
                vis.push(self.cnf.and_many(&[gs, ae, ord]));
            }
            // Init(l): no store visible.
            let none_visible: Vec<Lit> = vis.iter().map(|&v| !v).collect();
            let init_lit = self.cnf.and_many(&none_visible);
            self.load_init.insert(l, init_lit);
            // Flows(s, l): s is visible and no other visible store is
            // <M-later — one conjunction per candidate.
            let gl = self.guards[l];
            for (i, &s) in cands.iter().enumerate() {
                let mut conj = Vec::with_capacity(cands.len());
                conj.push(vis[i]);
                for (j, &s2) in cands.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let later = self.before(s, s2);
                    let shadowed = self.cnf.and(vis[j], later);
                    conj.push(!shadowed);
                }
                let flows = self.cnf.and_many(&conj);
                // Retained for the `rf` relation of compiled specs.
                self.flows.insert((s, l), flows);
                // g_l ∧ Flows(s,l) → v_l = v_s
                let eq = self.enc_eq(&self.values[l].clone(), &self.values[s].clone());
                self.imply(&[gl, flows], eq);
            }
            // g_l ∧ Init(l) ∧ sel(l, loc) → v_l = i(loc)
            let sels = self.sel[l].clone();
            for (li, sel_lit) in sels {
                let loc = self.locations[li].clone();
                let iv = init_value(sx, &loc);
                let eq = self.enc_eq_const(&self.values[l].clone(), &iv);
                self.imply(&[gl, init_lit, sel_lit], eq);
            }
        }
    }

    // ------------------------------------------------------ term encoding

    /// Encodes a boolean term to a literal (public entry point for the
    /// commit-point method, which needs commit-candidate guards).
    pub fn encode_guard(&mut self, sx: &SymExec, id: BTermId) -> Lit {
        self.encode_b(sx, id)
    }

    fn encode_b(&mut self, sx: &SymExec, id: BTermId) -> Lit {
        if let Some(&l) = self.bcache.get(&id) {
            return l;
        }
        let lit = match sx.arena.bt(id).clone() {
            BTerm::Const(b) => self.cnf.constant(b),
            BTerm::Toggle(site) => self.toggle_act(site),
            BTerm::Truthy(v) => {
                let e = self.encode_v(sx, v);
                self.truthy(&e)
            }
            BTerm::IsUndef(v) => {
                let e = self.encode_v(sx, v);
                let defined = self.cnf.or(e.t_int, e.t_ptr);
                !defined
            }
            BTerm::Not(a) => {
                let l = self.encode_b(sx, a);
                !l
            }
            BTerm::And(a, b) => {
                let la = self.encode_b(sx, a);
                let lb = self.encode_b(sx, b);
                self.cnf.and(la, lb)
            }
            BTerm::Or(a, b) => {
                let la = self.encode_b(sx, a);
                let lb = self.encode_b(sx, b);
                self.cnf.or(la, lb)
            }
        };
        self.bcache.insert(id, lit);
        lit
    }

    fn encode_v(&mut self, sx: &SymExec, id: VTermId) -> EncVal {
        if let Some(e) = self.vcache.get(&id) {
            return e.clone();
        }
        let enc = match sx.arena.vt(id).clone() {
            VTerm::Const(v) => self.enc_const(&v),
            VTerm::Arg(_) => {
                // One fresh bit: the argument is 0 or 1.
                let b = self.cnf.fresh();
                let mut int = vec![b];
                int.resize(self.widths.int, self.cnf.ff());
                EncVal {
                    t_int: self.cnf.tt(),
                    t_ptr: self.cnf.ff(),
                    int,
                    len: self.zero_len(),
                    path: self.zero_path(),
                }
            }
            VTerm::LoadResult(_) => {
                let t_int = self.cnf.fresh();
                let t_ptr = self.cnf.fresh();
                self.cnf.clause([!t_int, !t_ptr]);
                EncVal {
                    t_int,
                    t_ptr,
                    int: self.cnf.bv_fresh(self.widths.int),
                    len: self.cnf.bv_fresh(self.widths.len),
                    path: (0..self.widths.depth)
                        .map(|_| self.cnf.bv_fresh(self.widths.elem))
                        .collect(),
                }
            }
            VTerm::Prim(op, args) => {
                let encs: Vec<EncVal> = args.iter().map(|&a| self.encode_v(sx, a)).collect();
                self.enc_prim(op, &encs)
            }
            VTerm::Mux(c, a, b) => {
                let lc = self.encode_b(sx, c);
                let ea = self.encode_v(sx, a);
                let eb = self.encode_v(sx, b);
                self.enc_mux(lc, &ea, &eb)
            }
        };
        self.vcache.insert(id, enc.clone());
        enc
    }

    fn zero_len(&mut self) -> Vec<Lit> {
        vec![self.cnf.ff(); self.widths.len]
    }

    fn zero_path(&mut self) -> Vec<Vec<Lit>> {
        vec![vec![self.cnf.ff(); self.widths.elem]; self.widths.depth]
    }

    fn enc_const(&mut self, v: &Value) -> EncVal {
        match v {
            Value::Undefined => EncVal {
                t_int: self.cnf.ff(),
                t_ptr: self.cnf.ff(),
                int: vec![self.cnf.ff(); self.widths.int],
                len: self.zero_len(),
                path: self.zero_path(),
            },
            Value::Int(n) => EncVal {
                t_int: self.cnf.tt(),
                t_ptr: self.cnf.ff(),
                int: self.cnf.bv_const(*n, self.widths.int),
                len: self.zero_len(),
                path: self.zero_path(),
            },
            Value::Ptr(p) => {
                let len = self.cnf.bv_const(p.len() as i64, self.widths.len);
                let mut path = self.zero_path();
                for (i, &e) in p.iter().enumerate() {
                    if i < self.widths.depth {
                        path[i] = self.cnf.bv_const(e as i64, self.widths.elem);
                    }
                }
                EncVal {
                    t_int: self.cnf.ff(),
                    t_ptr: self.cnf.tt(),
                    int: vec![self.cnf.ff(); self.widths.int],
                    len,
                    path,
                }
            }
        }
    }

    fn bool_result(&mut self, defined: Lit, bit: Lit) -> EncVal {
        let mut int = vec![bit];
        int.resize(self.widths.int, self.cnf.ff());
        EncVal {
            t_int: defined,
            t_ptr: self.cnf.ff(),
            int,
            len: self.zero_len(),
            path: self.zero_path(),
        }
    }

    fn truthy(&mut self, e: &EncVal) -> Lit {
        let zero = vec![self.cnf.ff(); e.int.len()];
        let is_zero = self.cnf.bv_eq(&e.int, &zero);
        let nonzero_int = self.cnf.and(e.t_int, !is_zero);
        self.cnf.or(nonzero_int, e.t_ptr)
    }

    fn defined(&mut self, e: &EncVal) -> Lit {
        self.cnf.or(e.t_int, e.t_ptr)
    }

    fn enc_prim(&mut self, op: PrimOp, a: &[EncVal]) -> EncVal {
        match op {
            PrimOp::Add | PrimOp::Sub | PrimOp::Mul => {
                let both = self.cnf.and(a[0].t_int, a[1].t_int);
                let int = match op {
                    PrimOp::Add => self.cnf.bv_add(&a[0].int, &a[1].int),
                    PrimOp::Sub => self.cnf.bv_sub(&a[0].int, &a[1].int),
                    _ => self.cnf.bv_mul(&a[0].int, &a[1].int),
                };
                EncVal {
                    t_int: both,
                    t_ptr: self.cnf.ff(),
                    int,
                    len: self.zero_len(),
                    path: self.zero_path(),
                }
            }
            PrimOp::Eq | PrimOp::Ne => {
                let d0 = self.defined(&a[0]);
                let d1 = self.defined(&a[1]);
                let defined = self.cnf.and(d0, d1);
                let both_int = self.cnf.and(a[0].t_int, a[1].t_int);
                let int_eq = self.cnf.bv_eq(&a[0].int, &a[1].int);
                let both_ptr = self.cnf.and(a[0].t_ptr, a[1].t_ptr);
                let ptr_eq = self.raw_ptr_eq(&a[0], &a[1]);
                let ieq = self.cnf.and(both_int, int_eq);
                let peq = self.cnf.and(both_ptr, ptr_eq);
                let eq = self.cnf.or(ieq, peq);
                let bit = if op == PrimOp::Eq { eq } else { !eq };
                self.bool_result(defined, bit)
            }
            PrimOp::Lt | PrimOp::Le | PrimOp::Gt | PrimOp::Ge => {
                let both = self.cnf.and(a[0].t_int, a[1].t_int);
                let bit = match op {
                    PrimOp::Lt => self.cnf.bv_slt(&a[0].int, &a[1].int),
                    PrimOp::Ge => !self.cnf.bv_slt(&a[0].int, &a[1].int),
                    PrimOp::Gt => self.cnf.bv_slt(&a[1].int, &a[0].int),
                    _ => !self.cnf.bv_slt(&a[1].int, &a[0].int),
                };
                self.bool_result(both, bit)
            }
            PrimOp::Not => {
                let d = self.defined(&a[0]);
                let t = self.truthy(&a[0]);
                self.bool_result(d, !t)
            }
            PrimOp::And | PrimOp::Or => {
                let d0 = self.defined(&a[0]);
                let d1 = self.defined(&a[1]);
                let defined = self.cnf.and(d0, d1);
                let t0 = self.truthy(&a[0]);
                let t1 = self.truthy(&a[1]);
                let bit = if op == PrimOp::And {
                    self.cnf.and(t0, t1)
                } else {
                    self.cnf.or(t0, t1)
                };
                self.bool_result(defined, bit)
            }
            PrimOp::Field(k) => {
                let kbits = self.cnf.bv_const(i64::from(k), self.widths.elem);
                self.enc_extend(&a[0], &kbits, self.cnf.tt())
            }
            PrimOp::Index => {
                // Dynamic offset: low bits of the integer operand.
                let mut kbits: Vec<Lit> = a[1].int.iter().copied().take(self.widths.elem).collect();
                kbits.resize(self.widths.elem, self.cnf.ff());
                self.enc_extend(&a[0], &kbits, a[1].t_int)
            }
            PrimOp::Ite => {
                let dc = self.defined(&a[0]);
                let tc = self.truthy(&a[0]);
                let merged = self.enc_mux(tc, &a[1], &a[2]);
                // Undefined condition poisons the result.
                EncVal {
                    t_int: self.cnf.and(dc, merged.t_int),
                    t_ptr: self.cnf.and(dc, merged.t_ptr),
                    ..merged
                }
            }
            PrimOp::Id => a[0].clone(),
        }
    }

    /// Appends a path element to a pointer.
    fn enc_extend(&mut self, p: &EncVal, elem: &[Lit], extra_ok: Lit) -> EncVal {
        let max_len = self.cnf.bv_const(self.widths.depth as i64, self.widths.len);
        let has_room = self.cnf.bv_ult(&p.len, &max_len);
        let pt = self.cnf.and(p.t_ptr, has_room);
        let ok = self.cnf.and(pt, extra_ok);
        let one = self.cnf.bv_const(1, self.widths.len);
        let new_len = self.cnf.bv_add(&p.len, &one);
        let mut new_path = Vec::with_capacity(self.widths.depth);
        for i in 0..self.widths.depth {
            let at_i = {
                let iconst = self.cnf.bv_const(i as i64, self.widths.len);
                self.cnf.bv_eq(&p.len, &iconst)
            };
            new_path.push(self.cnf.bv_ite(at_i, elem, &p.path[i]));
        }
        EncVal {
            t_int: self.cnf.ff(),
            t_ptr: ok,
            int: vec![self.cnf.ff(); self.widths.int],
            len: new_len,
            path: new_path,
        }
    }

    fn enc_mux(&mut self, c: Lit, a: &EncVal, b: &EncVal) -> EncVal {
        EncVal {
            t_int: self.cnf.ite(c, a.t_int, b.t_int),
            t_ptr: self.cnf.ite(c, a.t_ptr, b.t_ptr),
            int: self.cnf.bv_ite(c, &a.int, &b.int),
            len: self.cnf.bv_ite(c, &a.len, &b.len),
            path: a
                .path
                .iter()
                .zip(&b.path)
                .map(|(x, y)| self.cnf.bv_ite(c, x, y))
                .collect(),
        }
    }

    /// Structural pointer equality ignoring tags.
    fn raw_ptr_eq(&mut self, a: &EncVal, b: &EncVal) -> Lit {
        let mut conj = Vec::with_capacity(1 + self.widths.depth);
        conj.push(self.cnf.bv_eq(&a.len, &b.len));
        for i in 0..self.widths.depth {
            let iconst = self.cnf.bv_const(i as i64, self.widths.len);
            let active = self.cnf.bv_ult(&iconst, &a.len);
            let eq = self.cnf.bv_eq(&a.path[i], &b.path[i]);
            conj.push(self.cnf.or(!active, eq));
        }
        self.cnf.and_many(&conj)
    }

    /// Full program-value equality.
    fn enc_eq(&mut self, a: &EncVal, b: &EncVal) -> Lit {
        let ti = self.cnf.iff(a.t_int, b.t_int);
        let tp = self.cnf.iff(a.t_ptr, b.t_ptr);
        let int_eq = self.cnf.bv_eq(&a.int, &b.int);
        let ptr_eq = self.raw_ptr_eq(a, b);
        let ci = self.cnf.or(!a.t_int, int_eq);
        let cp = self.cnf.or(!a.t_ptr, ptr_eq);
        self.cnf.and_many(&[ti, tp, ci, cp])
    }

    /// Equality with a constant value.
    pub fn enc_eq_const(&mut self, a: &EncVal, v: &Value) -> Lit {
        let c = self.enc_const(v);
        self.enc_eq(a, &c)
    }

    /// Address equality literal between two address terms (cached, range
    /// pruned).
    pub(crate) fn addr_eq(&mut self, sx: &SymExec, a: VTermId, b: VTermId) -> Lit {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&l) = self.addr_eq_cache.get(&key) {
            return l;
        }
        let ea = self.encode_v(sx, key.0);
        let eb = self.encode_v(sx, key.1);
        let both_ptr = self.cnf.and(ea.t_ptr, eb.t_ptr);
        let raw = self.raw_ptr_eq(&ea, &eb);
        let lit = self.cnf.and(both_ptr, raw);
        self.addr_eq_cache.insert(key, lit);
        lit
    }

    /// The selector `event targets location`.
    fn sel_lit(&mut self, event: usize, loc: &[u32]) -> Lit {
        if loc.len() > self.widths.depth {
            return self.cnf.ff();
        }
        let a = self.addrs[event].clone();
        let len_c = self.cnf.bv_const(loc.len() as i64, self.widths.len);
        let mut conj = Vec::with_capacity(2 + loc.len());
        conj.push(a.t_ptr);
        conj.push(self.cnf.bv_eq(&a.len, &len_c));
        for (i, &e) in loc.iter().enumerate() {
            let ec = self.cnf.bv_const(i64::from(e), self.widths.elem);
            conj.push(self.cnf.bv_eq(&a.path[i], &ec));
        }
        self.cnf.and_many(&conj)
    }

    // ----------------------------------------------------------- decoding

    /// Decodes an encoded value from the current model.
    pub fn decode(&self, e: &EncVal) -> Value {
        if self.cnf.lit_value(e.t_int) {
            Value::Int(self.cnf.bv_value(&e.int))
        } else if self.cnf.lit_value(e.t_ptr) {
            let len = self.cnf.bv_value_unsigned(&e.len) as usize;
            let path: Vec<u32> = (0..len.min(self.widths.depth))
                .map(|i| self.cnf.bv_value_unsigned(&e.path[i]) as u32)
                .collect();
            if path.is_empty() {
                Value::Undefined
            } else {
                Value::Ptr(path)
            }
        } else {
            Value::Undefined
        }
    }

    /// Decodes the observation vector from the current model.
    pub fn decode_obs(&self) -> Vec<Value> {
        self.obs.iter().map(|e| self.decode(e)).collect()
    }

    /// Was the event executed in the current model?
    pub fn event_executed(&self, event: usize) -> bool {
        self.cnf.lit_value(self.guards[event])
    }

    /// The value of a boolean term in the current model, if the term is
    /// constant or was encoded before the solve (counterexample
    /// decoding must not add circuitry after the fact — fresh gates
    /// have no model values).
    pub(crate) fn guard_value(&self, sx: &SymExec, id: BTermId) -> Option<bool> {
        if let crate::term::BTerm::Const(b) = sx.arena.bt(id) {
            return Some(*b);
        }
        self.bcache.get(&id).map(|&l| self.cnf.lit_value(l))
    }

    /// The executed events sorted by the memory order of the current
    /// model.
    pub fn memory_order(&self) -> Vec<usize> {
        let n = self.guards.len();
        let mut executed: Vec<usize> = (0..n).filter(|&e| self.event_executed(e)).collect();
        match &self.order {
            OrderVars::Pairwise { n, lits } => {
                executed.sort_by(|&a, &b| {
                    if a == b {
                        return std::cmp::Ordering::Equal;
                    }
                    if self.cnf.lit_value(lits[a * n + b]) {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                });
            }
            OrderVars::Timestamp(ts) => {
                let keys: Vec<u64> = ts.iter().map(|t| self.cnf.bv_value_unsigned(t)).collect();
                executed.sort_by_key(|&e| keys[e]);
            }
        }
        executed
    }

    /// Error messages triggered in the current model.
    pub fn triggered_errors(&self) -> Vec<String> {
        self.errors
            .iter()
            .filter(|(l, _, _)| self.cnf.lit_value(*l))
            .map(|(_, k, label)| format!("{}: {label}", k.name()))
            .collect()
    }

    /// Loop keys whose bounds were exceeded in the current model.
    pub fn exceeded_keys(&self) -> Vec<String> {
        self.exceeded
            .iter()
            .filter(|(_, l)| self.cnf.lit_value(*l))
            .map(|(k, _)| k.clone())
            .collect()
    }
}

/// May the two address terms alias (share a pointer value)?
pub(crate) fn may_alias(range: &RangeInfo, a: VTermId, b: VTermId) -> bool {
    match (range.set(a), range.set(b)) {
        (ValueSet::Top, _) | (_, ValueSet::Top) => true,
        (ValueSet::Finite(sa), ValueSet::Finite(sb)) => {
            let (small, large) = if sa.len() <= sb.len() {
                (sa, sb)
            } else {
                (sb, sa)
            };
            small.iter().any(|v| v.is_ptr() && large.contains(v))
        }
    }
}

fn bits_for(n: u64) -> usize {
    (64 - n.leading_zeros() as usize).max(1)
}
