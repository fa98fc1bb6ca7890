//! Incremental checking sessions: encode once, solve many.
//!
//! CheckFence's practical cost is dominated by re-checking the same test
//! under slightly different configurations: fence inference re-checks one
//! test per candidate placement (§4.2), spec mining solves once per
//! observation (§3.2), and model sweeps re-check per memory model. The
//! one-shot [`oracle`](crate::oracle)s pay a full symbolic execution, a
//! full CNF encode and a cold SAT solver for each of those checks, even
//! though the formula differs only marginally between them.
//!
//! A `CheckSession` binds one (harness, test) pair to one *persistent*
//! incremental solver and answers every query through assumptions:
//!
//! * **Candidate fences** ([`cf_lsl::Stmt::CandidateFence`]) are encoded
//!   once, with each site's ordering clauses gated behind an *activation
//!   literal*. A candidate placement is then just an assumption vector —
//!   no program rebuild, no re-encode, no cold solver.
//! * **Memory models** are encoded together ([`Encoding::build_multi`]):
//!   the mode-dependent Θ axioms are gated behind per-mode *selector
//!   literals*, grouped by mode delta ([`cf_memmodel::ModeSet`]), so a
//!   lattice sweep reuses the thread-local Δ circuits and all learnt
//!   clauses that do not depend on the selectors.
//! * **Query-local constraints** (the blocking clauses of spec mining,
//!   the spec-membership circuit of inclusion checks, the abstract
//!   machine of the commit-point method) are either pure definitions —
//!   added permanently and cached — or gated behind a per-query literal
//!   that is retired when the query completes.
//!
//! The lazy loop-unrolling of §3.3 still applies: when a query discovers
//! executions exceeding the current loop bounds, the session re-executes
//! and re-encodes at larger bounds (this is the only event that discards
//! solver state; [`SessionStats`] counts it).
//!
//! Sessions are internal: the [`Engine`](crate::Engine) creates, pools
//! and schedules them, and [`Query`](crate::Query) values are the only
//! way to ask one anything.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cf_lsl::Stmt;
use cf_memmodel::{Mode, ModeSet};
use cf_sat::{Lit, SolveResult};
use cf_spec::ModelSpec;

use crate::checker::{
    decode_counterexample, decode_failure, exhausted_err, CheckConfig, CheckError, CheckOutcome,
    FailureKind, ObsSet, PhaseStats,
};
use crate::commit::{encode_abstract_machine, AbstractType};
use crate::encode::{Encoding, ModelSel};
use crate::provenance::{Provenance, ProvenanceKind};
use crate::range::analyze;
use crate::symexec::{execute, LoopBounds, SymExec};
use crate::test_spec::{Harness, TestSpec};

/// Configuration of a [`CheckSession`]: the engine's model universe
/// and check settings.
#[derive(Clone, Debug)]
pub(crate) struct SessionConfig {
    /// The built-in memory models the session can answer queries for.
    pub(crate) modes: ModeSet,
    /// Declarative models encoded alongside the built-ins, addressed by
    /// index ([`ModelSel::Spec`]). Compiled once into the shared
    /// encoding, toggled per query like any built-in mode.
    pub(crate) specs: Vec<ModelSpec>,
    /// Whether inclusion verdicts carry [`Provenance`]: real fences are
    /// made assumption-addressable (wrapped in synthetic toggle sites)
    /// and spec axioms are gated per-axiom, so the decisive solve's
    /// assumption core resolves to named artifacts. With it off, the
    /// session's formula, verdicts and solver statistics are
    /// byte-identical to a provenance-free build.
    pub(crate) provenance: bool,
    /// The engine's check settings. The retry ladder rescales the tick
    /// and conflict budgets between attempts; the relative
    /// [`CheckConfig::deadline`] is armed into `deadline_at` instead.
    pub(crate) check: CheckConfig,
    /// Absolute wall-clock deadline of the current attempt, so one
    /// deadline covers every solve call and bound-growth round it
    /// issues.
    pub(crate) deadline_at: Option<Instant>,
}

/// Counters proving (or disproving) the session's amortization claim:
/// many queries per symbolic execution / encode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Symbolic executions performed (1 unless loop bounds grew).
    pub symexecs: u32,
    /// CNF encodings built (1 unless loop bounds grew).
    pub encodes: u32,
    /// Public queries answered (mining, inclusion, enumeration, commit).
    pub queries: u32,
}

/// The per-encoding state: everything discarded when loop bounds grow.
struct State {
    sx: SymExec,
    enc: Encoding,
    /// Activation literal of the bound-overflow query clause, if the
    /// encoding has loop-bound-exceeded flags.
    overflow_act: Option<Lit>,
    /// Cached commit-point abstract machines: `(type, gate, mismatch)`.
    commit_cache: Vec<(AbstractType, Lit, Lit)>,
}

/// Whether a query result depends on the loop bounds being sufficient.
enum Round<T> {
    /// Valid regardless of loop bounds (a within-bounds counterexample).
    Final(T),
    /// Valid only if no execution exceeds the bounds.
    Bounded(T),
}

/// An incremental checking session for one implementation and one test:
/// the unit of encoding reuse behind the [`Engine`](crate::Engine).
pub(crate) struct CheckSession<'h> {
    harness: &'h Harness,
    test: &'h TestSpec,
    /// The configuration. Mode set and order encoding are fixed once the
    /// first query builds the encoding; solver budget may be adjusted
    /// between queries.
    pub(crate) config: SessionConfig,
    bounds: LoopBounds,
    state: Option<State>,
    stats: SessionStats,
    /// The provenance-instrumented copy of the harness (real fences
    /// wrapped in synthetic toggle sites). Built once, survives bound
    /// growth. `None` unless [`SessionConfig::provenance`] is on.
    prov_harness: Option<Box<Harness>>,
    /// Synthetic toggle site → source coordinate (`proc#index (kind)`)
    /// of the wrapped fence.
    fence_coords: BTreeMap<u32, String>,
    /// Provenance of the most recent inclusion query, taken by the
    /// engine when it assembles the verdict.
    last_provenance: Option<Provenance>,
}

impl<'h> CheckSession<'h> {
    /// Creates a session; nothing is encoded before the first query.
    pub(crate) fn with_config(
        harness: &'h Harness,
        test: &'h TestSpec,
        config: SessionConfig,
    ) -> Self {
        CheckSession {
            harness,
            test,
            config,
            bounds: LoopBounds::new(),
            state: None,
            stats: SessionStats::default(),
            prov_harness: None,
            fence_coords: BTreeMap::new(),
            last_provenance: None,
        }
    }

    /// Takes (and clears) the provenance of the most recent inclusion
    /// query. `None` unless provenance is enabled and the last query
    /// produced a pass/fail outcome.
    pub(crate) fn take_provenance(&mut self) -> Option<Provenance> {
        self.last_provenance.take()
    }

    /// Amortization counters.
    pub(crate) fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Cumulative statistics of the persistent solver (zero before the
    /// first query builds the encoding).
    pub(crate) fn solver_stats(&self) -> cf_sat::Stats {
        self.state
            .as_ref()
            .map(|st| *st.enc.cnf.solver.stats())
            .unwrap_or_default()
    }

    /// The [`QueryKind::Mine`](crate::query::QueryKind::Mine) body:
    /// mines the observation set with the SAT encoding under Seriality
    /// (§3.2), reusing the persistent encoding. Candidate fences are
    /// irrelevant here: fences are no-ops under the Seriality model.
    /// Phase timings accumulate into `stats` — also on the error path,
    /// so exhausted queries keep their partial attribution (the caller
    /// stamps `total_time`).
    ///
    /// # Errors
    ///
    /// [`CheckError::SerialBug`] if a serial execution raises a runtime
    /// error; infrastructure errors otherwise.
    pub(crate) fn query_mine(&mut self, stats: &mut PhaseStats) -> Result<ObsSet, CheckError> {
        self.stats.queries += 1;
        let serial = ModelSel::Builtin(Mode::Serial);
        self.with_bounds(serial, &[], &[], stats, |sx, enc, asm, stats| {
            // Any serial execution with an error is a sequential bug.
            let mut with_err = asm.to_vec();
            with_err.push(enc.error_lit);
            let t = Instant::now();
            let r = enc.cnf.solver.solve_with(&with_err);
            stats.solve_time += t.elapsed();
            match r {
                SolveResult::Sat => {
                    let name = enc.model_name(serial);
                    let cx = decode_counterexample(sx, enc, FailureKind::SerialError, name);
                    return Err(CheckError::SerialBug(Box::new(cx)));
                }
                SolveResult::Unknown => return Err(exhausted_err(&enc.cnf.solver)),
                SolveResult::Unsat => {}
            }
            // Enumerate observations of error-free serial executions.
            let vectors = Self::enumerate_gated(enc, asm, stats)?;
            Ok(Round::Bounded(ObsSet { vectors }))
        })
    }

    /// The [`QueryKind::Enumerate`](crate::query::QueryKind::Enumerate)
    /// body: observations of all error-free executions under any model
    /// of the universe, with the given candidate-fence sites and
    /// mutation toggles active.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only. Panics if the model is not part of
    /// the session's universe.
    pub(crate) fn query_enumerate(
        &mut self,
        model: ModelSel,
        active_sites: &[u32],
        active_toggles: &[u32],
        stats: &mut PhaseStats,
    ) -> Result<ObsSet, CheckError> {
        self.stats.queries += 1;
        self.with_bounds(
            model,
            active_sites,
            active_toggles,
            stats,
            |_sx, enc, asm, stats| {
                let vectors = Self::enumerate_gated(enc, asm, stats)?;
                Ok(Round::Bounded(ObsSet { vectors }))
            },
        )
    }

    /// Enumerates error-free observations under the given assumptions by
    /// iterated solving. Blocking clauses are gated on a per-query
    /// literal so they can be retired (by asserting its negation) once
    /// the enumeration completes, without poisoning later queries on the
    /// persistent solver. On a budget abort the literal is left free:
    /// the gated clauses stay individually satisfiable and cannot
    /// constrain subsequent queries.
    fn enumerate_gated(
        enc: &mut Encoding,
        asm: &[Lit],
        stats: &mut PhaseStats,
    ) -> Result<BTreeSet<Vec<cf_lsl::Value>>, CheckError> {
        let q = enc.cnf.fresh();
        let mut clean = asm.to_vec();
        clean.push(!enc.error_lit);
        clean.push(q);
        let mut vectors = BTreeSet::new();
        loop {
            let t = Instant::now();
            let r = enc.cnf.solver.solve_with(&clean);
            stats.solve_time += t.elapsed();
            match r {
                SolveResult::Sat => {
                    stats.iterations += 1;
                    let obs = enc.decode_obs();
                    let mut block: Vec<Lit> = Vec::with_capacity(obs.len() + 1);
                    block.push(!q);
                    for (i, v) in obs.iter().enumerate() {
                        let e = enc.obs[i].clone();
                        let eq = enc.enc_eq_const(&e, v);
                        block.push(!eq);
                    }
                    enc.cnf.clause(block);
                    vectors.insert(obs);
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => return Err(exhausted_err(&enc.cnf.solver)),
            }
        }
        enc.cnf.assert_lit(!q);
        Ok(vectors)
    }

    /// The
    /// [`QueryKind::CheckInclusion`](crate::query::QueryKind::CheckInclusion)
    /// body: checks that every execution under `model` produces an
    /// observation in `spec` and raises no runtime error. Candidate-fence
    /// sites and mutation toggles are both just assumption polarities. Phase
    /// timings accumulate into `stats` — also on the error path — and
    /// the caller stamps `total_time`.
    pub(crate) fn query_inclusion(
        &mut self,
        model: ModelSel,
        spec: &ObsSet,
        active_sites: &[u32],
        active_toggles: &[u32],
        stats: &mut PhaseStats,
    ) -> Result<CheckOutcome, CheckError> {
        self.stats.queries += 1;
        self.last_provenance = None;
        let prov = self.config.provenance;
        let min_ticks = self.config.check.core_minimize_ticks;
        let verify = self.config.check.verify_cores;
        // Building the state populates `fence_coords` (the fence-wrap
        // pass runs there); force it before snapshotting the map, or
        // the very first query would see no coordinates.
        self.ensure_state(stats)?;
        let coords = self.fence_coords.clone();
        let mut prov_out: Option<Provenance> = None;
        let result = self.with_bounds(
            model,
            active_sites,
            active_toggles,
            stats,
            |sx, enc, asm, stats| {
                // The spec-membership circuit is a pure definition: cache it
                // per spec, so the fence-inference loop (same spec, different
                // activation vector) encodes it once.
                let no_match = enc.spec_no_match(spec);
                let bad = enc.cnf.or(enc.error_lit, no_match);
                let mut a = asm.to_vec();
                a.push(bad);
                let t = Instant::now();
                let r = enc.cnf.solver.solve_with(&a);
                stats.solve_time += t.elapsed();
                match r {
                    SolveResult::Unsat => {
                        if prov {
                            // The decisive solve's final-conflict core —
                            // extraction itself costs zero extra solves.
                            let raw: Vec<Lit> = enc
                                .cnf
                                .solver
                                .unsat_core()
                                .map(<[Lit]>::to_vec)
                                .unwrap_or_default();
                            let (core, minimized) = match min_ticks {
                                Some(budget) => {
                                    let t = Instant::now();
                                    let out = enc
                                        .cnf
                                        .solver
                                        .minimize_core(Some(budget))
                                        .unwrap_or((raw, false));
                                    stats.solve_time += t.elapsed();
                                    out
                                }
                                None => (raw, false),
                            };
                            if verify {
                                verify_core(enc, &core, minimized);
                            }
                            prov_out =
                                Some(classify_core(enc, model, &core, bad, &coords, minimized));
                        }
                        Ok(Round::Bounded(CheckOutcome::Pass))
                    }
                    SolveResult::Unknown => Err(exhausted_err(&enc.cnf.solver)),
                    SolveResult::Sat => {
                        if prov {
                            // A witness carries its assumption
                            // environment: the model, the fences present
                            // in the program it ran against, and the
                            // active candidate/toggle vectors.
                            let mut w = Provenance::witness(enc.model_name(model));
                            w.fences = coords.values().cloned().collect();
                            w.candidate_fences = active_sites.to_vec();
                            w.toggles = active_toggles.to_vec();
                            w.fences.sort();
                            w.candidate_fences.sort_unstable();
                            w.toggles.sort_unstable();
                            prov_out = Some(w);
                        }
                        let cx = decode_failure(sx, enc, model, asm, no_match, |enc, a| {
                            let t = Instant::now();
                            let r = enc.cnf.solver.solve_with(a);
                            stats.solve_time += t.elapsed();
                            r
                        })?;
                        Ok(Round::Final(CheckOutcome::Fail(Box::new(cx))))
                    }
                }
            },
        );
        if result.is_ok() {
            self.last_provenance = prov_out;
        }
        result
    }

    /// The
    /// [`QueryKind::CommitMethod`](crate::query::QueryKind::CommitMethod)
    /// body: runs the commit-point method (the Fig. 12 baseline) under
    /// `mode`, reusing the persistent encoding; the abstract machine
    /// circuit is built once per session and gated on a per-machine
    /// literal, so commit queries coexist with observation queries on
    /// one solver. Phase timings accumulate into `stats` — also on the
    /// error path — and the caller stamps `total_time`.
    ///
    /// # Errors
    ///
    /// [`CheckError::SymExec`] if an operation lacks commit annotations;
    /// the usual infrastructure errors otherwise.
    pub(crate) fn query_commit(
        &mut self,
        mode: Mode,
        ty: AbstractType,
        stats: &mut PhaseStats,
    ) -> Result<CheckOutcome, CheckError> {
        self.stats.queries += 1;
        self.with_bounds_commit(mode, ty, stats)
    }

    // ------------------------------------------------------------ internals

    /// Builds (or reuses) the encoding for the current loop bounds.
    fn ensure_state(&mut self, stats: &mut PhaseStats) -> Result<(), CheckError> {
        let check = &self.config.check;
        if self.state.is_none() {
            if self.config.provenance && self.prov_harness.is_none() {
                let (wrapped, coords) = wrap_fences(self.harness);
                self.prov_harness = Some(Box::new(wrapped));
                self.fence_coords = coords;
            }
            let harness: &Harness = self.prov_harness.as_deref().unwrap_or(self.harness);
            let sx = execute(harness, self.test, &self.bounds, check.spin_bound)?;
            self.stats.symexecs += 1;
            let t0 = Instant::now();
            let range = analyze(&sx, check.range_analysis);
            let mut enc = Encoding::build_full(
                &sx,
                &range,
                self.config.modes,
                &self.config.specs,
                check.order_encoding,
                self.config.provenance,
            );
            stats.encode_time += t0.elapsed();
            self.stats.encodes += 1;
            cf_trace::emit("encode", || {
                vec![
                    ("vars", cf_trace::u(enc.cnf.num_vars() as u64)),
                    ("clauses", cf_trace::u(enc.cnf.num_clauses())),
                    // Unit clauses propagate eagerly while the CNF is
                    // built (outside any solve call), so the fresh
                    // solver's tick count here is exactly the
                    // encode-phase solver work — the profile needs it
                    // to close the attribution ledger.
                    ("ticks", cf_trace::u(enc.cnf.solver.stats().ticks())),
                    ("encode_us", cf_trace::u(t0.elapsed().as_micros() as u64)),
                ]
            });
            let overflow_act = if enc.exceeded.is_empty() {
                None
            } else {
                let act = enc.cnf.fresh();
                let mut clause = vec![!act];
                clause.extend(enc.exceeded.iter().map(|(_, l)| *l));
                enc.cnf.clause(clause);
                Some(act)
            };
            self.state = Some(State {
                sx,
                enc,
                overflow_act,
                commit_cache: Vec::new(),
            });
        }
        let st = self.state.as_mut().expect("state built");
        st.enc.cnf.solver.set_conflict_budget(check.conflict_budget);
        st.enc.cnf.solver.set_tick_budget(check.tick_budget);
        st.enc.cnf.solver.set_deadline(self.config.deadline_at);
        st.enc.cnf.solver.set_config(check.solver_config);
        // The trace observer on the solver: re-armed on every query so
        // enabling/disabling tracing between batches takes effect. Each
        // solve call reports its result and counter deltas into the
        // ambient trace lane (the engine's per-query scope).
        st.enc.cnf.solver.set_solve_hook(if cf_trace::enabled() {
            Some(cf_sat::SolveHook::new(|ev| {
                cf_trace::emit("sat_solve", || {
                    let result = match ev.result {
                        SolveResult::Sat => "sat",
                        SolveResult::Unsat => "unsat",
                        SolveResult::Unknown => "unknown",
                    };
                    vec![
                        ("result", cf_trace::s(result)),
                        ("ticks", cf_trace::u(ev.delta.ticks())),
                        ("conflicts", cf_trace::u(ev.delta.conflicts)),
                        ("propagations", cf_trace::u(ev.delta.propagations)),
                    ]
                });
            }))
        } else {
            None
        });
        Ok(())
    }

    /// The assumption prefix of a query: model selectors plus the
    /// activation polarity of every candidate fence site and every
    /// mutation toggle site. Sites absent from both lists are pinned
    /// inactive, so the default query always checks the original
    /// program.
    fn base_assumptions(
        enc: &Encoding,
        model: ModelSel,
        active_sites: &[u32],
        active_toggles: &[u32],
    ) -> Vec<Lit> {
        let mut asm = enc.model_assumptions(model);
        // Provenance-gated spec axioms: the selected spec's per-axiom
        // gates must be assumed on, or the solver would simply drop an
        // axiom instead of finding a real counterexample. Empty unless
        // the encoding was built with provenance.
        asm.extend(enc.axiom_assumptions(model));
        for (&site, &act) in &enc.fence_acts {
            asm.push(if active_sites.contains(&site) {
                act
            } else {
                !act
            });
        }
        for (&site, &act) in &enc.toggle_acts {
            asm.push(if active_toggles.contains(&site) {
                act
            } else {
                !act
            });
        }
        asm
    }

    /// Solves the bound-overflow query; `Some(keys)` lists the loops to
    /// grow. The query runs under the same mode/fence assumptions as the
    /// payload, so bounds only grow for executions the query can see.
    fn overflow_keys(
        st: &mut State,
        base: &[Lit],
        stats: &mut PhaseStats,
    ) -> Result<Option<Vec<String>>, CheckError> {
        let Some(act) = st.overflow_act else {
            return Ok(None);
        };
        let mut asm = base.to_vec();
        asm.push(act);
        let t = Instant::now();
        let r = st.enc.cnf.solver.solve_with(&asm);
        stats.solve_time += t.elapsed();
        match r {
            SolveResult::Sat => Ok(Some(st.enc.exceeded_keys())),
            SolveResult::Unsat => Ok(None),
            SolveResult::Unknown => Err(exhausted_err(&st.enc.cnf.solver)),
        }
    }

    fn grow_bounds(&mut self, keys: Vec<String>) {
        cf_trace::emit("bound_grow", || {
            vec![("loops", cf_trace::u(keys.len() as u64))]
        });
        for key in keys {
            *self.bounds.entry(key).or_insert(1) += 1;
        }
        // Bounds changed: the unrolling (and therefore the encoding and
        // all solver state) is stale.
        self.state = None;
    }

    /// The session analogue of the one-shot lazy-bounds loop (§3.3):
    /// reuse the persistent encoding, re-encoding only when a query
    /// discovers executions past the current bounds.
    fn with_bounds<T>(
        &mut self,
        model: ModelSel,
        active_sites: &[u32],
        active_toggles: &[u32],
        stats: &mut PhaseStats,
        mut payload: impl FnMut(
            &SymExec,
            &mut Encoding,
            &[Lit],
            &mut PhaseStats,
        ) -> Result<Round<T>, CheckError>,
    ) -> Result<T, CheckError> {
        for round in 0..self.config.check.max_bound_rounds {
            stats.bound_rounds = round + 1;
            self.ensure_state(stats)?;
            let st = self.state.as_mut().expect("state built");
            let sat0 = *st.enc.cnf.solver.stats();
            let base = Self::base_assumptions(&st.enc, model, active_sites, active_toggles);
            // Overflow first: the payload may add (gated) clauses, but
            // more importantly a pass is only bound-valid if no execution
            // escapes the bounds under these assumptions.
            let overflow = Self::overflow_keys(st, &base, stats)?;
            let mut asm = base;
            asm.extend(st.enc.exceeded.iter().map(|(_, l)| !*l));
            let result = payload(&st.sx, &mut st.enc, &asm, stats);
            stats.unrolled = st.sx.stats;
            stats.sat_vars = st.enc.cnf.num_vars();
            stats.sat_clauses = st.enc.cnf.num_clauses();
            let sat1 = st.enc.cnf.solver.stats().since(&sat0);
            stats.sat_conflicts += sat1.conflicts;
            stats.sat_propagations += sat1.propagations;
            stats.sat_solves += sat1.solves;
            match result? {
                Round::Final(t) => return Ok(t),
                Round::Bounded(t) => match overflow {
                    None => return Ok(t),
                    Some(keys) => self.grow_bounds(keys),
                },
            }
        }
        Err(CheckError::BoundsDiverged {
            keys: self.bounds.keys().cloned().collect(),
        })
    }

    /// The commit-point query body (separate from [`Self::with_bounds`]
    /// because the machine circuit is cached in session state).
    fn with_bounds_commit(
        &mut self,
        mode: Mode,
        ty: AbstractType,
        stats: &mut PhaseStats,
    ) -> Result<CheckOutcome, CheckError> {
        for round in 0..self.config.check.max_bound_rounds {
            stats.bound_rounds = round + 1;
            self.ensure_state(stats)?;
            let st = self.state.as_mut().expect("state built");
            let sat0 = *st.enc.cnf.solver.stats();
            let base = Self::base_assumptions(&st.enc, ModelSel::Builtin(mode), &[], &[]);
            let overflow = Self::overflow_keys(st, &base, stats)?;
            let (gate, mismatch) = match st.commit_cache.iter().find(|(t, _, _)| *t == ty) {
                Some(&(_, g, m)) => (g, m),
                None => {
                    let te = Instant::now();
                    let gate = st.enc.cnf.fresh();
                    let mismatch = encode_abstract_machine(&st.sx, &mut st.enc, ty, gate)?;
                    stats.encode_time += te.elapsed();
                    st.commit_cache.push((ty, gate, mismatch));
                    (gate, mismatch)
                }
            };
            let mut asm = base;
            asm.extend(st.enc.exceeded.iter().map(|(_, l)| !*l));
            asm.push(gate);
            let bad = st.enc.cnf.or(st.enc.error_lit, mismatch);
            let mut refute = asm.clone();
            refute.push(bad);
            let mut solve = |enc: &mut Encoding, a: &[Lit]| {
                let t = Instant::now();
                let r = enc.cnf.solver.solve_with(a);
                stats.solve_time += t.elapsed();
                r
            };
            // `None` is a pass; a failure or exhaustion is final.
            let fin = match solve(&mut st.enc, &refute) {
                SolveResult::Sat => Some(
                    decode_failure(
                        &st.sx,
                        &mut st.enc,
                        ModelSel::Builtin(mode),
                        &asm,
                        mismatch,
                        solve,
                    )
                    .map(|cx| CheckOutcome::Fail(Box::new(cx))),
                ),
                SolveResult::Unknown => Some(Err(exhausted_err(&st.enc.cnf.solver))),
                SolveResult::Unsat => None,
            };
            stats.iterations += 1;
            stats.unrolled = st.sx.stats;
            stats.sat_vars = st.enc.cnf.num_vars();
            stats.sat_clauses = st.enc.cnf.num_clauses();
            let sat1 = st.enc.cnf.solver.stats().since(&sat0);
            stats.sat_conflicts += sat1.conflicts;
            stats.sat_propagations += sat1.propagations;
            stats.sat_solves += sat1.solves;
            if let Some(outcome) = fin {
                return outcome;
            }
            match overflow {
                None => return Ok(CheckOutcome::Pass),
                Some(keys) => self.grow_bounds(keys),
            }
        }
        Err(CheckError::BoundsDiverged {
            keys: self.bounds.keys().cloned().collect(),
        })
    }
}

/// Base of the synthetic toggle-site numbering that makes real fences
/// assumption-addressable for provenance — far above anything the
/// mutation planner or fence-inference driver assigns, so the two site
/// spaces cannot collide.
pub(crate) const FENCE_SITE_BASE: u32 = 1_000_000;

/// Returns a copy of the harness with every real fence wrapped in a
/// synthetic [`Stmt::Toggle`] site (`orig` = the fence, `mutant` =
/// nothing), plus the site → source-coordinate map. Assuming the site
/// *inactive* keeps the fence, so a `!act` literal in a PASS core names
/// that fence as load-bearing. Mirrors the enumeration rules of
/// `cf-algos::fences::fence_sites`: document order per procedure,
/// `lock`/`unlock` helpers excluded, no descent into existing toggle
/// branches (ablation instrumentation already owns those fences).
fn wrap_fences(harness: &Harness) -> (Harness, BTreeMap<u32, String>) {
    let mut wrapped = harness.clone();
    let mut coords = BTreeMap::new();
    let mut next = FENCE_SITE_BASE;
    for proc in &mut wrapped.program.procedures {
        if proc.name.contains("lock") {
            continue;
        }
        let name = proc.name.clone();
        let (mut classic, mut c11) = (0usize, 0usize);
        wrap_fences_in(
            &mut proc.body,
            &name,
            &mut classic,
            &mut c11,
            &mut next,
            &mut coords,
        );
    }
    (wrapped, coords)
}

fn wrap_fences_in(
    stmts: &mut [Stmt],
    proc: &str,
    classic: &mut usize,
    c11: &mut usize,
    next: &mut u32,
    coords: &mut BTreeMap<u32, String>,
) {
    for s in stmts.iter_mut() {
        let coord = match s {
            // Classic fences share their index space with
            // `FenceSite::index_in_proc`, so provenance coordinates
            // line up with the ablation matrix and `--analyze` output.
            Stmt::Fence(kind) => {
                let coord = format!("{proc}#{} ({})", *classic, *kind);
                *classic += 1;
                coord
            }
            Stmt::CFence(ord) => {
                let coord = format!("{proc}#c{} (fence({}))", *c11, *ord);
                *c11 += 1;
                coord
            }
            Stmt::Atomic(body) | Stmt::Block { body, .. } => {
                wrap_fences_in(body, proc, classic, c11, next, coords);
                continue;
            }
            _ => continue,
        };
        let site = *next;
        *next += 1;
        coords.insert(site, coord);
        let fence = std::mem::replace(
            s,
            Stmt::Toggle {
                site,
                orig: Vec::new(),
                mutant: Vec::new(),
            },
        );
        if let Stmt::Toggle { orig, .. } = s {
            orig.push(fence);
        }
    }
}

/// Maps a PASS core's literals back to named artifacts. Every entry of
/// the core is one of the query's assumptions, so classification is a
/// lookup against the encoding's literal vocabularies; anything not
/// matched below is a model-selector polarity, covered by the `model`
/// field.
fn classify_core(
    enc: &Encoding,
    model: ModelSel,
    core: &[Lit],
    bad: Lit,
    fence_coords: &BTreeMap<u32, String>,
    minimized: bool,
) -> Provenance {
    let mut p = Provenance {
        kind: ProvenanceKind::Proof,
        model: enc.model_name(model),
        axioms: Vec::new(),
        fences: Vec::new(),
        candidate_fences: Vec::new(),
        toggles: Vec::new(),
        bounds_gate: false,
        spec_gate: false,
        core_size: core.len(),
        minimized,
    };
    p.spec_gate = core.contains(&bad);
    p.bounds_gate = enc.exceeded.iter().any(|&(_, l)| core.contains(&!l));
    for (&site, &act) in &enc.fence_acts {
        if core.contains(&act) {
            p.candidate_fences.push(site);
        }
    }
    for (&site, &act) in &enc.toggle_acts {
        match fence_coords.get(&site) {
            // A wrapped real fence is assumed *inactive* (fence kept),
            // so `!act` in the core means the proof leans on it.
            Some(coord) => {
                if core.contains(&!act) {
                    p.fences.push(coord.clone());
                }
            }
            // A mutation toggle in the core with its *active* polarity
            // means the proof leans on the mutant branch; the inactive
            // polarity (proof needs the original statements) is not an
            // artifact we name.
            None => {
                if core.contains(&act) {
                    p.toggles.push(site);
                }
            }
        }
    }
    if let ModelSel::Spec(i) = model {
        if let Some(gates) = enc.axiom_acts.get(i) {
            for (label, g) in gates {
                if core.contains(g) {
                    p.axioms.push(label.clone());
                }
            }
        }
    }
    p.fences.sort();
    p
}

/// The [`CheckConfig::verify_cores`] self-check: the core alone must
/// reproduce Unsat, and a completely minimized core must be locally
/// minimal. Budget exhaustion (Unknown) skips a probe instead of
/// failing it.
fn verify_core(enc: &mut Encoding, core: &[Lit], minimized: bool) {
    let r = enc.cnf.solver.solve_with(core);
    assert!(
        !matches!(r, SolveResult::Sat),
        "provenance core does not reproduce the Unsat verdict"
    );
    if minimized {
        for i in 0..core.len() {
            let mut probe = core.to_vec();
            probe.remove(i);
            let r = enc.cnf.solver.solve_with(&probe);
            assert!(
                !matches!(r, SolveResult::Unsat),
                "minimized provenance core is not locally minimal (element {i} is redundant)"
            );
        }
    }
}
