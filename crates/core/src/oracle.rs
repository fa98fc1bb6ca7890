//! The one-shot oracles: one independent answer per question.
//!
//! Each function answers exactly one question with a fresh symbolic
//! execution, a fresh encoding and a cold solver — the pipeline of the
//! paper (§3.2), inside the lazy loop-unrolling procedure of §3.3. They
//! share the encoder with the incremental sessions behind
//! [`Engine`](crate::Engine), but none of the session machinery
//! (selector and activation assumptions, gated query-local clauses,
//! pooling, the retry ladder), which is what makes them the reference of
//! the equivalence suites and the "before" series of the benchmarks.
//! Real checking goes through [`Query`](crate::Query) values.
//!
//! | question | oracle | engine query |
//! |---|---|---|
//! | mine the serial observation set | [`mine`] | [`Query::mine`](crate::Query::mine) |
//! | enumerate observations on a model | [`enumerate`] | [`Query::enumerate`](crate::Query::enumerate) |
//! | check inclusion on a model | [`check_inclusion`] | [`Query::check_inclusion`](crate::Query::check_inclusion) |
//! | the commit-point method (Fig. 12) | [`commit_method`] | [`Query::commit_method`](crate::Query::commit_method) |
//!
//! Budget exhaustion surfaces as [`CheckError::Exhausted`]: there is no
//! retry ladder here.

use std::collections::BTreeSet;
use std::time::Instant;

use cf_memmodel::{Mode, ModeSet};
use cf_sat::{Lit, SolveResult};
use cf_spec::ModelSpec;

use crate::checker::{
    decode_counterexample, diagnose_serializability, exhausted_err, CheckConfig, CheckError,
    CheckOutcome, FailureKind, InclusionResult, MiningResult, ObsSet, PhaseStats,
};
use crate::commit::{encode_abstract_machine, AbstractType};
use crate::encode::{Encoding, ModelSel};
use crate::range::analyze;
use crate::symexec::{execute, LoopBounds, SymExec};
use crate::test_spec::{Harness, TestSpec};

/// The memory model an oracle encodes: a built-in mode or a compiled
/// declarative spec. Either way the encoding holds that one model.
#[derive(Clone, Copy, Debug)]
pub enum Model<'a> {
    /// A built-in memory model.
    Builtin(Mode),
    /// A compiled declarative model.
    Spec(&'a ModelSpec),
}

impl From<Mode> for Model<'_> {
    fn from(mode: Mode) -> Self {
        Model::Builtin(mode)
    }
}

impl<'a> From<&'a ModelSpec> for Model<'a> {
    fn from(spec: &'a ModelSpec) -> Self {
        Model::Spec(spec)
    }
}

impl<'a> Model<'a> {
    /// The single-model universe passed to [`Encoding::build_full`], and
    /// the selector of the model within it.
    fn universe(self) -> (ModeSet, &'a [ModelSpec], ModelSel) {
        match self {
            Model::Builtin(mode) => (ModeSet::single(mode), &[], ModelSel::Builtin(mode)),
            Model::Spec(spec) => (
                ModeSet::empty(),
                std::slice::from_ref(spec),
                ModelSel::Spec(0),
            ),
        }
    }
}

/// Mines the observation set of all serial executions with the SAT
/// encoding under Seriality (§3.2 "Specification mining").
///
/// # Errors
///
/// [`CheckError::SerialBug`] if a serial execution raises a runtime
/// error (itself a verification result, e.g. the lazy-list
/// initialization bug); infrastructure errors otherwise.
pub fn mine(
    harness: &Harness,
    test: &TestSpec,
    config: &CheckConfig,
) -> Result<MiningResult, CheckError> {
    let serial = Model::Builtin(Mode::Serial);
    let (spec, stats) = with_bounds(harness, test, serial, config, |sx, enc, sel, asm, stats| {
        // Any serial execution with an error is a sequential bug.
        let mut with_err = asm.to_vec();
        with_err.push(enc.error_lit);
        match solve(enc, &with_err, stats) {
            SolveResult::Sat => {
                let name = enc.model_name(sel);
                let cx = decode_counterexample(sx, enc, FailureKind::SerialError, name);
                return Err(CheckError::SerialBug(Box::new(cx)));
            }
            SolveResult::Unknown => return Err(exhausted_err(&enc.cnf.solver)),
            SolveResult::Unsat => {}
        }
        enumerate_clean(enc, asm, stats)
    })?;
    Ok(MiningResult { spec, stats })
}

/// Enumerates the observations of all error-free executions under
/// `model` by iterated solving with blocking clauses. On litmus-sized
/// programs the result must agree with explicit enumeration of the
/// model's axioms, which the property tests check.
///
/// # Errors
///
/// Infrastructure errors only.
pub fn enumerate<'a>(
    harness: &Harness,
    test: &TestSpec,
    model: impl Into<Model<'a>>,
    config: &CheckConfig,
) -> Result<ObsSet, CheckError> {
    let model = model.into();
    let (obs, _) = with_bounds(harness, test, model, config, |_, enc, _, asm, stats| {
        enumerate_clean(enc, asm, stats)
    })?;
    Ok(obs)
}

/// Checks that every execution under `model` observes a member of
/// `spec` and raises no runtime error, decoding a counterexample trace
/// when one does not.
///
/// # Errors
///
/// Infrastructure errors only; verification failures are reported as
/// [`CheckOutcome::Fail`].
pub fn check_inclusion<'a>(
    harness: &Harness,
    test: &TestSpec,
    model: impl Into<Model<'a>>,
    spec: &ObsSet,
    config: &CheckConfig,
) -> Result<InclusionResult, CheckError> {
    let model = model.into();
    let (outcome, stats) =
        with_bounds(harness, test, model, config, |sx, enc, sel, asm, stats| {
            // no_match := obs ∉ S
            let mut no_match = enc.cnf.tt();
            for o in &spec.vectors {
                let mut all_eq = enc.cnf.tt();
                for (i, v) in o.iter().enumerate() {
                    let e = enc.obs[i].clone();
                    let eq = enc.enc_eq_const(&e, v);
                    all_eq = enc.cnf.and(all_eq, eq);
                }
                no_match = enc.cnf.and(no_match, !all_eq);
            }
            refute(sx, enc, sel, asm, no_match, stats)
        })?;
    Ok(InclusionResult { outcome, stats })
}

/// Runs the commit-point method (the Fig. 12 baseline) under `mode`:
/// one solver query against the annotated commit order, evaluated by
/// the abstract machine of `ty`, without observation enumeration.
///
/// # Errors
///
/// [`CheckError::SymExec`] if an operation lacks commit annotations;
/// the usual infrastructure errors otherwise.
pub fn commit_method(
    harness: &Harness,
    test: &TestSpec,
    mode: Mode,
    ty: AbstractType,
    config: &CheckConfig,
) -> Result<InclusionResult, CheckError> {
    let model = Model::Builtin(mode);
    let (outcome, stats) =
        with_bounds(harness, test, model, config, |sx, enc, sel, asm, stats| {
            let te = Instant::now();
            let tt = enc.cnf.tt();
            let mismatch = encode_abstract_machine(sx, enc, ty, tt)?;
            stats.encode_time += te.elapsed();
            stats.iterations += 1;
            refute(sx, enc, sel, asm, mismatch, stats)
        })?;
    Ok(InclusionResult { outcome, stats })
}

/// Whether a payload result depends on the loop bounds being sufficient.
enum Round<T> {
    /// Valid regardless of loop bounds (a within-bounds counterexample).
    Final(T),
    /// Valid only if no execution exceeds the bounds (a pass / a spec).
    Bounded(T),
}

/// Runs `payload` on an encoding of the single model `model` with
/// lazily refined loop bounds (§3.3) and returns its result with the
/// phase statistics of the whole run.
///
/// The payload runs restricted to within-bounds executions and reports
/// whether its result is *final* (a counterexample: "the loop bounds
/// are irrelevant in that case") or *bound-sensitive* (a pass or an
/// observation set, valid only if the bounds cover all executions).
/// Before it runs, the oracle solves for an execution exceeding the
/// bounds; if one exists and the result is bound-sensitive, the
/// affected loop bounds grow and the round repeats on a fresh encoding.
fn with_bounds<T>(
    harness: &Harness,
    test: &TestSpec,
    model: Model<'_>,
    config: &CheckConfig,
    mut payload: impl FnMut(
        &SymExec,
        &mut Encoding,
        ModelSel,
        &[Lit],
        &mut PhaseStats,
    ) -> Result<Round<T>, CheckError>,
) -> Result<(T, PhaseStats), CheckError> {
    let t0 = Instant::now();
    let mut stats = PhaseStats::default();
    let (modes, specs, sel) = model.universe();
    let mut bounds = LoopBounds::new();
    // One deadline covers the whole question, bound-growth rounds
    // included; tick budgets are per solve call.
    let deadline_at = config.deadline.map(|d| t0 + d);
    for round in 0..config.max_bound_rounds {
        stats.bound_rounds = round + 1;
        let sx = execute(harness, test, &bounds, config.spin_bound)?;
        let te = Instant::now();
        let range = analyze(&sx, config.range_analysis);
        let mut enc = Encoding::build_full(&sx, &range, modes, specs, config.order_encoding, false);
        stats.encode_time += te.elapsed();
        stats.unrolled = sx.stats;
        enc.cnf.solver.set_conflict_budget(config.conflict_budget);
        enc.cnf.solver.set_tick_budget(config.tick_budget);
        enc.cnf.solver.set_deadline(deadline_at);
        enc.cnf.solver.set_config(config.solver_config);

        // Empty: a single-model encoding folds its selector to `tt`.
        let mut assumptions = enc.model_assumptions(sel);
        // Check for overflow first so the payload's clauses cannot hide
        // exceeded executions; a *failing* payload result is still
        // returned below even when bounds are insufficient (failures
        // are within-bounds witnesses).
        let overflow = if enc.exceeded.is_empty() {
            false
        } else {
            let act = enc.cnf.fresh();
            let mut clause = vec![!act];
            clause.extend(enc.exceeded.iter().map(|(_, l)| *l));
            enc.cnf.clause(clause);
            let mut probe = assumptions.clone();
            probe.push(act);
            match solve(&mut enc, &probe, &mut stats) {
                SolveResult::Sat => {
                    for key in enc.exceeded_keys() {
                        *bounds.entry(key).or_insert(1) += 1;
                    }
                    true
                }
                SolveResult::Unsat => {
                    enc.cnf.assert_lit(!act);
                    false
                }
                SolveResult::Unknown => return Err(exhausted_err(&enc.cnf.solver)),
            }
        };
        assumptions.extend(enc.exceeded.iter().map(|(_, l)| !*l));
        let result = payload(&sx, &mut enc, sel, &assumptions, &mut stats);
        stats.sat_vars = enc.cnf.num_vars();
        stats.sat_clauses = enc.cnf.num_clauses();
        let sat = enc.cnf.solver.stats();
        stats.sat_conflicts += sat.conflicts;
        stats.sat_propagations += sat.propagations;
        stats.sat_solves += sat.solves;
        match result? {
            Round::Bounded(_) if overflow => {} // bounds insufficient: grow and retry
            Round::Final(t) | Round::Bounded(t) => {
                stats.total_time = t0.elapsed();
                return Ok((t, stats));
            }
        }
    }
    Err(CheckError::BoundsDiverged {
        keys: bounds.keys().cloned().collect(),
    })
}

/// One timed solver call.
fn solve(enc: &mut Encoding, assumptions: &[Lit], stats: &mut PhaseStats) -> SolveResult {
    let t = Instant::now();
    let r = enc.cnf.solver.solve_with(assumptions);
    stats.solve_time += t.elapsed();
    r
}

/// Solves for an execution that raises a runtime error or whose
/// `mismatch` literal holds: none is a bound-sensitive pass, one is a
/// final counterexample, decoded in memory order. Witnesses of a
/// declarative model also name the serializability axiom they break,
/// as the engine's do.
fn refute(
    sx: &SymExec,
    enc: &mut Encoding,
    sel: ModelSel,
    asm: &[Lit],
    mismatch: Lit,
    stats: &mut PhaseStats,
) -> Result<Round<CheckOutcome>, CheckError> {
    let bad = enc.cnf.or(enc.error_lit, mismatch);
    let mut a = asm.to_vec();
    a.push(bad);
    match solve(enc, &a, stats) {
        SolveResult::Unsat => Ok(Round::Bounded(CheckOutcome::Pass)),
        SolveResult::Unknown => Err(exhausted_err(&enc.cnf.solver)),
        SolveResult::Sat => {
            let kind = if enc.cnf.lit_value(enc.error_lit) {
                FailureKind::RuntimeError
            } else {
                FailureKind::InconsistentObservation
            };
            let name = enc.model_name(sel);
            let mut cx = decode_counterexample(sx, enc, kind, name);
            if matches!(sel, ModelSel::Spec(_)) && kind == FailureKind::InconsistentObservation {
                cx.violated_axiom = diagnose_serializability(sx, enc);
            }
            Ok(Round::Final(CheckOutcome::Fail(Box::new(cx))))
        }
    }
}

/// Enumerates the observations of error-free executions under the given
/// assumptions, blocking each one permanently (the encoding is thrown
/// away afterwards). Bound-sensitive.
fn enumerate_clean(
    enc: &mut Encoding,
    asm: &[Lit],
    stats: &mut PhaseStats,
) -> Result<Round<ObsSet>, CheckError> {
    let mut clean = asm.to_vec();
    clean.push(!enc.error_lit);
    let mut vectors = BTreeSet::new();
    loop {
        match solve(enc, &clean, stats) {
            SolveResult::Sat => {
                stats.iterations += 1;
                let obs = enc.decode_obs();
                let mut block: Vec<Lit> = Vec::with_capacity(obs.len());
                for (i, v) in obs.iter().enumerate() {
                    let e = enc.obs[i].clone();
                    let eq = enc.enc_eq_const(&e, v);
                    block.push(!eq);
                }
                enc.cnf.clause(block);
                vectors.insert(obs);
            }
            SolveResult::Unsat => return Ok(Round::Bounded(ObsSet { vectors })),
            SolveResult::Unknown => return Err(exhausted_err(&enc.cnf.solver)),
        }
    }
}
