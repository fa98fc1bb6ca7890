//! Randomized query/oneshot equivalence: mixed [`Query`] batches over
//! treiber/ms2 answered by [`Engine::run_batch`] must return exactly the
//! verdicts of the one-shot [`oracle`]s on concretely mutated builds —
//! query ≡ oneshot, on every sampled point of the (kind × model ×
//! toggles) space.
//!
//! The generator is a deterministic xorshift (matching the
//! `mutation_equiv.rs` style), so failures replay bit for bit.

use cf_algos::{ms2, msn, tests, treiber, Variant};
use cf_memmodel::{Mode, ModeSet};
use cf_sat::xorshift::Rng;
use checkfence::mutate::{MutationConfig, MutationPlan};
use checkfence::{
    mine_reference, oracle, CheckConfig, CheckOutcome, Engine, EngineConfig, FailureKind, Harness,
    ObsSet, Query, TestSpec,
};

/// What a query answered, reduced to comparable data.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Inclusion verdict: pass, or the failure kind's debug name.
    Check(Option<String>),
    /// Enumerated observation vectors.
    Obs(ObsSet),
    /// Loop bounds diverged — a verdict for mutants (the livelock
    /// symptom), and it must diverge identically on every path.
    Diverged,
}

fn of_outcome(o: &CheckOutcome) -> Outcome {
    Outcome::Check(match o {
        CheckOutcome::Pass => None,
        CheckOutcome::Fail(cx) => Some(format!("{:?}", cx.kind)),
    })
}

/// Folds a result into a comparable outcome, treating bound divergence
/// as data and anything else as an infrastructure failure.
fn fold<T>(r: Result<T, checkfence::CheckError>, f: impl FnOnce(T) -> Outcome) -> Outcome {
    match r {
        Ok(v) => f(v),
        Err(checkfence::CheckError::BoundsDiverged { .. }) => Outcome::Diverged,
        Err(e) => panic!("infrastructure error: {e}"),
    }
}

/// One sampled point of the query space.
struct Sample {
    mode: Mode,
    /// Active toggle sites (empty = original program).
    toggles: Vec<u32>,
    /// `true` = inclusion check, `false` = observation enumeration.
    check: bool,
}

fn sample(rng: &mut Rng, max_site: u32) -> Sample {
    let mode = Mode::hardware()[rng.below(4) as usize];
    let toggles = if max_site > 0 && rng.below(2) == 0 {
        vec![rng.below(u64::from(max_site)) as u32]
    } else {
        vec![]
    };
    Sample {
        mode,
        toggles,
        // Enumeration is the rarer, costlier query shape.
        check: rng.below(4) != 0,
    }
}

/// Runs the sampled batch through the engine and the oracles on one
/// subject.
fn assert_oneshot_equivalence(h: &Harness, t: &TestSpec, seed: u64, n: usize) {
    let plan = MutationPlan::build(
        &h.program,
        &MutationConfig {
            procs: None,
            ..MutationConfig::default()
        },
    );
    assert!(!plan.points.is_empty(), "{}: nothing planned", h.name);
    let instrumented = Harness {
        name: format!("{}+mutants", h.name),
        program: plan.instrumented.clone(),
        init_proc: h.init_proc.clone(),
        ops: h.ops.clone(),
    };
    let spec = mine_reference(h, t).expect("mines").spec;

    let mut rng = Rng::new(seed);
    let samples: Vec<Sample> = (0..n)
        .map(|_| sample(&mut rng, plan.points.len() as u32))
        .collect();

    // Path 1: the engine, batch-scheduled across 3 workers (also
    // exercising the shard scheduler's determinism).
    let mut engine = Engine::new(
        EngineConfig::from_check_config(&CheckConfig::default(), ModeSet::all()).with_jobs(3),
    );
    let queries: Vec<Query> = samples
        .iter()
        .map(|s| {
            let q = if s.check {
                Query::check_inclusion(&instrumented, t, spec.clone())
            } else {
                Query::enumerate(&instrumented, t)
            };
            q.on(s.mode).with_toggles(&s.toggles)
        })
        .collect();
    let engine_outcomes: Vec<Outcome> = engine
        .run_batch(&queries)
        .into_iter()
        .map(|v| {
            // The batch path must surface real phase stats — a past
            // regression filled `PhaseStats::default()` here, so a
            // default-looking phase on a solved verdict is a bug.
            if let Ok(v) = &v {
                assert!(
                    v.phase.sat_solves >= 1 && v.phase.sat_vars > 0,
                    "{}: batch verdict dropped its solver phase stats",
                    h.name
                );
                assert!(
                    v.phase.total_time > std::time::Duration::ZERO,
                    "{}: batch verdict carries no elapsed time",
                    h.name
                );
            }
            fold(v, |v| match v.answer {
                checkfence::Answer::Outcome(o) => of_outcome(&o),
                checkfence::Answer::Observations(obs) => Outcome::Obs(obs),
                // No budgets are configured on any path of this suite.
                checkfence::Answer::Inconclusive { reason, .. } => {
                    panic!("unbudgeted run came back inconclusive: {reason}")
                }
            })
        })
        .collect();
    // One pool key, sharded: every session encodes exactly once.
    let stats = engine.stats();
    assert_eq!(stats.encodes as usize, stats.sessions, "{}", h.name);

    // Path 2: the one-shot oracles on concretely mutated builds.
    for (i, s) in samples.iter().enumerate() {
        let build = match s.toggles.first() {
            None => h.clone(),
            Some(&id) => Harness {
                name: format!("{}+m{id}", h.name),
                program: plan.mutant(id),
                init_proc: h.init_proc.clone(),
                ops: h.ops.clone(),
            },
        };
        let config = CheckConfig::default();
        let oneshot = if s.check {
            fold(
                oracle::check_inclusion(&build, t, s.mode, &spec, &config),
                |r| of_outcome(&r.outcome),
            )
        } else {
            fold(oracle::enumerate(&build, t, s.mode, &config), Outcome::Obs)
        };
        assert_eq!(
            engine_outcomes[i],
            oneshot,
            "{}/{} sample {i}: engine and one-shot oracle disagree (mode {}, toggles {:?})",
            h.name,
            t.name,
            s.mode.name(),
            s.toggles
        );
    }
}

#[test]
fn treiber_random_query_batches_match_oneshot() {
    let h = treiber::harness(Variant::Fenced);
    let t = tests::by_name("U0").expect("catalog");
    assert_oneshot_equivalence(&h, &t, 0x5EED_CAFE, 10);
}

#[test]
fn ms2_random_query_batches_match_oneshot() {
    let h = ms2::harness(Variant::Fenced);
    let t = tests::by_name("T0").expect("catalog");
    assert_oneshot_equivalence(&h, &t, 0xFACE_FEED, 10);
}

/// The failure kind belongs to the program, not to the first witness
/// the solver finds. Unfenced msn `T0` under relaxed has both kinds of
/// failing execution: some dereference an invalid address, and some
/// error-free ones observe what no serial execution does. Against the
/// mined spec the engine and the oracle must both report the
/// inconsistency; against the relaxed model's own observation set no
/// error-free execution mismatches, so both must report the error.
#[test]
fn engine_and_oracle_agree_on_the_failure_kind() {
    let h = msn::harness(Variant::Unfenced);
    let t = tests::by_name("T0").expect("catalog");
    let config = CheckConfig::default();
    let mined = mine_reference(&h, &t).expect("mines").spec;
    let relaxed = oracle::enumerate(&h, &t, Mode::Relaxed, &config).expect("enumerates");
    for (spec, want) in [
        (mined, FailureKind::InconsistentObservation),
        (relaxed, FailureKind::RuntimeError),
    ] {
        let engine = Query::check_inclusion(&h, &t, spec.clone())
            .on(Mode::Relaxed)
            .run()
            .expect("engine checks")
            .into_outcome()
            .expect("outcome");
        let oneshot = oracle::check_inclusion(&h, &t, Mode::Relaxed, &spec, &config)
            .expect("oracle checks")
            .outcome;
        for (path, outcome) in [("engine", engine), ("oracle", oneshot)] {
            match outcome {
                CheckOutcome::Fail(cx) => assert_eq!(cx.kind, want, "{path}: {cx}"),
                CheckOutcome::Pass => panic!("{path}: unfenced msn must fail on relaxed"),
            }
        }
    }
}

#[test]
fn mining_queries_match_the_oneshot_oracle() {
    for h in [
        treiber::harness(Variant::Fenced),
        ms2::harness(Variant::Fenced),
    ] {
        let t = tests::by_name(if h.name.contains("treiber") {
            "U0"
        } else {
            "T0"
        })
        .expect("catalog");
        let query = Query::mine(&h, &t)
            .run()
            .expect("engine mining")
            .into_observations()
            .expect("observations");
        let oneshot = oracle::mine(&h, &t, &CheckConfig::default())
            .expect("oneshot")
            .spec;
        assert_eq!(query, oneshot, "{}: engine vs one-shot mining", h.name);
    }
}

#[test]
fn commit_queries_match_the_oneshot_oracle() {
    use checkfence::commit::AbstractType;
    let h = treiber::harness(Variant::Fenced);
    let t = tests::by_name("U0").expect("catalog");
    for mode in [Mode::Sc, Mode::Relaxed] {
        let query = Query::commit_method(&h, &t, AbstractType::Stack)
            .on(mode)
            .run()
            .expect("engine commit");
        let oneshot =
            oracle::commit_method(&h, &t, mode, AbstractType::Stack, &CheckConfig::default())
                .expect("oneshot commit");
        assert_eq!(
            of_outcome(query.outcome().expect("outcome")),
            of_outcome(&oneshot.outcome),
            "{}: engine vs one-shot commit on {}",
            h.name,
            mode.name()
        );
    }
}
