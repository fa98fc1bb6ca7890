//! The three workloads: how each builds its inputs from the seed, runs
//! one pass over its requests, checks every verdict against its known
//! answer and collects the counters its public results return.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cf_algos::{ablation, lamport, tests, treiber, Algo, Variant};
use cf_memmodel::{Mode, ModeSet};
use cf_spec::ModelSpec;
use cf_synth::{run_corpus, synthesize, CorpusConfig, CorpusVerdict, SynthBounds};
use checkfence::mutate::{run_mutation_matrix, MatrixConfig, MutantVerdict, MutationPlan};
use checkfence::{
    analyze, execute, mine_reference, CheckConfig, Encoding, Engine, EngineConfig, Harness,
    LoopBounds, Query, TestSpec,
};

use crate::pins::Pins;
use crate::spans::Tracer;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Relaxed-model inclusion checks of the fenced Fig. 10 builds.
    Fig10Check,
    /// Fig. 11-style mutant × model matrices with a `.cfm` column.
    MutantMatrix,
    /// `cf-synth` corpus sweeps of unfenced builds.
    SynthSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig10Check,
        Workload::MutantMatrix,
        Workload::SynthSweep,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10Check => "fig10-check",
            Workload::MutantMatrix => "mutant-matrix",
            Workload::SynthSweep => "synth-sweep",
        }
    }

    /// Engine workers. An inclusion check is one formula and cannot
    /// shard, so fig10-check runs one worker; the batch workloads shard
    /// across at most two.
    pub fn jobs(self) -> usize {
        match self {
            Workload::Fig10Check => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        }
    }
}

/// The Fig. 10 checks: the paper's largest formulas.
const FIG10: [(Algo, &str); 5] = [
    (Algo::Ms2, "Ti2"),
    (Algo::Harris, "Sac"),
    (Algo::Lazylist, "Sac"),
    (Algo::Msn, "Ti2"),
    (Algo::Snark, "D0"),
];

/// Model columns of the mutant matrices: the five built-ins, then the
/// bundled `relaxed.cfm`, whose column must equal the built-in one.
const MATRIX_RELAXED: usize = 4;
const MATRIX_SPEC: usize = 5;

/// A small deterministic generator (SplitMix64) for the seeded draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// The indices of `0..n` a run keeps: all but a tenth (rounded
    /// down), in ascending order.
    fn draw(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(n - n / 10);
        idx.sort_unstable();
        idx
    }
}

/// One inclusion check of fig10-check.
pub struct Check {
    pub label: String,
    pub harness: Harness,
    pub test: TestSpec,
}

/// One mutant matrix of mutant-matrix.
pub struct Subject {
    pub label: String,
    pub harness: Harness,
    pub test: TestSpec,
    pub plan: MutationPlan,
}

/// One corpus sweep of synth-sweep.
pub struct Sweep {
    pub label: String,
    pub harness: Harness,
    pub tests: Vec<TestSpec>,
}

/// The generated inputs of a workload; each element is one request.
pub enum Inputs {
    Fig10(Vec<Check>),
    Matrix(ModelSpec, Vec<Subject>),
    Synth(Vec<Sweep>),
}

impl Inputs {
    pub fn labels(&self) -> Vec<&str> {
        match self {
            Inputs::Fig10(v) => v.iter().map(|c| c.label.as_str()).collect(),
            Inputs::Matrix(_, v) => v.iter().map(|s| s.label.as_str()).collect(),
            Inputs::Synth(v) => v.iter().map(|s| s.label.as_str()).collect(),
        }
    }
}

/// Time spent in each set-up layer.
#[derive(Default)]
pub struct SetupStats {
    pub minic: Duration,
    pub minic_stmts: usize,
    pub spec: Duration,
    pub synth: Duration,
    pub synth_shapes: usize,
}

/// Builds a workload's inputs. With a seed, mutation points and
/// synthesized shapes are drawn from it; without one (pin derivation)
/// every point and shape is kept.
pub fn setup(w: Workload, seed: Option<u64>, tracer: &mut Tracer) -> (Inputs, SetupStats) {
    let mut stats = SetupStats::default();
    let mut rng = seed.map(Rng::new);
    let mut draw = |n: usize| match rng.as_mut() {
        Some(r) => r.draw(n),
        None => (0..n).collect(),
    };
    let inputs = match w {
        Workload::Fig10Check => Inputs::Fig10(
            FIG10
                .iter()
                .map(|&(algo, test)| Check {
                    label: format!("{}/{test}", algo.name()),
                    harness: compiled(tracer, &mut stats, || algo.harness(Variant::Fenced), |h| h),
                    test: tests::by_name(test).expect("catalog test"),
                })
                .collect(),
        ),
        Workload::MutantMatrix => {
            let (spec, d) = tracer.span("cf_spec::compile", || {
                cf_spec::compile(cf_spec::bundled::RELAXED).expect("bundled relaxed.cfm compiles")
            });
            stats.spec += d;
            let mut subjects = Vec::new();
            for name in ablation::subjects() {
                // Compiles the fenced build and parses the subject's
                // catalog tests.
                let subject = compiled(
                    tracer,
                    &mut stats,
                    || ablation::subject(name).expect("known ablation subject"),
                    |s| &s.harness,
                );
                let mut plan = MutationPlan::build(&subject.harness.program, &subject.mutation);
                let keep = draw(plan.points.len());
                plan.points = keep.iter().map(|&i| plan.points[i].clone()).collect();
                for test in subject.tests {
                    subjects.push(Subject {
                        label: format!("{name}/{}", test.name),
                        harness: subject.harness.clone(),
                        test,
                        plan: plan.clone(),
                    });
                }
            }
            Inputs::Matrix(spec, subjects)
        }
        Workload::SynthSweep => {
            let mut sweeps = Vec::new();
            for (label, bounds) in [
                ("treiber-unfenced", SynthBounds::new(2, 2)),
                ("lamport-unfenced", SynthBounds::new(2, 1)),
            ] {
                let harness = compiled(
                    tracer,
                    &mut stats,
                    || match label {
                        "treiber-unfenced" => treiber::harness(Variant::Unfenced),
                        _ => lamport::harness(Variant::Unfenced),
                    },
                    |h| h,
                );
                let (corpus, d) =
                    tracer.span("cf_synth::synthesize", || synthesize(&harness.ops, &bounds));
                stats.synth += d;
                stats.synth_shapes += corpus.tests.len();
                let keep = draw(corpus.tests.len());
                sweeps.push(Sweep {
                    label: label.to_string(),
                    tests: keep.iter().map(|&i| corpus.tests[i].clone()).collect(),
                    harness,
                });
            }
            Inputs::Synth(sweeps)
        }
    };
    (inputs, stats)
}

/// Runs a bundled harness constructor — `cf_minic::compile` on the
/// algorithm's source plus its operation table — inside the mini-C span.
fn compiled<T>(
    tracer: &mut Tracer,
    stats: &mut SetupStats,
    build: impl FnOnce() -> T,
    harness: impl Fn(&T) -> &Harness,
) -> T {
    let (built, d) = tracer.span("cf_minic::compile", build);
    stats.minic += d;
    stats.minic_stmts += harness(&built).program.num_stmts();
    built
}

/// Per-layer figures, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

pub fn add(layers: &mut Layers, key: &'static str, value: f64) {
    *layers.entry(key).or_insert(0.0) += value;
}

/// What one pass over a workload's requests produced.
#[derive(Default)]
pub struct Pass {
    pub wall: Duration,
    /// Wall time per request, indexed like [`Inputs::labels`].
    pub requests: Vec<Duration>,
    /// Cells (one verdict each) the pass attempted.
    pub cells: u64,
    /// Cells that errored, stayed inconclusive or disagreed with their
    /// known answer.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
    /// Counters the public results return; they must repeat exactly.
    pub counters: BTreeMap<String, u64>,
    /// Per-layer figures the public results return.
    pub layers: Layers,
}

impl Pass {
    fn fail(&mut self, cells: u64, what: String) {
        self.failed += cells;
        self.notes.push(what);
    }

    fn count(&mut self, request: &str, name: &str, value: u64) {
        self.counters.insert(format!("{request}/{name}"), value);
    }

    fn solver(&mut self, request: &str, s: &cf_sat::Stats) {
        self.count(request, "sat.conflicts", s.conflicts);
        self.count(request, "sat.propagations", s.propagations);
        self.count(request, "sat.ticks", s.ticks());
        for (key, v) in [
            ("sat.solves", s.solves),
            ("sat.conflicts", s.conflicts),
            ("sat.propagations", s.propagations),
            ("sat.decisions", s.decisions),
            ("sat.ticks", s.ticks()),
            ("sat.assumed_literals", s.assumed_literals),
            ("sat.learnt_literals", s.learnt_literals),
        ] {
            add(&mut self.layers, key, v as f64);
        }
    }
}

/// Answers every request once, in `order`, with `jobs` engine workers.
pub fn run_pass(
    inputs: &Inputs,
    order: &[usize],
    jobs: usize,
    pins: &Pins,
    tracer: &mut Tracer,
    pass_id: usize,
) -> Pass {
    let mut pass = Pass {
        requests: vec![Duration::ZERO; order.len()],
        ..Pass::default()
    };
    let t0 = Instant::now();
    for &i in order {
        tracer.at(pass_id, i);
        let t = Instant::now();
        match inputs {
            Inputs::Fig10(checks) => check(&checks[i], tracer, &mut pass),
            Inputs::Matrix(spec, subjects) => {
                matrix(spec, &subjects[i], jobs, pins, tracer, &mut pass)
            }
            Inputs::Synth(sweeps) => sweep(&sweeps[i], jobs, pins, tracer, &mut pass),
        }
        pass.requests[i] = t.elapsed();
    }
    pass.wall = t0.elapsed();
    pass
}

/// A fig10-check request: mine the spec, then check inclusion on a
/// fresh engine. The paper reports every fenced build as passing.
fn check(c: &Check, tracer: &mut Tracer, pass: &mut Pass) {
    let key = c.label.as_str();
    pass.cells += 1;
    let (mined, _) = tracer.span("checkfence::mine_reference", || {
        mine_reference(&c.harness, &c.test)
    });
    let spec = match mined {
        Ok(m) => m.spec,
        Err(e) => return pass.fail(1, format!("{key}: mining failed: {e}")),
    };
    let mut engine = Engine::new(EngineConfig::single(Mode::Relaxed));
    let query = Query::check_inclusion(&c.harness, &c.test, spec).on(Mode::Relaxed);
    let (verdict, _) = tracer.span("Engine::run", || engine.run(&query));
    match verdict {
        Ok(v) => {
            if v.inconclusive().is_some() {
                pass.fail(1, format!("{key}: inconclusive"));
                add(&mut pass.layers, "engine.inconclusive", 1.0);
            } else if !v.passed() {
                pass.fail(1, format!("{key}: FAIL, expected PASS"));
            }
            pass.count(key, "encode.vars", v.phase.sat_vars as u64);
            pass.count(key, "encode.clauses", v.phase.sat_clauses);
            add(&mut pass.layers, "sat.ms", ms(v.phase.solve_time));
        }
        Err(e) => pass.fail(1, format!("{key}: {e}")),
    }
    pass.solver(key, &engine.solver_stats());
    let e = engine.stats();
    pass.count(key, "encode.calls", u64::from(e.encodes));
    add(&mut pass.layers, "engine.sessions", e.sessions as f64);
    add(&mut pass.layers, "engine.queries", f64::from(e.queries));
    add(&mut pass.layers, "symexec.calls", f64::from(e.symexecs));
}

fn matrix_config(spec: &ModelSpec, jobs: usize) -> MatrixConfig {
    MatrixConfig {
        modes: Mode::all().to_vec(),
        specs: vec![spec.clone()],
        jobs,
        ..MatrixConfig::default()
    }
}

/// Renders a matrix row as one character per model column.
fn matrix_cells(verdicts: &[MutantVerdict]) -> String {
    verdicts.iter().map(MutantVerdict::cell).collect()
}

/// A mutant-matrix request: one mutant × model matrix, every cell
/// checked against its pin and the `.cfm` column against the built-in.
fn matrix(
    spec: &ModelSpec,
    s: &Subject,
    jobs: usize,
    pins: &Pins,
    tracer: &mut Tracer,
    pass: &mut Pass,
) {
    let key = s.label.as_str();
    let config = matrix_config(spec, jobs);
    let cells = (s.plan.points.len() as u64 + 1) * config.models().len() as u64;
    pass.cells += cells;
    let (report, _) = tracer.span("checkfence::mutate::run_mutation_matrix", || {
        run_mutation_matrix(&s.harness, &s.test, &s.plan, &config)
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => return pass.fail(cells, format!("{key}: {e}")),
    };
    let rows = std::iter::once((
        "base".to_string(),
        &report.baseline,
        "unmutated".to_string(),
    ))
    .chain(
        report
            .rows
            .iter()
            .map(|r| (r.point.to_string(), &r.verdicts, r.description.clone())),
    );
    for (row, verdicts, description) in rows {
        let got = matrix_cells(verdicts);
        let inconclusive = verdicts
            .iter()
            .filter(|v| matches!(v, MutantVerdict::Inconclusive(_)))
            .count();
        add(&mut pass.layers, "engine.inconclusive", inconclusive as f64);
        let spec_differs = verdicts[MATRIX_RELAXED] != verdicts[MATRIX_SPEC];
        match pins.get(key, &row) {
            Some((want, pinned)) if pinned == description => {
                let n = differing(&got, want).max(usize::from(spec_differs));
                if n > 0 {
                    let what = format!(
                        "{key} {row}: {got}, pinned {want} (relaxed.cfm column is the last)"
                    );
                    pass.fail(n as u64, what);
                }
            }
            _ => pass.fail(
                verdicts.len() as u64,
                format!("{key} {row} ({description}): no pin"),
            ),
        }
    }
    pass.solver(key, &report.solver);
    pass.count(key, "encode.calls", u64::from(report.session.encodes));
    add(&mut pass.layers, "engine.sessions", report.sessions as f64);
    add(
        &mut pass.layers,
        "engine.queries",
        f64::from(report.session.queries),
    );
    add(
        &mut pass.layers,
        "symexec.calls",
        f64::from(report.session.symexecs),
    );
}

/// Renders a corpus row as one character per model column.
fn corpus_cells(verdicts: &[CorpusVerdict]) -> String {
    verdicts
        .iter()
        .map(|v| match v {
            CorpusVerdict::Pass => 'p',
            CorpusVerdict::Fail => 'F',
            CorpusVerdict::Diverged => 'd',
            CorpusVerdict::Error(_) => 'e',
            CorpusVerdict::Inconclusive => '?',
        })
        .collect()
}

/// A synth-sweep request: one corpus sweep, every cell checked against
/// its pin.
fn sweep(s: &Sweep, jobs: usize, pins: &Pins, tracer: &mut Tracer, pass: &mut Pass) {
    let key = s.label.as_str();
    let config = CorpusConfig {
        jobs,
        ..CorpusConfig::default()
    };
    let (report, _) = tracer.span("cf_synth::run_corpus", || {
        run_corpus(&s.harness, &s.tests, &config)
    });
    let columns = report.model_names.len() as u64;
    pass.cells += report.rows.len() as u64 * columns;
    for row in &report.rows {
        let got = corpus_cells(&row.verdicts);
        let name = &row.test.name;
        let inconclusive = row
            .verdicts
            .iter()
            .filter(|v| **v == CorpusVerdict::Inconclusive);
        add(
            &mut pass.layers,
            "engine.inconclusive",
            inconclusive.count() as f64,
        );
        let (want, _) = pins.get(key, name).unwrap_or_default();
        let n = differing(&got, want);
        if n > 0 {
            let why = row.mine_error.as_deref().unwrap_or_default();
            pass.fail(
                n as u64,
                format!("{key} {name}: {got}, pinned `{want}` {why}"),
            );
        }
    }
    for (name, v) in [
        ("encode.calls", u64::from(report.encodes)),
        ("engine.queries", u64::from(report.queries)),
        ("synth.inferred", report.inferred as u64),
        ("cycles.triaged", report.triaged as u64),
    ] {
        pass.count(key, name, v);
    }
    add(&mut pass.layers, "engine.sessions", report.sessions as f64);
    add(
        &mut pass.layers,
        "engine.queries",
        f64::from(report.queries),
    );
    // A session runs one symbolic execution per encoding.
    add(&mut pass.layers, "symexec.calls", f64::from(report.encodes));
    add(&mut pass.layers, "synth.inferred", report.inferred as f64);
    add(&mut pass.layers, "cycles.triaged", report.triaged as f64);
    add(
        &mut pass.layers,
        "corpus.cells",
        (report.rows.len() as u64 * columns) as f64,
    );
}

/// Cells that differ from the pin or stayed undecided (`?`).
fn differing(got: &str, want: &str) -> usize {
    if got.len() != want.len() {
        return got.len().max(want.len());
    }
    got.chars()
        .zip(want.chars())
        .filter(|&(g, w)| g != w || g == '?')
        .count()
}

/// Runs the layers the engine calls internally — symbolic execution,
/// range analysis, encoding and cycle analysis — once per distinct
/// harness × test of the inputs, each inside its own span, so their
/// cost shows separately. Returns a failure line per probe that errs.
pub fn probe(
    inputs: &Inputs,
    pass_id: usize,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Vec<String> {
    let check = CheckConfig::default();
    let mut failures = Vec::new();
    let mut widths = Vec::new();
    let mut ratios = Vec::new();
    let mut units: Vec<(Cow<Harness>, &TestSpec, Option<&ModelSpec>)> = Vec::new();
    match inputs {
        Inputs::Fig10(checks) => {
            units.extend(
                checks
                    .iter()
                    .map(|c| (Cow::Borrowed(&c.harness), &c.test, None)),
            );
        }
        Inputs::Matrix(spec, subjects) => {
            for s in subjects {
                let instrumented = Harness {
                    program: s.plan.instrumented.clone(),
                    ..s.harness.clone()
                };
                units.push((Cow::Owned(instrumented), &s.test, Some(spec)));
            }
        }
        Inputs::Synth(sweeps) => {
            for s in sweeps {
                units.extend(s.tests.iter().map(|t| (Cow::Borrowed(&s.harness), t, None)));
            }
        }
    }
    // Static triage runs only in corpus sweeps.
    let triage = matches!(inputs, Inputs::Synth(_));
    for (request, (harness, test, spec)) in units.into_iter().enumerate() {
        tracer.at(pass_id, request);
        if triage {
            let (_, d) = tracer.span("checkfence::cycles::analyze", || {
                checkfence::cycles::analyze(&harness, test)
            });
            add(layers, "cycles.ms", ms(d));
        }
        let (sx, d) = tracer.span("checkfence::execute", || {
            execute(&harness, test, &LoopBounds::new(), check.spin_bound)
        });
        let sx = match sx {
            Ok(sx) => sx,
            Err(e) => {
                failures.push(format!(
                    "{} {}: symbolic execution failed: {}",
                    harness.name, test.name, e.message
                ));
                continue;
            }
        };
        add(layers, "symexec.ms", ms(d));
        let accesses = sx.stats.loads + sx.stats.stores;
        add(layers, "symexec.accesses", accesses as f64);
        let (range, d) = tracer.span("checkfence::analyze", || analyze(&sx, check.range_analysis));
        add(layers, "range.ms", ms(d));
        widths.push(range.int_width as f64);
        if let Some(spec) = spec {
            // The same relaxed model through both paths: built-in clauses
            // and the compiled `.cfm` spec.
            let mut vars = |modes: ModeSet, specs: &[ModelSpec]| {
                let (enc, _) = tracer.span("Encoding::build_full", || {
                    Encoding::build_full(&sx, &range, modes, specs, check.order_encoding, false)
                });
                enc.cnf.num_vars() as f64
            };
            let builtin = vars(ModeSet::single(Mode::Relaxed), &[]);
            let compiled = vars(ModeSet::empty(), std::slice::from_ref(spec));
            ratios.push(compiled / builtin);
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    if !widths.is_empty() {
        layers.insert("range.int_width", mean(&widths));
    }
    if !ratios.is_empty() {
        layers.insert("encode.spec_var_ratio", mean(&ratios));
    }
    failures
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Re-derives a workload's pins from the one-shot oracles, checking on
/// the way that the engine path agrees with them cell for cell.
/// Returns the pin file's text.
pub fn derive_pins(w: Workload) -> Result<String, String> {
    let mut tracer = Tracer::new();
    let (inputs, _) = setup(w, None, &mut tracer);
    let jobs = w.jobs();
    let mut out = String::new();
    match &inputs {
        Inputs::Fig10(_) => return Err("fig10-check has no pins: every check must PASS".into()),
        Inputs::Matrix(spec, subjects) => {
            out.push_str("# request row cells(serial sc tso pso relaxed relaxed.cfm) mutation\n");
            let config = matrix_config(spec, jobs);
            for s in subjects {
                let key = &s.label;
                let engine = run_mutation_matrix(&s.harness, &s.test, &s.plan, &config)
                    .map_err(|e| format!("{key}: {e}"))?;
                let oneshot = checkfence::mutate::run_mutation_matrix_oneshot(
                    &s.harness,
                    &s.test,
                    &s.plan,
                    &MatrixConfig {
                        jobs: 1,
                        ..config.clone()
                    },
                )
                .map_err(|e| format!("{key} (one-shot): {e}"))?;
                if engine.baseline != oneshot.baseline {
                    return Err(format!("{key}: baseline differs from the one-shot oracle"));
                }
                out.push_str(&format!(
                    "{key} base {} unmutated\n",
                    matrix_cells(&oneshot.baseline)
                ));
                for (a, b) in engine.rows.iter().zip(&oneshot.rows) {
                    if a.verdicts != b.verdicts {
                        return Err(format!(
                            "{key} {}: engine differs from the one-shot oracle",
                            b.point
                        ));
                    }
                    if b.verdicts[MATRIX_RELAXED] != b.verdicts[MATRIX_SPEC] {
                        return Err(format!(
                            "{key} {}: relaxed.cfm disagrees with relaxed",
                            b.point
                        ));
                    }
                    out.push_str(&format!(
                        "{key} {} {} {}\n",
                        b.point,
                        matrix_cells(&b.verdicts),
                        b.description
                    ));
                }
            }
        }
        Inputs::Synth(sweeps) => {
            out.push_str("# request test cells(sc tso pso relaxed): p pass, F fail\n");
            let config = CorpusConfig {
                jobs,
                ..CorpusConfig::default()
            };
            for s in sweeps {
                let report = run_corpus(&s.harness, &s.tests, &config);
                for row in &report.rows {
                    let spec = mine_reference(&s.harness, &row.test)
                        .map_err(|e| format!("{} {}: {e}", s.label, row.test.name))?
                        .spec;
                    let spec = std::sync::Arc::new(spec);
                    let oneshot: Vec<CorpusVerdict> = config
                        .modes
                        .iter()
                        .map(|&m| {
                            match Query::check_inclusion(&s.harness, &row.test, spec.clone())
                                .on(m)
                                .run()
                            {
                                Ok(v) if v.inconclusive().is_some() => CorpusVerdict::Inconclusive,
                                Ok(v) if v.passed() => CorpusVerdict::Pass,
                                Ok(_) => CorpusVerdict::Fail,
                                Err(e) => CorpusVerdict::Error(e.to_string()),
                            }
                        })
                        .collect();
                    let cells = corpus_cells(&oneshot);
                    if corpus_cells(&row.verdicts) != cells || cells.contains(['?', 'e', 'd']) {
                        return Err(format!(
                            "{} {}: sweep {} vs one-shot {cells}",
                            s.label,
                            row.test.name,
                            corpus_cells(&row.verdicts)
                        ));
                    }
                    out.push_str(&format!("{} {} {cells}\n", s.label, row.test.name));
                }
            }
        }
    }
    Ok(out)
}
