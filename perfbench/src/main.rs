//! CheckFence benchmark: times three workloads end to end through the
//! public `Engine`/`Query` API and splits a separate traced pass into
//! the engine's layers. See README.md for the workloads, the metrics
//! and the layer → metric map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig10-check --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --derive-pins
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod pins;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pins::Pins;
use spans::Tracer;
use workloads::{add, ms, probe, run_pass, setup, Inputs, Layers, Pass, Rng, SetupStats, Workload};

const USAGE: &str = "usage: cf-perfbench --workload <fig10-check|mutant-matrix|synth-sweep> \
[--seed N] [--seconds N] [--trace 0|1]\n       cf-perfbench --derive-pins";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measuring time used when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 30;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Timed passes per run at the least, however long they take.
const MIN_PASSES: usize = 3;
/// Traced passes per traced run: two, so that the counters only the
/// trace carries can be compared between passes too.
const TRACED_PASSES: usize = 2;

/// Span pass ids: set-up (also passed by the untraced passes, which record
/// no spans), the traced passes, then the layer probes.
const SETUP_PASS: usize = 0;
const FIRST_TRACED_PASS: usize = 1;
const PROBE_PASS: usize = FIRST_TRACED_PASS + TRACED_PASSES;

/// Every per-layer metric with its unit, in report order.
const PER_LAYER: [(&str, &str); 38] = [
    ("minic.ms", "ms"),
    ("minic.stmts", "count"),
    ("spec.ms", "ms"),
    ("synth.ms", "ms"),
    ("synth.shapes", "count"),
    ("mine.ms", "ms"),
    ("mine.observations", "count"),
    ("symexec.ms", "ms"),
    ("symexec.calls", "count"),
    ("symexec.accesses", "count"),
    ("range.ms", "ms"),
    ("range.int_width", "bits"),
    ("encode.ms", "ms"),
    ("encode.calls", "count"),
    ("encode.vars", "count"),
    ("encode.clauses", "count"),
    ("encode.spec_var_ratio", "ratio"),
    ("sat.ms", "ms"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.ticks", "count"),
    ("sat.assumed_literals", "count"),
    ("sat.learnt_literals", "count"),
    ("engine.sessions", "count"),
    ("engine.queries", "count"),
    ("engine.queries_per_encode", "ratio"),
    ("engine.retries", "count"),
    ("engine.inconclusive", "count"),
    ("engine.jobs2_speedup", "ratio"),
    ("cycles.ms", "ms"),
    ("cycles.triaged_ratio", "ratio"),
    ("synth.inferred_ratio", "ratio"),
    ("share.mine", "ratio"),
    ("share.encode", "ratio"),
    ("share.sat", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(RunArgs),
    DerivePins,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--derive-pins"] {
        return Ok(Command::DerivePins);
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                seconds = number()?;
                if !(1..=3600).contains(&seconds) {
                    return Err(format!("--seconds must be 1..=3600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(a)) => run(&a),
        Ok(Command::DerivePins) => derive_pins(),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn derive_pins() -> ExitCode {
    for w in [Workload::MutantMatrix, Workload::SynthSweep] {
        let text = match workloads::derive_pins(w) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let path = Pins::path(w);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The first counter on which two passes disagree.
fn counter_mismatch(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Option<String> {
    if let Some((k, v)) = a.iter().find(|(k, v)| b.get(*k) != Some(v)) {
        return Some(format!("{k}: {v} vs {:?}", b.get(k)));
    }
    b.keys()
        .find(|k| !a.contains_key(*k))
        .map(|k| format!("{k}: only in one pass"))
}

/// Per-layer figures and pass-total counters from the `cf-trace` events
/// the engine emits.
fn digest(events: &[cf_trace::Event]) -> (Layers, BTreeMap<String, u64>) {
    let mut layers = Layers::new();
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut count = |name: &'static str, v: u64| *totals.entry(name).or_insert(0) += v;
    for e in events {
        let get = |field: &str| e.get_u64(field).unwrap_or(0);
        match e.kind {
            "encode" => {
                count("encode.calls", 1);
                count("encode.vars", get("vars"));
                count("encode.clauses", get("clauses"));
                count("sat.ticks", get("ticks"));
                add(&mut layers, "encode.ms", get("encode_us") as f64 / 1e3);
            }
            "sat_solve" => {
                count("sat.conflicts", get("conflicts"));
                count("sat.propagations", get("propagations"));
                count("sat.ticks", get("ticks"));
            }
            "query_done" => {
                add(&mut layers, "engine.retries", get("retries") as f64);
                add(&mut layers, "sat.solves", get("solves") as f64);
                add(&mut layers, "query.ms", get("wall_us") as f64 / 1e3);
            }
            "mine_reference" => {
                add(&mut layers, "mine.ms", get("mine_us") as f64 / 1e3);
                add(&mut layers, "mine.observations", get("observations") as f64);
            }
            _ => {}
        }
    }
    for (name, v) in &totals {
        layers.insert(name, *v as f64);
    }
    let counters = totals
        .iter()
        .map(|(k, v)| (format!("pass/{k}"), *v))
        .collect();
    (layers, counters)
}

struct Traced {
    /// Public-result figures of the first traced pass.
    public: Layers,
    /// Figures digested from the first traced pass's events.
    trace: Layers,
    probe: Layers,
    speedup: Option<f64>,
    overhead: f64,
}

/// Assembles the per-layer table. A layer that does no work on this
/// workload reports 0.
fn per_layer(
    w: Workload,
    setups: &[SetupStats],
    t: &Traced,
    tracer: &Tracer,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut m = t.trace.clone();
    // Public results take precedence where both exist: they cover
    // counters (decisions, learnt literals) the events do not carry.
    for (k, v) in &t.public {
        m.insert(k, *v);
    }
    for (k, v) in &t.probe {
        m.insert(k, *v);
    }
    let setup_ms =
        |f: fn(&SetupStats) -> Duration| median(setups.iter().map(|s| ms(f(s))).collect());
    m.insert("minic.ms", setup_ms(|s| s.minic));
    m.insert("spec.ms", setup_ms(|s| s.spec));
    m.insert("synth.ms", setup_ms(|s| s.synth));
    let last = setups.last().expect("at least one set-up");
    m.insert("minic.stmts", last.minic_stmts as f64);
    m.insert("synth.shapes", last.synth_shapes as f64);
    let get = |m: &Layers, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    if !t.public.contains_key("sat.ms") {
        // Matrix and corpus results carry no solve time: take the
        // engine's query time outside encoding (it still holds symbolic
        // execution and counterexample decoding).
        let v = (get(&t.trace, "query.ms") - get(&t.trace, "encode.ms")).max(0.0);
        m.insert("sat.ms", v);
    }
    m.insert(
        "engine.queries_per_encode",
        ratio(get(&m, "engine.queries"), get(&m, "encode.calls")),
    );
    m.insert("engine.jobs2_speedup", t.speedup.unwrap_or(0.0));
    let cells = get(&m, "corpus.cells");
    m.insert(
        "cycles.triaged_ratio",
        ratio(get(&m, "cycles.triaged"), cells),
    );
    m.insert(
        "synth.inferred_ratio",
        ratio(get(&m, "synth.inferred"), cells),
    );
    if w == Workload::Fig10Check {
        // Fig. 11b split of the request time: mining, then the engine's
        // encoding side (symbolic execution, range analysis, CNF) and
        // SAT solving.
        let mine = ms(tracer.total(FIRST_TRACED_PASS, "checkfence::mine_reference"));
        let engine = ms(tracer.total(FIRST_TRACED_PASS, "Engine::run"));
        let sat = get(&m, "sat.ms");
        let total = mine + engine;
        m.insert("share.mine", ratio(mine, total));
        m.insert("share.encode", ratio(engine - sat, total));
        m.insert("share.sat", ratio(sat, total));
    }
    m.insert("trace.overhead_ratio", t.overhead);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, get(&m, name)))
        .collect()
}

/// Cells attempted and failed over a run, and counters that did not
/// repeat.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    mismatches: Vec<String>,
}

impl Tally {
    /// Adds a pass; with a reference, its counters must match it.
    fn absorb(&mut self, p: &Pass, reference: Option<&BTreeMap<String, u64>>) {
        self.attempted += p.cells;
        self.failed += p.failed;
        self.notes.extend(p.notes.iter().cloned());
        if let Some(r) = reference {
            self.mismatches.extend(counter_mismatch(r, &p.counters));
        }
    }
}

/// The traced run: a one-worker pass, the traced passes and the layer
/// probes. Returns the per-layer table.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    a: &RunArgs,
    inputs: &Inputs,
    order: &[usize],
    pins: &Pins,
    setups: &[SetupStats],
    untraced: &Pass,
    wall_s: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<(&'static str, &'static str, f64)> {
    let w = a.workload;
    let jobs = w.jobs();
    // Same inputs on one worker, for the sharding speed-up.
    let speedup = (jobs > 1).then(|| {
        let p = run_pass(inputs, order, 1, pins, tracer, SETUP_PASS);
        tally.absorb(&p, None);
        secs(p.wall) / wall_s
    });
    tracer.set_on(true);
    let mut traced: Vec<(Pass, Layers, BTreeMap<String, u64>)> = Vec::new();
    for k in 0..TRACED_PASSES {
        cf_trace::enable();
        let p = run_pass(inputs, order, jobs, pins, tracer, FIRST_TRACED_PASS + k);
        let events = cf_trace::take();
        cf_trace::disable();
        tally.absorb(&p, Some(&untraced.counters));
        let (layers, counters) = digest(&events);
        traced.push((p, layers, counters));
    }
    tally
        .mismatches
        .extend(counter_mismatch(&traced[0].2, &traced[1].2));
    let mut probe_layers = Layers::new();
    for note in probe(inputs, PROBE_PASS, tracer, &mut probe_layers) {
        tally.failed += 1;
        tally.notes.push(note);
    }
    let overhead = median(traced.iter().map(|(p, _, _)| secs(p.wall)).collect()) / wall_s;
    let (first, trace_layers, _) = traced.swap_remove(0);
    let t = Traced {
        public: first.layers,
        trace: trace_layers,
        probe: probe_layers,
        speedup,
        overhead,
    };
    let table = per_layer(w, setups, &t, tracer);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}-seed{}.spans.jsonl", w.name(), a.seed);
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.jsonl()))
    {
        eprintln!("cannot write {path}: {e}");
    }
    table
}

fn run(a: &RunArgs) -> ExitCode {
    let w = a.workload;
    let jobs = w.jobs();
    let pins = Pins::of(w);
    let mut tracer = Tracer::new();
    tracer.set_on(a.trace);

    let mut setup_times = Vec::new();
    let mut setups = Vec::new();
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        tracer.at(SETUP_PASS, rep);
        let t = Instant::now();
        let (built, stats) = setup(w, Some(a.seed), &mut tracer);
        setup_times.push(secs(t.elapsed()));
        setups.push(stats);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let labels = inputs.labels();
    let mut order: Vec<usize> = (0..labels.len()).collect();
    Rng::new(!a.seed).shuffle(&mut order);

    // Timed passes, tracing off.
    tracer.set_on(false);
    let mut passes: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    while passes.len() < MIN_PASSES || t0.elapsed() < Duration::from_secs(a.seconds) {
        passes.push(run_pass(
            &inputs,
            &order,
            jobs,
            &pins,
            &mut tracer,
            SETUP_PASS,
        ));
    }
    let mut tally = Tally::default();
    for p in &passes {
        tally.absorb(p, Some(&passes[0].counters));
    }
    let wall_s = median(passes.iter().map(|p| secs(p.wall)).collect());
    let request_medians: Vec<f64> = (0..labels.len())
        .map(|i| median(passes.iter().map(|p| secs(p.requests[i])).collect()))
        .collect();
    let geomean =
        (request_medians.iter().map(|x| x.ln()).sum::<f64>() / request_medians.len() as f64).exp();
    let layer_table = a.trace.then(|| {
        traced_run(
            a,
            &inputs,
            &order,
            &pins,
            &setups,
            &passes[0],
            wall_s,
            &mut tracer,
            &mut tally,
        )
    });

    let peak = peak_rss_mb();
    if peak.is_none() {
        tally
            .mismatches
            .push("VmHWM unavailable in /proc/self/status".into());
    }
    let Tally {
        attempted,
        failed,
        notes,
        mismatches,
    } = tally;
    let correct = failed == 0 && notes.is_empty() && mismatches.is_empty();
    let failed_ratio = failed as f64 / attempted as f64;
    let end_to_end = [
        ("setup_s", "s", median(setup_times.clone())),
        ("wall_s", "s", wall_s),
        ("request_geomean_s", "s", geomean),
        ("peak_rss_mb", "MB", peak.unwrap_or(0.0)),
        ("correct_ratio", "ratio", 1.0 - failed_ratio),
    ];

    println!(
        "# {} seed {} jobs {jobs} (available parallelism {}), {} timed passes, {} set-ups",
        w.name(),
        a.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        passes.len(),
        SETUP_REPS
    );
    let walls: Vec<f64> = passes.iter().map(|p| secs(p.wall)).collect();
    println!("# pass wall_s: {walls:?}");
    println!("# setup_s samples: {setup_times:?}");
    for (label, m) in labels.iter().zip(&request_medians) {
        println!("# request {label}: median {m:.4} s");
    }
    for (name, unit, v) in &end_to_end {
        println!("# {name} = {v} {unit}");
    }
    println!("# failed_ratio = {failed_ratio} ratio ({failed} of {attempted} cells)");
    for (name, unit, v) in layer_table.iter().flatten() {
        println!("# {name} = {v} {unit}");
    }
    for n in notes.iter().take(20) {
        println!("# FAILED {n}");
    }
    for m in &mismatches {
        println!("# NONDETERMINISTIC {m}");
    }

    let metrics: Vec<String> = layer_table
        .as_deref()
        .unwrap_or(&end_to_end)
        .iter()
        .map(|&(n, u, v)| json_metric(n, u, v))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_metric(name: &str, unit: &str, value: f64) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}
