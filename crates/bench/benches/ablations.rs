//! Reproduction extensions beyond the paper's figures:
//!
//! * **solver feature ablation** — which CDCL ingredients (restarts,
//!   phase saving, VSIDS, clause-DB reduction) the inclusion checks
//!   actually rely on (the paper treats zChaff as a black box);
//! * **memory-model sweep** — inclusion-check outcome and runtime across
//!   SC / TSO / PSO / Relaxed, extending the paper's §4.4 SC-vs-Relaxed
//!   comparison and making the §4.2 architecture remark measurable;
//! * **Treiber stack extension** — Table-1-style inventory row and the
//!   model sweep for the sixth data type;
//! * **Lamport SPSC extension** — the fence-free ring buffer whose
//!   repair needs all three fence kinds (including the load-store
//!   fence none of the paper's five algorithms required).

use std::time::Instant;

use cf_algos::{fences, lamport, msn, tests, treiber, Variant};
use cf_bench::secs;
use cf_memmodel::Mode;
use cf_sat::SolverConfig;
use checkfence::infer::{infer, InferConfig};
use checkfence::{mine_reference, Engine, EngineConfig, Harness, Query, TestSpec};

fn main() {
    model_sweep();
    treiber_extension();
    lamport_extension();
    solver_ablation();
}

/// Outcome of one budgeted inclusion check.
enum Run {
    Done { passed: bool, secs: f64 },
    Budget,
}

fn check_time(h: &Harness, t: &TestSpec, mode: Mode, config: SolverConfig) -> Run {
    let spec = mine_reference(h, t).expect("mines").spec;
    let mut engine = EngineConfig::single(mode);
    engine.check.solver_config = config;
    // Weak configurations (e.g. no VSIDS) can be orders of magnitude
    // slower; cap them so the ablation terminates. No retry ladder:
    // a blown budget should report as such, not re-run 8x larger.
    engine.check.conflict_budget = Some(100_000);
    engine.check.max_retries = 0;
    let t0 = Instant::now();
    match Engine::new(engine).run(&Query::check_inclusion(h, t, spec).on(mode)) {
        Ok(v) if v.inconclusive().is_some() => Run::Budget,
        Ok(v) => Run::Done {
            passed: v.passed(),
            secs: t0.elapsed().as_secs_f64(),
        },
        Err(e) => panic!("{e}"),
    }
}

/// Which solver features matter for refuting the inclusion formulas.
fn solver_ablation() {
    println!("Ablation: SAT solver features (msn/Ti2 inclusion check, Relaxed)");
    println!("{:<24} {:>12} {:>8}", "configuration", "total[s]", "pass");
    let h = msn::harness(Variant::Fenced);
    let t = tests::by_name("Ti2").expect("catalog");
    let all = SolverConfig::default();
    let configs: [(&str, SolverConfig); 6] = [
        ("all features", all),
        (
            "no restarts",
            SolverConfig {
                restarts: false,
                ..all
            },
        ),
        (
            "no phase saving",
            SolverConfig {
                phase_saving: false,
                ..all
            },
        ),
        (
            "no VSIDS",
            SolverConfig {
                vsids: false,
                ..all
            },
        ),
        (
            "no DB reduction",
            SolverConfig {
                db_reduction: false,
                ..all
            },
        ),
        (
            "none (plain DPLL+CL)",
            SolverConfig {
                restarts: false,
                phase_saving: false,
                vsids: false,
                db_reduction: false,
            },
        ),
    ];
    for (name, config) in configs {
        match check_time(&h, &t, Mode::Relaxed, config) {
            Run::Done { passed, secs } => println!(
                "{:<24} {:>12.3} {:>8}",
                name,
                secs,
                if passed { "yes" } else { "NO!" }
            ),
            Run::Budget => println!("{:<24} {:>12} {:>8}", name, "> budget", "-"),
        }
    }
    println!();
}

/// Outcome and runtime across the model chain, per fence configuration
/// of msn. TSO passes unfenced; PSO needs the store-store placements;
/// Relaxed needs all of Fig. 9.
fn model_sweep() {
    println!("Model sweep: msn builds x {{sc, tso, pso, relaxed}} (test T0)");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "build", "sc", "tso", "pso", "relaxed"
    );
    let builds: [(&str, Harness); 4] = [
        ("unfenced", msn::harness(Variant::Unfenced)),
        ("ss-only", msn::harness_with_kinds(false, true)),
        ("ll-only", msn::harness_with_kinds(true, false)),
        ("full (Fig. 9)", msn::harness(Variant::Fenced)),
    ];
    let t = tests::by_name("T0").expect("catalog");
    for (name, h) in &builds {
        let mut cells = Vec::new();
        for mode in Mode::hardware() {
            match check_time(h, &t, mode, SolverConfig::default()) {
                Run::Done { passed, secs } => cells.push(format!(
                    "{} {}",
                    if passed { "pass" } else { "FAIL" },
                    format_args!("{secs:.2}s")
                )),
                Run::Budget => cells.push("budget".into()),
            }
        }
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10}",
            name, cells[0], cells[1], cells[2], cells[3]
        );
    }
    println!();
}

/// The Treiber stack: inventory row, model sweep and fence inference.
fn treiber_extension() {
    println!("Extension: Treiber stack (sixth data type)");
    let h = treiber::harness(Variant::Fenced);
    println!(
        "  inventory: {} procs, {} stmts, {} fences",
        h.program.procedures.len(),
        h.program.num_stmts(),
        fences::fence_sites(&h.program).len()
    );
    let u0 = tests::by_name("U0").expect("catalog");
    let ui2 = tests::by_name("Ui2").expect("catalog");
    for (name, build) in [
        ("unfenced", treiber::harness(Variant::Unfenced)),
        ("fenced", treiber::harness(Variant::Fenced)),
    ] {
        let mut cells = Vec::new();
        for mode in Mode::hardware() {
            match check_time(&build, &u0, mode, SolverConfig::default()) {
                Run::Done { passed, secs } => cells.push(format!(
                    "{}={} ({secs:.2}s)",
                    mode.name(),
                    if passed { "pass" } else { "FAIL" }
                )),
                Run::Budget => cells.push(format!("{}=budget", mode.name())),
            }
        }
        println!("  {name:<9} U0: {}", cells.join("  "));
    }
    // Fence inference on the unfenced build against both stack tests.
    let unfenced = treiber::harness(Variant::Unfenced);
    let config = InferConfig {
        kinds: vec![cf_lsl::FenceKind::LoadLoad, cf_lsl::FenceKind::StoreStore],
        procs: Some(vec!["push".into(), "pop".into()]),
        ..InferConfig::default()
    };
    let t0 = Instant::now();
    let r = infer(&unfenced, &[u0, ui2], Mode::Relaxed, &config).expect("inference");
    println!(
        "  inference: kept {} of {} candidates in {} checks, {}s",
        r.kept.len(),
        r.candidates,
        r.checks,
        secs(t0.elapsed())
    );
    for site in &r.kept {
        println!("    keep {site}");
    }
    println!();
}

/// Lamport's SPSC ring buffer: per-kind fence builds across the models.
fn lamport_extension() {
    println!("Extension: Lamport SPSC queue (seventh data type)");
    let fenced = lamport::harness(Variant::Fenced);
    println!(
        "  inventory: {} procs, {} stmts, {} fences (2 ll + 1 ss + 2 ls)",
        fenced.program.procedures.len(),
        fenced.program.num_stmts(),
        fences::fence_sites(&fenced.program).len()
    );
    let full = std::env::var("CHECKFENCE_FULL").is_ok_and(|v| v == "1");
    let tn = if full { "Lpc3" } else { "Lpc2" };
    let t = tests::by_name(tn).expect("catalog");
    println!(
        "  builds x models on {tn} (capacity 1; Lpc3 adds the wrap-around — \
         set CHECKFENCE_FULL=1):"
    );
    println!(
        "  {:<16} {:>10} {:>10} {:>10} {:>10}",
        "build", "sc", "tso", "pso", "relaxed"
    );
    let builds: [(&str, Harness); 4] = [
        ("unfenced", lamport::harness(Variant::Unfenced)),
        ("ss-only", lamport::harness_with_kinds(false, true, false)),
        ("ss+ll", lamport::harness_with_kinds(true, true, false)),
        ("ss+ll+ls (full)", lamport::harness(Variant::Fenced)),
    ];
    for (name, h) in &builds {
        let mut cells = Vec::new();
        for mode in Mode::hardware() {
            match check_time(h, &t, mode, SolverConfig::default()) {
                Run::Done { passed, secs } => cells.push(format!(
                    "{} {}",
                    if passed { "pass" } else { "FAIL" },
                    format_args!("{secs:.2}s")
                )),
                Run::Budget => cells.push("budget".into()),
            }
        }
        println!(
            "  {:<16} {:>10} {:>10} {:>10} {:>10}",
            name, cells[0], cells[1], cells[2], cells[3]
        );
    }
}
