//! Batched-mutation benchmark: the Fig. 11 mutant matrix answered by
//! one incremental session vs. the per-mutant one-shot oracle, on the
//! Treiber stack and the two-lock queue.
//!
//! Run with `cargo bench -p cf-bench --bench mutate`. Writes
//! `BENCH_mutate.json` at the workspace root (override the path with
//! `CHECKFENCE_BENCH_OUT`) recording wall time, amortization counters
//! and SAT statistics for both paths. Both paths must land on identical
//! verdicts, and the batching claim is gated on deterministic counters,
//! per subject: the session path answers the whole (mutant × model)
//! matrix from one symbolic execution and one encoding with one solve
//! per cell, and the oracle encodes once per cell. The wall times and
//! their ratio are recorded for information only: a single cold-process
//! shot is too noisy to gate on.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cf_algos::ablation::{run_ablation, Oracle};
use checkfence::mutate::MutationReport;

struct Measured {
    wall_ms: f64,
    reports: Vec<MutationReport>,
}

fn run(subject: &str, oracle: Oracle) -> Measured {
    let t0 = Instant::now();
    let outcome = run_ablation(subject, &[], oracle, 1)
        .unwrap_or_else(|e| panic!("{subject} ({oracle:?}) fails: {e}"));
    Measured {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        reports: outcome.reports,
    }
}

fn totals(m: &Measured) -> (u32, u32, u64, u64, usize, usize) {
    let mut symexecs = 0;
    let mut encodes = 0;
    let mut solves = 0;
    let mut conflicts = 0;
    let mut mutants = 0;
    let mut cells = 0;
    for r in &m.reports {
        symexecs += r.session.symexecs;
        encodes += r.session.encodes;
        solves += r.solver.solves;
        conflicts += r.solver.conflicts;
        mutants += r.rows.len();
        cells += (r.rows.len() + 1) * r.models.len();
    }
    (symexecs, encodes, solves, conflicts, mutants, cells)
}

fn json_side(m: &Measured) -> String {
    let (symexecs, encodes, solves, conflicts, _, _) = totals(m);
    format!(
        "{{\"wall_ms\": {:.1}, \"symexecs\": {symexecs}, \"encodes\": {encodes}, \
         \"solves\": {solves}, \"conflicts\": {conflicts}}}",
        m.wall_ms,
    )
}

fn main() {
    let mut rows = Vec::new();
    for subject in ["treiber", "ms2"] {
        let session = run(subject, Oracle::Session);
        let oneshot = run(subject, Oracle::Oneshot);
        // Cell-for-cell verdict equivalence between the two paths.
        for (s, o) in session.reports.iter().zip(&oneshot.reports) {
            assert_eq!(s.baseline, o.baseline, "{subject}: baselines disagree");
            for (a, b) in s.rows.iter().zip(&o.rows) {
                assert_eq!(
                    a.verdicts, b.verdicts,
                    "{subject}: verdicts disagree on mutant {} ({})",
                    a.point, a.description
                );
            }
        }
        // The headline claim: one symbolic execution + one encoding per
        // (test, model-universe) answers the entire matrix, one solve per
        // cell, where the oracle pays one encoding per cell.
        for r in &session.reports {
            assert_eq!(r.session.symexecs, 1, "{subject}/{}", r.test);
            assert_eq!(r.session.encodes, 1, "{subject}/{}", r.test);
        }
        let (_, s_enc, s_solves, _, mutants, cells) = totals(&session);
        let (_, o_enc, _, _, _, _) = totals(&oneshot);
        assert_eq!(
            s_solves, cells as u64,
            "{subject}: the session must answer each cell with one solve"
        );
        assert_eq!(
            o_enc, cells as u32,
            "{subject}: the oracle must encode once per cell"
        );
        let speedup = oneshot.wall_ms / session.wall_ms.max(0.001);
        println!(
            "{subject:<10} mutants {mutants:>3}  cells {cells:>4}  session {:>8.1} ms \
             (encodes {s_enc:>2})  oneshot {:>8.1} ms (encodes {o_enc:>3})  speedup {speedup:.2}x",
            session.wall_ms, oneshot.wall_ms,
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\"name\": \"{subject}\", \"mutants\": {mutants}, \"cells\": {cells}, \
             \"session\": {}, \"oneshot\": {}, \"speedup\": {speedup:.3}}}",
            json_side(&session),
            json_side(&oneshot),
        );
        rows.push(row);
    }

    let json = format!(
        "{{\n  \"schema_version\": {},\n  \
         \"benchmark\": \"batched_mutation_matrix\",\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        cf_trace::SCHEMA_VERSION,
        rows.join(",\n")
    );
    let out = std::env::var("CHECKFENCE_BENCH_OUT").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_mutate.json")
        },
        PathBuf::from,
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}
