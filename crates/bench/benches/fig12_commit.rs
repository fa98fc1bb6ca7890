//! Fig. 12 — observation-set method vs commit-point method.
//!
//! Runs both verification methods on the queue implementations (the
//! commit-point method requires annotations and an abstract machine; the
//! queues carry `commit(...)` markers). The paper reports an average
//! speedup of 2.61x for the observation-set method; the qualitative
//! points reproduced here are that the observation-set method needs no
//! annotations and applies to all five implementations, while the
//! commit-point method does not (the lazy list's `contains` has no
//! commit point, paper §5).
//!
//! The comparison runs under sequential consistency: under Relaxed, the
//! model's relaxation (5) — speculation past data dependences — lets a
//! commit *store* perform globally before the load it depends on, so the
//! commit order no longer witnesses a linearization and the commit-point
//! method raises false alarms that the observation-set method correctly
//! avoids (see EXPERIMENTS.md). That brittleness is part of why the
//! paper's method supersedes it.

use cf_algos::{ms2, msn, tests, Variant};
use cf_bench::secs;
use cf_memmodel::Mode;
use checkfence::{commit::AbstractType, Query};

fn main() {
    println!("Fig. 12: runtime comparison (queue tests, memory model: SC)");
    println!(
        "{:<10} {:>6} | {:>12} {:>12} {:>9} | agree",
        "impl", "test", "obs-set[s]", "commit[s]", "ratio"
    );
    let cases = [
        ("ms2", ms2::harness(Variant::Fenced)),
        ("msn", msn::harness(Variant::Fenced)),
    ];
    let test_names = if std::env::var("CHECKFENCE_FULL").is_ok_and(|v| v == "1") {
        vec!["T0", "Ti2", "Tpc2"]
    } else {
        vec!["T0", "Ti2"]
    };
    for (name, harness) in &cases {
        for tn in &test_names {
            let t = tests::by_name(tn).expect("catalog test");
            // Observation-set method: SAT mining + inclusion.
            let t0 = std::time::Instant::now();
            let obs_result = Query::mine(harness, &t).run().and_then(|m| {
                let spec = m.into_observations().expect("unbudgeted mining decides");
                Query::check_inclusion(harness, &t, spec).on(Mode::Sc).run()
            });
            let obs_time = t0.elapsed();
            // Commit-point method: single query.
            let t1 = std::time::Instant::now();
            let commit_result = Query::commit_method(harness, &t, AbstractType::Queue)
                .on(Mode::Sc)
                .run();
            let commit_time = t1.elapsed();
            match (obs_result, commit_result) {
                (Ok(o), Ok(c)) => {
                    let ratio = obs_time.as_secs_f64() / commit_time.as_secs_f64().max(1e-9);
                    println!(
                        "{:<10} {:>6} | {:>12} {:>12} {:>8.2}x | {}",
                        name,
                        tn,
                        secs(obs_time),
                        secs(commit_time),
                        ratio,
                        if o.passed() == c.passed() {
                            "yes"
                        } else {
                            "NO (methods disagree!)"
                        }
                    );
                }
                (o, c) => println!(
                    "{:<10} {:>6} | error: obs={:?} commit={:?}",
                    name,
                    tn,
                    o.err().map(|e| e.to_string()),
                    c.err().map(|e| e.to_string())
                ),
            }
        }
    }
    println!(
        "\nNote: the lazy list has no commit points (paper §5) — only the\n\
         observation-set method can verify it; see fig10 for its rows."
    );
}
