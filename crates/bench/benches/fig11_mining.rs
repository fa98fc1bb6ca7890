//! Fig. 11 — specification mining characterization.
//!
//! * (a) observation-set size against enumeration time, for SAT-based
//!   mining and for the reference-implementation fast path (the paper's
//!   `refset` series, which is roughly an order of magnitude faster);
//! * (b) the average breakdown of total runtime into specification
//!   mining, encoding, and SAT refutation (paper: 38% / 29% / 33%);
//! * (c) the impact of disabling the range analysis on total runtime
//!   (paper: ≈42% average slowdown without it).

use std::time::Duration;

use cf_algos::{refmodel, Shape};
use cf_bench::{secs, workloads};
use cf_memmodel::Mode;
use checkfence::{mine_reference, Engine, EngineConfig, Query};

fn main() {
    println!("Fig. 11a: observation set size vs enumeration time");
    println!(
        "{:<10} {:>6} {:>6} | {:>10} {:>10} {:>10}",
        "impl", "test", "|S|", "sat[s]", "interp[s]", "refset[s]"
    );
    let mut mine_total = Duration::ZERO;
    let mut encode_total = Duration::ZERO;
    let mut solve_total = Duration::ZERO;
    let mut with_range = Vec::new();
    let mut without_range = Vec::new();
    for w in workloads() {
        // SAT-based mining (paper's default path).
        let sat = Query::mine(&w.harness, &w.test).run();
        // Interpreter enumeration of the same compiled implementation.
        let interp = mine_reference(&w.harness, &w.test);
        // Rust reference model ("refset").
        let shape = w.algo.shape();
        let t0 = std::time::Instant::now();
        let refset = refmodel::mine(shape_of(shape), &w.test);
        let ref_time = t0.elapsed();
        match (&sat, &interp) {
            (Ok(s), Ok(i)) if s.observations().is_some() => {
                let spec = s.observations().expect("checked by the guard");
                assert_eq!(spec, &i.spec, "mining paths disagree");
                assert_eq!(spec, &refset, "reference model disagrees");
                println!(
                    "{:<10} {:>6} {:>6} | {:>10} {:>10} {:>10}",
                    w.algo.name(),
                    w.test.name,
                    spec.len(),
                    secs(s.phase.total_time),
                    secs(i.stats.total_time),
                    secs(ref_time)
                );
                mine_total += s.phase.total_time;
            }
            _ => {
                println!("{:<10} {:>6}: mining failed", w.algo.name(), w.test.name);
                continue;
            }
        }
        // (b): inclusion encoding + refutation on the same workload.
        let query =
            Query::check_inclusion(&w.harness, &w.test, interp.expect("checked above").spec)
                .on(Mode::Relaxed);
        if let Ok(v) = query.run() {
            encode_total += v.phase.encode_time;
            solve_total += v.phase.solve_time;
            with_range.push(v.phase.total_time);
        }
        // (c): range analysis disabled.
        let mut no_range = EngineConfig::single(Mode::Relaxed);
        no_range.check.range_analysis = false;
        if let Ok(v) = Engine::new(no_range).run(&query) {
            without_range.push(v.phase.total_time);
        }
    }

    let total = mine_total + encode_total + solve_total;
    println!("\nFig. 11b: average runtime breakdown");
    if !total.is_zero() {
        let pct = |d: Duration| 100.0 * d.as_secs_f64() / total.as_secs_f64();
        println!(
            "  specification mining : {:5.1}%  (paper: 38%)",
            pct(mine_total)
        );
        println!(
            "  CNF encoding         : {:5.1}%  (paper: 29%)",
            pct(encode_total)
        );
        println!(
            "  SAT refutation       : {:5.1}%  (paper: 33%)",
            pct(solve_total)
        );
    }

    println!("\nFig. 11c: impact of range analysis on inclusion-check time");
    println!(
        "{:>4} {:>12} {:>15} {:>8}",
        "#", "with[s]", "without[s]", "ratio"
    );
    let mut ratios = Vec::new();
    for (i, (w, wo)) in with_range.iter().zip(&without_range).enumerate() {
        let ratio = wo.as_secs_f64() / w.as_secs_f64().max(1e-9);
        ratios.push(ratio);
        println!(
            "{:>4} {:>12} {:>15} {:>7.2}x",
            i,
            secs(*w),
            secs(*wo),
            ratio
        );
    }
    if !ratios.is_empty() {
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!("average slowdown without range analysis: {avg:.2}x (paper: ~1.42x)");
    }
}

fn shape_of(s: Shape) -> Shape {
    s
}
