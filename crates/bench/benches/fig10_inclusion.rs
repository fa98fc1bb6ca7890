//! Fig. 10 — inclusion check statistics.
//!
//! For each implementation × test, prints the paper's columns: unrolled
//! code size (instrs / loads / stores), encoding time, CNF size
//! (variables / clauses), solver refutation time, and total time. The
//! right-hand charts of Fig. 10 (time and memory against the number of
//! memory accesses in the unrolled code) are emitted as CSV to stdout.
//!
//! Absolute numbers differ from the paper (different solver, different
//! host); the reproduced *shape* is the sharp growth of solver time with
//! unrolled memory accesses.

use cf_bench::{secs, workloads};
use cf_memmodel::Mode;
use checkfence::{mine_reference, Query};

fn main() {
    println!("Fig. 10: inclusion check statistics (memory model: Relaxed)");
    println!(
        "{:<10} {:>6} | {:>6} {:>6} {:>7} | {:>8} {:>9} {:>9} | {:>8} {:>8}",
        "impl",
        "test",
        "instrs",
        "loads",
        "stores",
        "enc[s]",
        "vars",
        "clauses",
        "sat[s]",
        "tot[s]"
    );
    let mut csv = String::from("impl,test,accesses,solve_s,vars,clauses\n");
    for w in workloads() {
        let spec = match mine_reference(&w.harness, &w.test) {
            Ok(m) => m.spec,
            Err(e) => {
                println!(
                    "{:<10} {:>6} | mining failed: {e}",
                    w.algo.name(),
                    w.test.name
                );
                continue;
            }
        };
        match Query::check_inclusion(&w.harness, &w.test, spec)
            .on(Mode::Relaxed)
            .run()
        {
            Ok(v) => {
                let s = &v.phase;
                let accesses = s.unrolled.loads + s.unrolled.stores;
                println!(
                    "{:<10} {:>6} | {:>6} {:>6} {:>7} | {:>8} {:>9} {:>9} | {:>8} {:>8}  {}",
                    w.algo.name(),
                    w.test.name,
                    s.unrolled.instrs,
                    s.unrolled.loads,
                    s.unrolled.stores,
                    secs(s.encode_time),
                    s.sat_vars,
                    s.sat_clauses,
                    secs(s.solve_time),
                    secs(s.total_time),
                    if v.passed() { "PASS" } else { "FAIL" },
                );
                csv.push_str(&format!(
                    "{},{},{},{},{},{}\n",
                    w.algo.name(),
                    w.test.name,
                    accesses,
                    s.solve_time.as_secs_f64(),
                    s.sat_vars,
                    s.sat_clauses
                ));
            }
            Err(e) => println!(
                "{:<10} {:>6} | check failed: {e}",
                w.algo.name(),
                w.test.name
            ),
        }
    }
    println!("\nFig. 10 charts (CSV: solver effort vs unrolled memory accesses):");
    print!("{csv}");
}
