//! Search-identity guard: the exact [`Stats`] of fixed instances.
//!
//! A change to clause storage, watch-list bookkeeping or any other
//! part of the solver that is meant to leave the search alone must
//! leave every counter below exactly where it is. The pins were
//! recorded before the clause arena replaced the per-clause slab, so
//! they certify that the arena kept the same watch order, the same
//! literal swaps and the same learnt-clause reduction order. A change
//! that alters the search on purpose re-records them and says why.

use cf_sat::xorshift::Rng;
use cf_sat::{Lit, SolveResult, Solver, Stats, Var};

/// PHP(p, h): `p` pigeons into `h` holes (unsatisfiable for `p > h`).
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new();
    let x: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var().positive()).collect())
        .collect();
    for row in &x {
        s.add_clause(row.iter().copied());
    }
    for h in 0..holes {
        let hole: Vec<Lit> = x.iter().map(|row| row[h]).collect();
        for (i, &p) in hole.iter().enumerate() {
            for &q in &hole[i + 1..] {
                s.add_clause([!p, !q]);
            }
        }
    }
    s
}

/// A random 3-SAT formula over `vars` variables with `clauses` clauses
/// of three distinct variables each.
fn random_3sat(rng: &mut Rng, vars: usize, clauses: usize) -> Vec<Vec<Lit>> {
    (0..clauses)
        .map(|_| {
            let mut c: Vec<Lit> = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = Var::from_index(rng.below(vars as u64) as usize);
                if c.iter().all(|l| l.var() != v) {
                    c.push(v.lit(rng.bool()));
                }
            }
            c
        })
        .collect()
}

fn solver_for(vars: usize, clauses: &[Vec<Lit>]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c.iter().copied());
    }
    s
}

#[allow(clippy::too_many_arguments)]
fn stats(
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    learnt_literals: u64,
    restarts: u64,
    reductions: u64,
    solves: u64,
    assumed_literals: u64,
) -> Stats {
    Stats {
        conflicts,
        decisions,
        propagations,
        learnt_literals,
        reductions,
        solves,
        restarts,
        assumed_literals,
    }
}

#[test]
fn pigeonhole_7_into_6() {
    let mut s = pigeonhole(7, 6);
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert_eq!(*s.stats(), stats(638, 747, 9286, 6821, 5, 0, 1, 0));
}

#[test]
fn random_3sat_near_the_threshold() {
    let mut rng = Rng::new(0x05ee_d3a7);
    let f = random_3sat(&mut rng, 160, 682); // ratio 4.26
    let mut s = solver_for(160, &f);
    assert_eq!(s.solve(), SolveResult::Unsat);
    // Two learnt-clause reductions: the pin covers their ordering too.
    assert_eq!(*s.stats(), stats(8633, 10325, 369795, 85924, 36, 2, 1, 0));
}

#[test]
fn incremental_assumptions_with_blocking_clauses() {
    let mut rng = Rng::new(0x1ec7_0a55);
    let f = random_3sat(&mut rng, 120, 432); // ratio 3.6: mostly satisfiable
    let mut s = solver_for(120, &f);
    let mut answers = String::new();
    for _ in 0..40 {
        let assumptions: Vec<Lit> = (0..6)
            .map(|_| Var::from_index(rng.below(120) as usize).lit(rng.bool()))
            .collect();
        match s.solve_with(&assumptions) {
            SolveResult::Sat => {
                answers.push('S');
                // Block the model's projection onto the first 12 variables.
                let block: Vec<Lit> = (0..12)
                    .map(|i| {
                        let v = Var::from_index(i);
                        v.lit(!s.value(v).unwrap_or(false))
                    })
                    .collect();
                s.add_clause(block);
            }
            SolveResult::Unsat => answers.push('U'),
            SolveResult::Unknown => panic!("no budget was set"),
        }
    }
    assert_eq!(answers, "USSSSSSSSSSSSUSSSSSSSSUSSSSUSSSSUSSUSSSS");
    assert_eq!(*s.stats(), stats(668, 1849, 26472, 6150, 0, 0, 40, 240));
}
