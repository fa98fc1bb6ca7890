//! Randomized tests of the native total order ([`Solver::add_total_order`]):
//! on random instances over at most seven events it must agree with the
//! explicit `2·C(n,3)`-clause encoding and with brute force over every
//! permutation, return only strict total orders, and return unsat cores
//! that reproduce their answer. The run that drives learnt-clause
//! reduction and arena compaction while order reasons are live is the
//! solver's unit test `order_explanations_survive_reduction_and_compaction`,
//! which can also check the arena's invariants.

use cf_sat::xorshift::Rng;
use cf_sat::{Lit, SolveResult, Solver, Var};

/// A random instance: `n` events, one variable per pair plus `extra`
/// free variables (interleaved in a random order), random side clauses
/// over all of them.
struct Instance {
    n: usize,
    num_vars: usize,
    /// `pair[x][y]` for `x < y`: the literal of "`x` before `y`" (either
    /// polarity of its variable).
    pair: Vec<Vec<Lit>>,
    extra: Vec<Var>,
    clauses: Vec<Vec<Lit>>,
}

impl Instance {
    fn random(rng: &mut Rng, n: usize, extra: usize, clauses: usize, width: u64) -> Self {
        let pairs = n * (n - 1) / 2;
        let num_vars = pairs + extra;
        // A random permutation of the variable indices.
        let mut vars: Vec<usize> = (0..num_vars).collect();
        for i in (1..num_vars).rev() {
            vars.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut next = vars.into_iter().map(Var::from_index);
        let mut pair = vec![vec![Lit::from_index(0); n]; n];
        for (x, row) in pair.iter_mut().enumerate() {
            for slot in &mut row[x + 1..] {
                *slot = next.next().expect("enough variables").lit(rng.bool());
            }
        }
        let extra: Vec<Var> = next.collect();
        let mut inst = Instance {
            n,
            num_vars,
            pair,
            extra,
            clauses: Vec::new(),
        };
        inst.clauses = (0..clauses)
            .map(|_| {
                let len = 1 + rng.below(width) as usize;
                (0..len).map(|_| inst.random_lit(rng)).collect()
            })
            .collect();
        inst
    }

    fn random_lit(&self, rng: &mut Rng) -> Lit {
        if self.n >= 2 && (self.extra.is_empty() || rng.below(3) < 2) {
            let x = rng.below(self.n as u64) as usize;
            let mut y = rng.below(self.n as u64 - 1) as usize;
            if y >= x {
                y += 1;
            }
            self.before(x, y)
        } else {
            let v = self.extra[rng.below(self.extra.len() as u64) as usize];
            v.lit(rng.bool())
        }
    }

    /// The literal of `x < y` for any `x != y`.
    fn before(&self, x: usize, y: usize) -> Lit {
        if x < y {
            self.pair[x][y]
        } else {
            !self.pair[y][x]
        }
    }

    fn base_solver(&self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        s
    }

    /// The instance with the native order constraint.
    fn native(&self) -> Solver {
        let mut s = self.base_solver();
        s.add_total_order(self.n, |x, y| self.pair[x][y]);
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// The instance with the paper's explicit transitivity clauses.
    fn explicit(&self) -> Solver {
        let mut s = self.base_solver();
        for i in 0..self.n {
            for j in i + 1..self.n {
                for k in j + 1..self.n {
                    let (ij, jk, ik) = (self.pair[i][j], self.pair[j][k], self.pair[i][k]);
                    s.add_clause([!ij, !jk, ik]);
                    s.add_clause([ij, jk, !ik]);
                }
            }
        }
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// Number of event permutations that some assignment of the extra
    /// variables extends to a model of the clauses and `assumptions`.
    fn brute_force_orders(&self, assumptions: &[Lit]) -> usize {
        let mut count = 0;
        let mut model = vec![false; self.num_vars];
        for_each_permutation(self.n, &mut |rank| {
            for x in 0..self.n {
                for y in x + 1..self.n {
                    let l = self.pair[x][y];
                    model[l.var().index()] = (rank[x] < rank[y]) == l.sign();
                }
            }
            let holds = |model: &[bool], l: Lit| model[l.var().index()] == l.sign();
            let extended = (0u32..1 << self.extra.len()).any(|bits| {
                for (i, v) in self.extra.iter().enumerate() {
                    model[v.index()] = bits >> i & 1 == 1;
                }
                assumptions.iter().all(|&a| holds(&model, a))
                    && self
                        .clauses
                        .iter()
                        .all(|c| c.iter().any(|&l| holds(&model, l)))
            });
            count += usize::from(extended);
        });
        count
    }

    /// Panics unless the solver's model orients every pair, is a strict
    /// total order, and satisfies every clause and assumption.
    fn check_model(&self, s: &Solver, assumptions: &[Lit], extra_clauses: &[Vec<Lit>]) {
        let val = |l: Lit| {
            s.lit_value_model(l)
                .expect("every pair variable is assigned")
        };
        for x in 0..self.n {
            for y in 0..self.n {
                for z in 0..self.n {
                    if x != y && y != z && x != z {
                        let (xy, yz, xz) =
                            (self.before(x, y), self.before(y, z), self.before(x, z));
                        assert!(
                            !val(xy) || !val(yz) || val(xz),
                            "{x}<{y}<{z} but not {x}<{z}"
                        );
                    }
                }
            }
        }
        let sat = |c: &Vec<Lit>| c.iter().any(|&l| s.lit_value_model(l) == Some(true));
        assert!(self.clauses.iter().all(sat), "model violates a side clause");
        assert!(
            extra_clauses.iter().all(sat),
            "model violates a blocking clause"
        );
        assert!(assumptions
            .iter()
            .all(|&a| s.lit_value_model(a) == Some(true)));
    }

    fn random_assumptions(&self, rng: &mut Rng) -> Vec<Lit> {
        let k = rng.below(5) as usize;
        (0..k).map(|_| self.random_lit(rng)).collect()
    }
}

/// Calls `f` with the rank vector of every permutation of `n` events.
fn for_each_permutation(n: usize, f: &mut dyn FnMut(&[usize])) {
    fn go(rank: &mut Vec<usize>, used: &mut Vec<bool>, f: &mut dyn FnMut(&[usize])) {
        if rank.len() == used.len() {
            return f(rank);
        }
        for r in 0..used.len() {
            if !used[r] {
                used[r] = true;
                rank.push(r);
                go(rank, used, f);
                rank.pop();
                used[r] = false;
            }
        }
    }
    go(&mut Vec::with_capacity(n), &mut vec![false; n], f);
}

/// Solves `s` under `assumptions` and checks the answer against
/// `expect_sat`, the model, and (for Unsat) the core.
fn solve_checked(
    inst: &Instance,
    s: &mut Solver,
    assumptions: &[Lit],
    blocked: &[Vec<Lit>],
    expect_sat: bool,
) {
    match s.solve_with(assumptions) {
        SolveResult::Sat => {
            assert!(expect_sat, "native said SAT, reference says UNSAT");
            inst.check_model(s, assumptions, blocked);
        }
        SolveResult::Unsat => {
            assert!(!expect_sat, "native said UNSAT, reference says SAT");
            let core = s.unsat_core().expect("unsat has a core").to_vec();
            assert!(
                core.iter().all(|l| assumptions.contains(l)),
                "core {core:?}"
            );
            assert_eq!(
                s.solve_with(&core),
                SolveResult::Unsat,
                "core {core:?} re-solves"
            );
        }
        SolveResult::Unknown => panic!("no budget was set"),
    }
}

#[test]
fn native_order_matches_explicit_clauses_and_brute_force() {
    let mut rng = Rng::new(0x0d_e7);
    let (mut sat, mut unsat) = (0, 0);
    for round in 0..400 {
        let n = 2 + round % 6;
        let extra = rng.below(4) as usize;
        let clauses = rng.below(3 * n as u64 + 4) as usize;
        let inst = Instance::random(&mut rng, n, extra, clauses, 3);
        let mut native = inst.native();
        let mut explicit = inst.explicit();
        for _ in 0..4 {
            let assumptions = inst.random_assumptions(&mut rng);
            let expect = inst.brute_force_orders(&assumptions) > 0;
            let reference = explicit.solve_with(&assumptions) == SolveResult::Sat;
            assert_eq!(
                reference, expect,
                "explicit clauses disagree with brute force"
            );
            solve_checked(&inst, &mut native, &assumptions, &[], expect);
            if expect {
                sat += 1;
            } else {
                unsat += 1;
            }
        }
    }
    assert!(
        sat > 200 && unsat > 200,
        "both answers are exercised: {sat} SAT, {unsat} UNSAT"
    );
}

#[test]
fn enumeration_finds_every_order_exactly_once() {
    // Block each model on the pair variables alone: the number of models
    // found must equal the number of permutations brute force admits.
    let mut rng = Rng::new(0x0d_e8);
    for round in 0..120 {
        let n = 2 + round % 4;
        let extra = rng.below(3) as usize;
        let clauses = rng.below(2 * n as u64 + 1) as usize;
        let inst = Instance::random(&mut rng, n, extra, clauses, 3);
        let want = inst.brute_force_orders(&[]);
        let mut s = inst.native();
        let mut blocked: Vec<Vec<Lit>> = Vec::new();
        while s.solve() == SolveResult::Sat {
            inst.check_model(&s, &[], &blocked);
            let block: Vec<Lit> = (0..n)
                .flat_map(|x| (x + 1..n).map(move |y| (x, y)))
                .map(|(x, y)| {
                    let l = inst.pair[x][y];
                    if s.lit_value_model(l) == Some(true) {
                        !l
                    } else {
                        l
                    }
                })
                .collect();
            assert!(blocked.len() < want, "more models than orders ({want})");
            s.add_clause(block.iter().copied());
            blocked.push(block);
        }
        assert_eq!(blocked.len(), want, "n = {n}");
    }
}

#[test]
fn propagation_closes_chains_without_conflicts() {
    // Assume the consecutive pairs of a random permutation in random
    // order, then the reverse of one implied pair: propagation alone
    // must close the chain transitively, so the contradiction is found
    // while installing the assumptions, with no conflict.
    let mut rng = Rng::new(0x0d_ea);
    for _ in 0..200 {
        let n = 3 + rng.below(5) as usize;
        let inst = Instance::random(&mut rng, n, 0, 0, 1);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut chain: Vec<Lit> = perm.windows(2).map(|w| inst.before(w[0], w[1])).collect();
        for i in (1..chain.len()).rev() {
            chain.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let i = rng.below(n as u64 - 2) as usize;
        let j = i + 2 + rng.below((n - i - 2) as u64) as usize;
        let mut assumptions = chain.clone();
        assumptions.push(inst.before(perm[j], perm[i]));
        let mut s = inst.native();
        assert_eq!(s.solve_with(&chain), SolveResult::Sat);
        inst.check_model(&s, &chain, &[]);
        let conflicts = s.stats().conflicts;
        assert_eq!(s.solve_with(&assumptions), SolveResult::Unsat);
        assert_eq!(
            s.stats().conflicts,
            conflicts,
            "propagation missed an implied pair"
        );
        let core = s.unsat_core().expect("unsat has a core").to_vec();
        assert_eq!(s.solve_with(&core), SolveResult::Unsat);
    }
}

#[test]
fn level_zero_pairs_before_the_order_are_seeded() {
    // Units over pair literals fixed before add_total_order: the order
    // must still see them (here 0 < 1 and 1 < 2 force 0 < 2).
    let mut s = Solver::new();
    let p: Vec<Lit> = (0..3).map(|_| s.new_var().positive()).collect();
    s.add_clause([p[0]]);
    s.add_clause([p[2]]);
    assert!(s.add_total_order(3, |x, y| p[x + y - 1]));
    assert_eq!(s.solve_with(&[!p[1]]), SolveResult::Unsat);
    assert_eq!(s.unsat_core(), Some(&[!p[1]][..]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.lit_value_model(p[1]), Some(true));
    // A cycle fixed at level 0 makes the formula unsatisfiable outright.
    let mut s = Solver::new();
    let p: Vec<Lit> = (0..3).map(|_| s.new_var().positive()).collect();
    s.add_clause([p[0]]);
    s.add_clause([p[2]]);
    s.add_clause([!p[1]]);
    assert!(!s.add_total_order(3, |x, y| p[x + y - 1]));
    assert_eq!(s.solve(), SolveResult::Unsat);
}
