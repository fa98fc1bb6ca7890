//! The CDCL search engine.
//!
//! A conflict-driven clause-learning solver in the MiniSat lineage:
//! two-watched-literal propagation, first-UIP conflict analysis with basic
//! clause minimization, exponential VSIDS decision ordering, phase saving,
//! Luby restarts and LBD-guided learnt-clause database reduction. The solver
//! is *incremental*: clauses may be added between [`Solver::solve`] calls and
//! solving under assumptions is supported, which is exactly what the
//! CheckFence specification-mining loop requires (Section 3.2 of the paper).
//!
//! Clauses are stored in the flat arena of `clause.rs`; watchers and
//! reasons hold arena offsets. Database reduction frees its victims,
//! drops their watchers in one order-preserving pass over the watch
//! lists, and compacts the arena once dead words pass a fixed fraction,
//! rewriting every watcher and reason. Storage never steers the search:
//! watch order, literal swaps and reduction order depend only on the
//! order clauses were added, not on where they live.
//!
//! A solver may also carry one native strict total order
//! ([`Solver::add_total_order`], state in `order.rs`). Transitivity is
//! then not in the clause database at all: assigning a pair scans a dense
//! value matrix for the pairs it forces, and an implied pair's reason —
//! one of the paper's transitivity clauses — is built in the arena,
//! unwatched, only when conflict analysis needs it. A solver without a
//! total order searches exactly as before.

use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::order::{TotalOrder, ORDER_REASON};
use crate::stats::Stats;
use crate::types::{LBool, Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource limit was exhausted before an answer was found; the
    /// specific limit is reported by [`Solver::stop_cause`].
    Unknown,
}

/// Which resource limit made the last `solve` call return
/// [`SolveResult::Unknown`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopCause {
    /// The conflict budget ([`Solver::set_conflict_budget`]) ran out.
    ConflictBudget,
    /// The deterministic tick budget ([`Solver::set_tick_budget`]) ran out.
    TickBudget,
    /// The wall-clock deadline ([`Solver::set_deadline`]) passed.
    Deadline,
}

/// What one [`Solver::solve_with`] call did: its result, the limit
/// that stopped it (for [`SolveResult::Unknown`]), and the counter
/// deltas it accumulated. Passed to the [`SolveHook`] after every
/// solve call, on every return path.
#[derive(Clone, Copy, Debug)]
pub struct SolveEvent {
    /// The result the call returned.
    pub result: SolveResult,
    /// Which resource limit stopped the call, when `result` is
    /// [`SolveResult::Unknown`].
    pub stop: Option<StopCause>,
    /// Counter deltas for this call alone ([`Stats::since`] against a
    /// snapshot taken at call entry).
    pub delta: Stats,
}

/// An observer invoked after every solve call with its [`SolveEvent`].
///
/// The hook is how higher layers (the CheckFence trace collector)
/// attribute solver work to spans without the solver depending on them;
/// `cf-sat` itself never inspects the events.
pub struct SolveHook(Box<dyn FnMut(&SolveEvent) + Send>);

impl SolveHook {
    /// Wraps a callback as a solve hook.
    pub fn new(hook: impl FnMut(&SolveEvent) + Send + 'static) -> Self {
        SolveHook(Box::new(hook))
    }
}

impl std::fmt::Debug for SolveHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SolveHook(..)")
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    /// A second literal of the clause; if it is already true the clause is
    /// satisfied and the watch list walk can skip loading the clause.
    blocker: Lit,
}

/// Feature toggles for ablation studies (everything on by default).
///
/// The toggles never affect soundness — only search dynamics — which the
/// property tests verify by running every configuration against a
/// brute-force oracle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SolverConfig {
    /// Luby-sequence restarts. Off: a single uninterrupted search.
    pub restarts: bool,
    /// Phase saving (re-decide variables with their last polarity).
    /// Off: always decide `false` first.
    pub phase_saving: bool,
    /// EVSIDS decision ordering (bump + decay). Off: activities stay
    /// flat and decisions follow the static variable order.
    pub vsids: bool,
    /// Learnt-clause database reduction. Off: keep every learnt clause.
    pub db_reduction: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            restarts: true,
            phase_saving: true,
            vsids: true,
            db_reduction: true,
        }
    }
}

/// An incremental CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use cf_sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(b.var()), Some(true));
/// s.add_clause([!b]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    saved_phase: Vec<bool>,

    cla_inc: f64,

    /// The native total order ([`Solver::add_total_order`]); empty when
    /// none was added.
    total_order: TotalOrder,

    /// Formula already proven unsatisfiable at level 0.
    unsat: bool,

    /// The assumption subset the last Unsat answer depends on (the
    /// final-conflict analysis result); `None` after Sat/Unknown.
    last_core: Option<Vec<Lit>>,

    // scratch buffer for conflict analysis
    seen: Vec<bool>,
    // scratch buffer for `add_clause`
    add_buf: Vec<Lit>,

    max_learnts: f64,
    stats: Stats,
    conflict_budget: Option<u64>,
    tick_budget: Option<u64>,
    deadline: Option<std::time::Instant>,
    stop_cause: Option<StopCause>,
    config: SolverConfig,
    solve_hook: Option<SolveHook>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
// Wall-clock sampling intervals: `Instant::now` per conflict would be
// noise, per decision would dominate the hot path.
const DEADLINE_CHECK_CONFLICTS: u64 = 64;
const DEADLINE_CHECK_DECISIONS: u64 = 512;

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::new(),
            saved_phase: Vec::new(),
            cla_inc: 1.0,
            total_order: TotalOrder::default(),
            unsat: false,
            last_core: None,
            seen: Vec::new(),
            add_buf: Vec::new(),
            max_learnts: 0.0,
            stats: Stats::default(),
            conflict_budget: None,
            tick_budget: None,
            deadline: None,
            stop_cause: None,
            config: SolverConfig::default(),
            solve_hook: None,
        }
    }

    /// Creates an empty solver with the given feature toggles.
    pub fn with_config(config: SolverConfig) -> Self {
        let mut s = Self::new();
        s.config = config;
        s
    }

    /// The active feature toggles.
    pub fn config(&self) -> SolverConfig {
        self.config
    }

    /// Replaces the feature toggles (takes effect on the next solve).
    pub fn set_config(&mut self, config: SolverConfig) {
        self.config = config;
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Constrains `n` events to a strict total order. `pair(x, y)`, called
    /// once for every `x < y`, is the literal of "`x` before `y`"; every
    /// pair needs a variable of its own. Call it once per solver.
    ///
    /// The solver then enforces transitivity natively instead of through
    /// the `2·C(n,3)` clauses `¬(a<m) ∨ ¬(m<b) ∨ a<b`: when a pair is
    /// assigned it scans a dense value matrix for the pairs it forces,
    /// and builds such a clause only when conflict analysis needs it as a
    /// reason or a conflict. Built clauses count as neither problem nor
    /// learnt clauses. Pair literals already fixed at level 0 are taken
    /// into account. Returns `false` if the formula is now known to be
    /// unsatisfiable.
    ///
    /// # Examples
    ///
    /// ```
    /// use cf_sat::{Lit, Solver, SolveResult};
    /// let mut s = Solver::new();
    /// // x < y for 0 ≤ x < y < 3
    /// let p: Vec<Lit> = (0..3).map(|_| s.new_var().positive()).collect();
    /// let pair = |x: usize, y: usize| p[x + y - 1];
    /// s.add_total_order(3, pair);
    /// s.add_clause([!pair(0, 1)]); // 1 < 0
    /// s.add_clause([!pair(1, 2)]); // 2 < 1
    /// assert_eq!(s.solve_with(&[pair(0, 2)]), SolveResult::Unsat); // 0 < 2 closes a cycle
    /// assert_eq!(s.solve(), SolveResult::Sat);
    /// assert_eq!(s.lit_value_model(pair(0, 2)), Some(false));
    /// ```
    pub fn add_total_order(&mut self, n: usize, pair: impl FnMut(usize, usize) -> Lit) -> bool {
        assert_eq!(self.total_order.n(), 0, "one total order per solver");
        if self.unsat {
            return false;
        }
        self.cancel_until(0);
        self.total_order = TotalOrder::new(n, pair);
        // Seed the matrix from level 0 and walk the trail again so the
        // pairs already fixed get their order scan.
        for &l in &self.trail {
            self.total_order.assign(l);
        }
        self.qhead = 0;
        if self.propagate().is_some() {
            self.unsat = true;
            return false;
        }
        true
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live problem clauses (units and empty clauses are absorbed
    /// into the assignment and the unsat flag and are not counted, nor are
    /// the transitivity clauses built for [`Solver::add_total_order`]).
    pub fn num_clauses(&self) -> usize {
        self.db.num_original()
    }

    /// Number of live learnt clauses.
    pub fn num_learnts(&self) -> usize {
        self.db.num_learnt()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Limits the next `solve` calls to roughly `conflicts` conflicts;
    /// `None` removes the limit. When the budget is exhausted `solve`
    /// returns [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Limits the next `solve` calls to roughly `ticks` *ticks*, where a
    /// tick is one propagation or one conflict; `None` removes the limit.
    ///
    /// Unlike a wall-clock deadline, tick counts depend only on the formula
    /// and the solver state, so an exhausted budget reproduces exactly on
    /// any machine. When the budget is exhausted `solve` returns
    /// [`SolveResult::Unknown`] and [`Solver::stop_cause`] reports
    /// [`StopCause::TickBudget`].
    pub fn set_tick_budget(&mut self, ticks: Option<u64>) {
        self.tick_budget = ticks;
    }

    /// Aborts any `solve` call still running at `deadline` (checked at
    /// conflict and decision boundaries); `None` removes the deadline.
    /// On expiry `solve` returns [`SolveResult::Unknown`] and
    /// [`Solver::stop_cause`] reports [`StopCause::Deadline`].
    ///
    /// Wall-clock deadlines are inherently machine-dependent; prefer
    /// [`Solver::set_tick_budget`] when reproducibility matters.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Cumulative ticks (propagations + conflicts) across all solves.
    pub fn ticks(&self) -> u64 {
        self.stats.ticks()
    }

    /// Why the most recent `solve` call returned [`SolveResult::Unknown`],
    /// or `None` if it returned a definite answer.
    pub fn stop_cause(&self) -> Option<StopCause> {
        self.stop_cause
    }

    /// `true` if the clause set has been proven unsatisfiable at level 0
    /// (no `solve` call can succeed anymore).
    pub fn is_known_unsat(&self) -> bool {
        self.unsat
    }

    /// Adds a clause. Returns `false` if the formula is now known to be
    /// unsatisfiable (the empty clause was derived), `true` otherwise.
    ///
    /// May be called between `solve` calls; the solver backtracks to
    /// decision level 0 first.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        if self.unsat {
            return false;
        }
        self.cancel_until(0);
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend(lits);
        let ok = match self.simplify(&mut c) {
            None => true,
            Some(0) => {
                self.unsat = true;
                false
            }
            Some(1) => {
                self.unchecked_enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            Some(_) => {
                let cref = self.db.alloc(&c, false, 0);
                self.attach(cref);
                true
            }
        };
        self.add_buf = c;
        ok
    }

    /// Sorts and deduplicates `c` and strips literals false at level 0,
    /// in place. `None` if the clause is a tautology or already satisfied
    /// at level 0; otherwise the number of literals left.
    fn simplify(&self, c: &mut Vec<Lit>) -> Option<usize> {
        c.sort_unstable();
        c.dedup();
        let mut kept = 0;
        let mut prev: Option<Lit> = None;
        for i in 0..c.len() {
            let l = c[i];
            if prev == Some(!l) {
                return None; // tautology: x ∨ ¬x
            }
            match self.lit_value(l) {
                LBool::True => return None, // already satisfied at level 0
                LBool::False => {}          // drop
                LBool::Undef => {
                    c[kept] = l;
                    kept += 1;
                }
            }
            prev = Some(l);
        }
        c.truncate(kept);
        Some(kept)
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Installs (or removes) the per-call observer; see [`SolveHook`].
    pub fn set_solve_hook(&mut self, hook: Option<SolveHook>) {
        self.solve_hook = hook;
    }

    /// Solves under the given assumptions. The assumptions behave like
    /// temporary unit clauses for this call only.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        // Snapshot-delta-notify wrapper: the hook must observe every
        // return path of the search body, early outs included.
        let before = self.stats;
        let result = self.solve_with_inner(assumptions);
        if let Some(hook) = &mut self.solve_hook {
            let event = SolveEvent {
                result,
                stop: self.stop_cause,
                delta: self.stats.since(&before),
            };
            (hook.0)(&event);
        }
        result
    }

    fn solve_with_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.stats.assumed_literals += assumptions.len() as u64;
        self.stop_cause = None;
        // The formula being unsatisfiable without any assumption help is
        // the empty core: re-solving with no assumptions reproduces it.
        self.last_core = None;
        if self.unsat {
            self.last_core = Some(Vec::new());
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            self.last_core = Some(Vec::new());
            return SolveResult::Unsat;
        }
        if self.past_deadline() {
            // A stalled caller may arrive with the deadline already spent;
            // answer Unknown without starting a search.
            self.stop_cause = Some(StopCause::Deadline);
            return SolveResult::Unknown;
        }
        self.max_learnts = (self.db.num_original() as f64 / 3.0).max(4000.0);
        let budget_start = self.stats.conflicts;
        let tick_start = self.ticks();
        let mut restart_round = 0u32;
        loop {
            let conflict_limit = if self.config.restarts {
                100 * luby(2.0, restart_round) as u64
            } else {
                u64::MAX
            };
            match self.search(conflict_limit, assumptions, budget_start, tick_start) {
                Some(r) => return r,
                None => {
                    // Restart.
                    self.stats.restarts += 1;
                    restart_round += 1;
                }
            }
        }
    }

    /// The model value of `v` after a successful solve.
    ///
    /// Returns `None` for variables that were never assigned (such
    /// variables are unconstrained; either value satisfies the formula).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assigns[v.index()].to_option()
    }

    /// The model value of a literal after a successful solve.
    pub fn lit_value_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.sign())
    }

    // ---------------------------------------------------------------- search

    /// Runs CDCL until a result, a restart (`None`) or budget exhaustion.
    fn search(
        &mut self,
        conflict_limit: u64,
        assumptions: &[Lit],
        budget_start: u64,
        tick_start: u64,
    ) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    self.last_core = Some(Vec::new());
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt_level, lbd) = self.analyze(confl);
                self.cancel_until(bt_level);
                self.record_learnt(learnt, lbd);
                self.decay_activities();
                if let Some(cause) = self.exhausted(budget_start, tick_start) {
                    self.cancel_until(0);
                    self.stop_cause = Some(cause);
                    return Some(SolveResult::Unknown);
                }
                if self
                    .stats
                    .conflicts
                    .is_multiple_of(DEADLINE_CHECK_CONFLICTS)
                    && self.past_deadline()
                {
                    self.cancel_until(0);
                    self.stop_cause = Some(StopCause::Deadline);
                    return Some(SolveResult::Unknown);
                }
            } else {
                // Resource checks sit at decision boundaries too, so
                // propagation-heavy searches with few conflicts still stop.
                // Tick exhaustion depends only on the deterministic
                // decision/propagation sequence; the wall clock is sampled
                // every few hundred decisions to keep the hot path cheap.
                if let Some(cause) = self.exhausted(budget_start, tick_start) {
                    self.cancel_until(0);
                    self.stop_cause = Some(cause);
                    return Some(SolveResult::Unknown);
                }
                if self
                    .stats
                    .decisions
                    .is_multiple_of(DEADLINE_CHECK_DECISIONS)
                    && self.past_deadline()
                {
                    self.cancel_until(0);
                    self.stop_cause = Some(StopCause::Deadline);
                    return Some(SolveResult::Unknown);
                }
                if conflicts_here >= conflict_limit {
                    // Restart.
                    self.cancel_until(0);
                    return None;
                }
                if self.config.db_reduction && self.db.num_learnt() as f64 >= self.max_learnts {
                    self.reduce_db();
                }
                // Place assumptions first, then decide.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied: open an empty level for it.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // Assumption contradicted: run the final-conflict
                            // analysis before unwinding the trail it walks.
                            let core = self.analyze_final(a);
                            self.last_core = Some(core);
                            self.cancel_until(0);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(l) => Some(l),
                    None => self.pick_branch_lit(),
                };
                match decision {
                    None => return Some(SolveResult::Sat),
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Deterministic budget checks (conflict and tick); `None` while both
    /// budgets still have headroom.
    #[inline]
    fn exhausted(&self, budget_start: u64, tick_start: u64) -> Option<StopCause> {
        if let Some(b) = self.conflict_budget {
            if self.stats.conflicts - budget_start >= b {
                return Some(StopCause::ConflictBudget);
            }
        }
        if let Some(b) = self.tick_budget {
            if self.ticks() - tick_start >= b {
                return Some(StopCause::TickBudget);
            }
        }
        None
    }

    #[inline]
    fn past_deadline(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        lit_value(&self.assigns, l)
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()].is_undef() {
                let phase = self.config.phase_saving && self.saved_phase[v.index()];
                return Some(v.lit(phase));
            }
        }
        None
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_undef());
        let v = l.var();
        self.assigns[v.index()] = LBool::from_bool(l.sign());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = from;
        self.total_order.assign(l);
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail non-empty");
            let v = l.var();
            self.saved_phase[v.index()] = l.sign();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.total_order.unassign(v);
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = bound.min(self.trail.len());
    }

    // ----------------------------------------------------------- propagation

    fn attach(&mut self, cref: ClauseRef) {
        let l0 = self.db.lit(cref, 0);
        let l1 = self.db.lit(cref, 1);
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Process clauses watching ¬p (stored under index p).
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let false_lit = !p;
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if lit_value(&self.assigns, w.blocker).is_true() {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Normalize: put the false literal (¬p) at position 1.
                let c = self.db.lits_mut(cref);
                if c[0] == false_lit.0 {
                    c.swap(0, 1);
                }
                debug_assert_eq!(c[1], false_lit.0);
                let first = Lit(c[0]);
                let new_watcher = Watcher {
                    cref,
                    blocker: first,
                };
                if first != w.blocker && lit_value(&self.assigns, first).is_true() {
                    ws[j] = new_watcher;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..c.len() {
                    let lk = Lit(c[k]);
                    if !lit_value(&self.assigns, lk).is_false() {
                        c.swap(1, k);
                        self.watches[(!lk).index()].push(new_watcher);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = new_watcher;
                j += 1;
                if lit_value(&self.assigns, first).is_false() {
                    // Conflict: copy the remaining watchers back and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
            if let Some((u, w)) = self.total_order.edge(p) {
                if let Some(confl) = self.propagate_order(u, w) {
                    self.qhead = self.trail.len();
                    return Some(confl);
                }
            }
        }
        None
    }

    /// The order scan for a newly true edge `u < w`: every `w < z` forces
    /// `u < z` and every `z < u` forces `z < w`. Returns the violated
    /// transitivity clause when a forced pair is already false.
    fn propagate_order(&mut self, u: usize, w: usize) -> Option<ClauseRef> {
        const CHUNK: usize = 64;
        let n = self.total_order.n();
        let mut start = 0;
        while start < n {
            let end = (start + CHUNK).min(n);
            if self.total_order.any_forced(u, w, start..end) {
                for z in start..end {
                    match (self.total_order.get(u, z), self.total_order.get(w, z)) {
                        // u < w < z
                        (0, 1) => self.enqueue_order(u, w, z),
                        // z < u < w
                        (-1, 0) => self.enqueue_order(z, u, w),
                        // u < w < z < u
                        (-1, 1) => return Some(self.explain_order(u, w, z)),
                        _ => {}
                    }
                }
            }
            start = end;
        }
        None
    }

    /// Enqueues `a < b`, implied by `a < m` and `m < b`, with a lazy reason.
    fn enqueue_order(&mut self, a: usize, m: usize, b: usize) {
        let l = self.total_order.lit(a, b);
        self.unchecked_enqueue(l, Some(ORDER_REASON));
        self.total_order.mid[l.var().index()] = m as u32;
    }

    /// The transitivity clause `a < m ∧ m < b ⇒ a < b` in the arena with
    /// `a < b` first, built on first use and cached per cycle. The clause
    /// is unwatched, so reordering a cached copy is free; it is the
    /// reason of at most one assigned literal at a time, because its
    /// other literals are false then.
    fn explain_order(&mut self, a: usize, m: usize, b: usize) -> ClauseRef {
        let lits = self.total_order.clause(a, m, b);
        let key = self.total_order.key(a, m, b);
        let cref = match self.total_order.explained.get(&key) {
            Some(&cref) => cref,
            None => {
                let cref = self.db.alloc_derived(&lits);
                self.total_order.explained.insert(key, cref);
                cref
            }
        };
        let c = self.db.lits_mut(cref);
        let first = c
            .iter()
            .position(|&x| x == lits[0].0)
            .expect("a cached clause of the same cycle");
        c.swap(0, first);
        cref
    }

    /// The reason clause of the assigned variable `v`, building a lazy
    /// order explanation (and storing it as `v`'s reason) if needed.
    fn reason_clause(&mut self, v: Var) -> ClauseRef {
        let r = self.reason[v.index()].expect("non-decision has a reason");
        if r != ORDER_REASON {
            return r;
        }
        let l = v.lit(self.assigns[v.index()].is_true());
        let (a, b) = self
            .total_order
            .edge(l)
            .expect("an order reason is a pair literal");
        let m = self.total_order.mid[v.index()] as usize;
        let cref = self.explain_order(a, m, b);
        self.reason[v.index()] = Some(cref);
        cref
    }

    // -------------------------------------------------------------- analysis

    /// First-UIP conflict analysis. Returns (learnt clause with the
    /// asserting literal first, backtrack level, LBD).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;

        loop {
            self.bump_clause(confl);
            // The reason's first literal is `p` itself (skipped after the
            // conflict clause); read the rest in place.
            for k in usize::from(p.is_some())..self.db.len(confl) {
                let q = self.db.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("found");
                break;
            }
            confl = self.reason_clause(pv);
        }

        // Basic (one-step self-subsumption) minimization.
        let kept: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.lit_redundant(l))
            .collect();
        let mut minimized = Vec::with_capacity(kept.len() + 1);
        minimized.push(learnt[0]);
        minimized.extend(kept);

        // Compute backtrack level: max level among non-asserting literals,
        // and move that literal to slot 1 (it becomes the second watch).
        let bt_level = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };

        // LBD = number of distinct decision levels in the clause.
        let mut levels: Vec<u32> = minimized
            .iter()
            .map(|l| self.level[l.var().index()])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        // Clear `seen` for the literals we kept (dropped ones cleared here too).
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }

        (minimized, bt_level, lbd)
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): called when
    /// installing assumption `p` finds it already falsified. Walks the
    /// implication graph backwards from `¬p` through the trail and
    /// collects the assumption literals (the decisions above level 0 —
    /// during installation every decision *is* an assumption) that the
    /// falsification depends on. Returns them as passed by the caller,
    /// `p` included, so the result is a subset of the assumption vector.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            // `¬p` is implied by the clause set alone.
            return core;
        }
        self.seen[p.var().index()] = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                // A decision: an installed assumption the chain rests on.
                None => core.push(x),
                Some(ORDER_REASON) => {
                    for q in self.total_order.antecedents(x) {
                        if self.level[q.index()] > 0 {
                            self.seen[q.index()] = true;
                        }
                    }
                }
                Some(cref) => {
                    for q in self.db.lits(cref) {
                        if q.var() != v && self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        // `¬p` may itself be a level-0 implication (below the walk).
        self.seen[p.var().index()] = false;
        core
    }

    /// The assumption subset the most recent [`Solver::solve_with`]
    /// call's [`SolveResult::Unsat`] answer depends on, as a subset of
    /// the literals that were passed (an empty slice when the formula is
    /// unsatisfiable without any assumptions). `None` if the most recent
    /// solve did not return Unsat.
    ///
    /// Re-solving with only the core literals as assumptions is
    /// guaranteed to reproduce the Unsat answer. The core is *not*
    /// guaranteed minimal; see [`Solver::minimize_core`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cf_sat::{Solver, SolveResult};
    /// let mut s = Solver::new();
    /// let a = s.new_var().positive();
    /// let b = s.new_var().positive();
    /// let c = s.new_var().positive();
    /// s.add_clause([!a, !b]);
    /// assert_eq!(s.solve_with(&[a, c, b]), SolveResult::Unsat);
    /// let core = s.unsat_core().expect("unsat has a core").to_vec();
    /// assert!(core.contains(&a) && core.contains(&b) && !core.contains(&c));
    /// assert_eq!(s.solve_with(&core), SolveResult::Unsat);
    /// ```
    pub fn unsat_core(&self) -> Option<&[Lit]> {
        self.last_core.as_deref()
    }

    /// Greedy deletion minimization of the last unsat core: repeatedly
    /// re-solves with one element dropped, keeping the drop whenever the
    /// query stays unsatisfiable (and shrinking to the probe's own core),
    /// until a full pass deletes nothing — the result is then *locally
    /// minimal* (dropping any element loses unsatisfiability).
    ///
    /// The pass runs under its own deterministic tick budget, separate
    /// from (and without touching) the solver's configured budgets and
    /// deadline, so minimization can never blow a query's resource
    /// governance: on exhaustion it stops early and returns the current
    /// — possibly only partially minimized — core. `None` for the
    /// budget means minimize without limit.
    ///
    /// Returns `(core, complete)` where `complete` reports whether the
    /// pass reached local minimality; [`Solver::unsat_core`] is updated
    /// to the returned core. Returns `None` when there is no core (the
    /// most recent solve was not Unsat).
    pub fn minimize_core(&mut self, ticks: Option<u64>) -> Option<(Vec<Lit>, bool)> {
        let mut core = self.last_core.clone()?;
        let saved_conflicts = self.conflict_budget;
        let saved_ticks = self.tick_budget;
        let saved_deadline = self.deadline;
        self.conflict_budget = None;
        self.deadline = None;
        let mut remaining = ticks;
        let mut complete = true;
        'passes: loop {
            let mut deleted = false;
            let mut i = 0;
            while i < core.len() {
                if remaining == Some(0) {
                    complete = false;
                    break 'passes;
                }
                let mut probe = core.clone();
                probe.remove(i);
                self.tick_budget = remaining;
                let t0 = self.ticks();
                let r = self.solve_with(&probe);
                if let Some(rem) = &mut remaining {
                    *rem = rem.saturating_sub(self.ticks() - t0);
                }
                match r {
                    SolveResult::Unsat => {
                        // The element is redundant; adopt the probe's own
                        // core, which may be smaller still.
                        core = self.last_core.clone().unwrap_or(probe);
                        deleted = true;
                    }
                    SolveResult::Sat => i += 1,
                    SolveResult::Unknown => {
                        complete = false;
                        break 'passes;
                    }
                }
            }
            if !deleted {
                break;
            }
        }
        self.conflict_budget = saved_conflicts;
        self.tick_budget = saved_ticks;
        self.deadline = saved_deadline;
        // The probes are internal: the last *query* answer was Unsat, so
        // the exposed state must read as such again.
        self.stop_cause = None;
        self.last_core = Some(core.clone());
        Some((core, complete))
    }

    /// One-step redundancy: `l` is redundant if it was implied by a clause
    /// whose other literals are all already in the learnt clause (seen) or
    /// fixed at level 0.
    fn lit_redundant(&self, l: Lit) -> bool {
        let v = l.var();
        let kept = |q: Var| self.seen[q.index()] || self.level[q.index()] == 0;
        match self.reason[v.index()] {
            None => false,
            Some(ORDER_REASON) => self.total_order.antecedents(!l).into_iter().all(kept),
            Some(r) => self.db.lits(r).all(|q| q.var() == v || kept(q.var())),
        }
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>, lbd: u32) {
        self.stats.learnt_literals += learnt.len() as u64;
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], None);
        } else {
            let first = learnt[0];
            let cref = self.db.alloc(&learnt, true, lbd);
            self.bump_clause(cref);
            self.attach(cref);
            self.unchecked_enqueue(first, Some(cref));
        }
    }

    // ------------------------------------------------------------ activities

    fn bump_var(&mut self, v: Var) {
        if !self.config.vsids {
            return;
        }
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let activity = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, activity);
        if activity > RESCALE_LIMIT {
            self.cla_inc *= 1e-100;
            self.db.rescale_activities(1e-100);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLA_DECAY;
    }

    // -------------------------------------------------------------- reduceDB

    /// Removes roughly half of the learnt clauses, preferring high-LBD,
    /// low-activity ones. Binary and LBD ≤ 2 clauses and clauses that are
    /// the reason of a current assignment are kept.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let db = &self.db;
        let mut learnts = db.learnts().to_vec();
        // Stable sort over allocation order: ties keep their age order.
        learnts.sort_by(|&a, &b| {
            db.lbd(b).cmp(&db.lbd(a)).then(
                db.activity(a)
                    .partial_cmp(&db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = learnts.len() / 2;
        let mut doomed = Vec::with_capacity(target);
        for cref in learnts {
            if doomed.len() >= target {
                break;
            }
            if self.db.len(cref) <= 2 || self.db.lbd(cref) <= 2 || self.is_locked(cref) {
                continue;
            }
            doomed.push(cref);
        }
        self.db.free_learnts(&doomed);
        // One order-preserving pass drops every watcher of a freed clause.
        let db = &self.db;
        for ws in &mut self.watches {
            ws.retain(|w| !db.is_deleted(w.cref));
        }
        if self.db.needs_compaction() {
            self.compact();
        }
        self.max_learnts *= 1.3;
    }

    /// Compacts the clause arena and rewrites every ref the solver holds
    /// (watchers, reasons and built order explanations); watch-list order
    /// is unchanged.
    fn compact(&mut self) {
        let moved = self.db.compact();
        for ws in &mut self.watches {
            for w in ws {
                w.cref = moved.get(w.cref);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            if *r != ORDER_REASON {
                *r = moved.get(*r);
            }
        }
        for c in self.total_order.explained.values_mut() {
            *c = moved.get(*c);
        }
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lit(cref, 0);
        self.reason[first.var().index()] == Some(cref) && self.lit_value(first).is_true()
    }
}

/// The value of `l` under `assigns`; a free function so propagation can
/// read the assignment while it holds a clause mutably.
#[inline]
fn lit_value(assigns: &[LBool], l: Lit) -> LBool {
    assigns[l.var().index()].xor_sign(l.sign())
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...) scaled by `y`.
fn luby(y: f64, mut x: u32) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < (x as u64) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x as u64 {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size as u32;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, n: i64) -> Lit {
        while s.num_vars() < n.unsigned_abs() as usize {
            s.new_var();
        }
        Lit::from_dimacs(n)
    }

    fn clause(s: &mut Solver, ns: &[i64]) -> bool {
        let lits: Vec<Lit> = ns.iter().map(|&n| lit(s, n)).collect();
        s.add_clause(lits)
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        clause(&mut s, &[1, 2]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        clause(&mut s, &[1]);
        assert!(!clause(&mut s, &[-1]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        clause(&mut s, &[1, -1]);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        clause(&mut s, &[1]);
        clause(&mut s, &[-1, 2]);
        clause(&mut s, &[-2, 3]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(2)), Some(true));
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole.
        let mut s = Solver::new();
        clause(&mut s, &[1]); // pigeon 1 in hole 1
        clause(&mut s, &[2]); // pigeon 2 in hole 1
        clause(&mut s, &[-1, -2]); // not both
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        // PHP(4,3): pigeons p in 1..=4, holes h in 1..=3,
        // var(p,h) = (p-1)*3 + h.
        let mut s = Solver::new();
        let v = |p: i64, h: i64| (p - 1) * 3 + h;
        for p in 1..=4 {
            clause(&mut s, &[v(p, 1), v(p, 2), v(p, 3)]);
        }
        for h in 1..=3 {
            for p1 in 1..=4 {
                for p2 in (p1 + 1)..=4 {
                    clause(&mut s, &[-v(p1, h), -v(p2, h)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn incremental_blocking() {
        // Enumerate all 4 models of a 2-variable free formula by blocking.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), a.negative()]); // tautology: ignored
        let mut count = 0;
        loop {
            match s.solve() {
                SolveResult::Sat => {
                    count += 1;
                    let block = [
                        a.lit(!s.value(a).unwrap_or(false)),
                        b.lit(!s.value(b).unwrap_or(false)),
                    ];
                    s.add_clause(block);
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => panic!("no budget set"),
            }
            assert!(count <= 4);
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn assumptions() {
        let mut s = Solver::new();
        clause(&mut s, &[1, 2]);
        let l1 = Lit::from_dimacs(1);
        let l2 = Lit::from_dimacs(2);
        assert_eq!(s.solve_with(&[!l1]), SolveResult::Sat);
        assert_eq!(s.value(l2.var()), Some(true));
        assert_eq!(s.solve_with(&[!l1, !l2]), SolveResult::Unsat);
        // Assumptions do not persist.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflicting_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        s.add_clause([a]);
        assert_eq!(s.solve_with(&[!a]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        // A moderately hard instance with a 1-conflict budget.
        let mut s = Solver::new();
        let v = |p: i64, h: i64| (p - 1) * 4 + h;
        for p in 1..=5 {
            clause(&mut s, &[v(p, 1), v(p, 2), v(p, 3), v(p, 4)]);
        }
        for h in 1..=4 {
            for p1 in 1..=5 {
                for p2 in (p1 + 1)..=5 {
                    clause(&mut s, &[-v(p1, h), -v(p2, h)]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// PHP(5,4): small but guaranteed to take real search effort.
    fn pigeonhole_5_into_4(s: &mut Solver) {
        let v = |p: i64, h: i64| (p - 1) * 4 + h;
        for p in 1..=5 {
            clause(s, &[v(p, 1), v(p, 2), v(p, 3), v(p, 4)]);
        }
        for h in 1..=4 {
            for p1 in 1..=5 {
                for p2 in (p1 + 1)..=5 {
                    clause(s, &[-v(p1, h), -v(p2, h)]);
                }
            }
        }
    }

    #[test]
    fn tick_budget_exhaustion_reports_its_cause() {
        let mut s = Solver::new();
        pigeonhole_5_into_4(&mut s);
        s.set_tick_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::TickBudget));
        s.set_tick_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.stop_cause(), None);
    }

    #[test]
    fn tick_budget_is_deterministic_across_runs() {
        // The same formula under the same budget stops at the same tick
        // count — the property that makes budgets reproducible across
        // machines.
        let run = || {
            let mut s = Solver::new();
            pigeonhole_5_into_4(&mut s);
            s.set_tick_budget(Some(50));
            let r = s.solve();
            (r, s.ticks(), s.stats().decisions)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.0, SolveResult::Unknown);
    }

    #[test]
    fn zero_tick_budget_stops_before_the_first_decision() {
        let mut s = Solver::new();
        clause(&mut s, &[1, 2]);
        s.set_tick_budget(Some(0));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::TickBudget));
    }

    #[test]
    fn expired_deadline_returns_unknown_immediately() {
        let mut s = Solver::new();
        pigeonhole_5_into_4(&mut s);
        s.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        ));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::Deadline));
        s.set_deadline(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_cause_is_distinguished_from_ticks() {
        let mut s = Solver::new();
        pigeonhole_5_into_4(&mut s);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::ConflictBudget));
    }

    #[test]
    fn unsat_core_is_a_reproducing_subset() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        let d = s.new_var().positive();
        s.add_clause([!a, !b]);
        assert_eq!(s.solve_with(&[a, c, d, b]), SolveResult::Unsat);
        let core = s.unsat_core().expect("unsat has a core").to_vec();
        assert!(core.contains(&a), "a is load-bearing");
        assert!(core.contains(&b), "b is load-bearing");
        assert!(!core.contains(&c), "c is irrelevant");
        assert!(!core.contains(&d), "d is irrelevant");
        // Soundness: the core alone reproduces the answer.
        assert_eq!(s.solve_with(&core), SolveResult::Unsat);
        // A Sat answer clears the core.
        assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
        assert!(s.unsat_core().is_none());
    }

    #[test]
    fn core_of_directly_contradictory_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let _ = b;
        assert_eq!(s.solve_with(&[b, a, !a]), SolveResult::Unsat);
        let core = s.unsat_core().expect("core").to_vec();
        assert!(core.contains(&a) && core.contains(&!a));
        assert!(!core.contains(&b));
        assert_eq!(s.solve_with(&core), SolveResult::Unsat);
    }

    #[test]
    fn core_of_a_level_zero_falsified_assumption_is_that_assumption() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause([!a]);
        assert_eq!(s.solve_with(&[b, a]), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), Some(&[a][..]));
    }

    #[test]
    fn globally_unsat_formula_has_an_empty_core() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        clause(&mut s, &[3]);
        clause(&mut s, &[-3]);
        assert_eq!(s.solve_with(&[a, b]), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), Some(&[][..]));
        // And so does a search-discovered global conflict.
        let mut s = Solver::new();
        pigeonhole_5_into_4(&mut s);
        let a = s.new_var().positive();
        assert_eq!(s.solve_with(&[a]), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), Some(&[][..]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn minimize_core_reaches_the_unique_minimal_core() {
        // y can be forced by c two ways: through x (which needs a) or
        // directly. If propagation happens to route through x, the
        // final-conflict core over-approximates with a; minimization
        // must land on the unique minimal core {b, c} either way.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        let x = s.new_var().positive();
        let y = s.new_var().positive();
        s.add_clause([!a, x]);
        s.add_clause([!x, !c, y]);
        s.add_clause([!c, y]);
        s.add_clause([!b, !y]);
        assert_eq!(s.solve_with(&[a, c, b]), SolveResult::Unsat);
        let raw = s.unsat_core().expect("core").to_vec();
        let (min, complete) = s.minimize_core(None).expect("core to minimize");
        assert!(complete, "unbudgeted minimization completes");
        assert!(min.len() <= raw.len());
        let mut sorted = min.clone();
        sorted.sort_unstable();
        let mut want = vec![b, c];
        want.sort_unstable();
        assert_eq!(sorted, want, "unique minimal core");
        assert_eq!(s.unsat_core(), Some(&min[..]));
        assert_eq!(s.solve_with(&min), SolveResult::Unsat);
        // Local minimality: dropping any element loses the answer.
        let core = s.unsat_core().expect("core").to_vec();
        for i in 0..core.len() {
            let mut probe = core.clone();
            probe.remove(i);
            assert_eq!(s.solve_with(&probe), SolveResult::Sat);
        }
    }

    #[test]
    fn budget_starved_minimization_degrades_to_the_unminimized_core() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        s.add_clause([!a, !b]);
        assert_eq!(s.solve_with(&[a, c, b]), SolveResult::Unsat);
        let raw = s.unsat_core().expect("core").to_vec();
        let (min, complete) = s.minimize_core(Some(0)).expect("core present");
        assert!(!complete, "a zero budget cannot finish");
        assert_eq!(min, raw, "degrades to the unminimized core");
        // The solver's own governance is untouched by the pass.
        assert_eq!(s.stop_cause(), None);
        assert_eq!(s.solve_with(&min), SolveResult::Unsat);
    }

    #[test]
    fn minimization_budgets_are_restored_afterwards() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause([!a, !b]);
        s.set_tick_budget(Some(10_000));
        s.set_conflict_budget(Some(10_000));
        assert_eq!(s.solve_with(&[a, b]), SolveResult::Unsat);
        let _ = s.minimize_core(Some(1_000));
        assert_eq!(s.tick_budget, Some(10_000));
        assert_eq!(s.conflict_budget, Some(10_000));
    }

    /// `true` if the solver's current model satisfies every clause of
    /// `f` (unassigned variables satisfy no literal).
    fn satisfies(s: &Solver, f: &[Vec<Lit>]) -> bool {
        f.iter()
            .all(|c| c.iter().any(|&l| s.lit_value_model(l) == Some(true)))
    }

    /// The clause counts agree with the arena, the learnt list is the
    /// live learnts in arena order, every built order explanation is
    /// live and unwatched, and every other live clause is watched exactly
    /// by the negations of its first two literals.
    fn assert_db_consistent(s: &Solver) {
        let live = s.db.live_refs();
        let learnts: Vec<ClauseRef> = live
            .iter()
            .copied()
            .filter(|&c| s.db.is_learnt(c))
            .collect();
        let explained = s.total_order.explained.len();
        for &c in s.total_order.explained.values() {
            assert!(live.contains(&c) && !s.db.is_learnt(c) && s.db.len(c) == 3);
        }
        assert_eq!(s.num_learnts(), learnts.len());
        assert_eq!(s.num_clauses(), live.len() - learnts.len() - explained);
        assert_eq!(s.db.learnts(), &learnts[..]);
        for r in s.reason.iter().flatten() {
            assert!(
                *r == ORDER_REASON || live.contains(r),
                "reason of a freed clause"
            );
        }
        let mut watched = 0;
        for (idx, ws) in s.watches.iter().enumerate() {
            for w in ws {
                assert!(!s.db.is_deleted(w.cref), "watcher of a freed clause");
                let watch = !Lit::from_index(idx);
                assert!(s.db.lit(w.cref, 0) == watch || s.db.lit(w.cref, 1) == watch);
                watched += 1;
            }
        }
        assert_eq!(watched, 2 * (live.len() - explained));
    }

    #[test]
    fn reductions_and_compaction_keep_answers_sound() {
        // Near-threshold random 3-SAT solved again and again under
        // assumptions, with blocking clauses in between: enough conflicts
        // to cross the learnt-clause limit several times, so reduce_db and
        // arena compaction run between and inside the solves.
        let mut rng = crate::xorshift::Rng::new(0xdb_c0de);
        let vars = 170;
        let mut s = Solver::new();
        for _ in 0..vars {
            s.new_var();
        }
        let mut original: Vec<Vec<Lit>> = Vec::new();
        for _ in 0..724 {
            let mut c: Vec<Lit> = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = Var::from_index(rng.below(vars as u64) as usize);
                if c.iter().all(|l| l.var() != v) {
                    c.push(v.lit(rng.bool()));
                }
            }
            s.add_clause(c.iter().copied());
            original.push(c);
        }
        let mut answers = String::new();
        for _ in 0..16 {
            let assumptions: Vec<Lit> = (0..3)
                .map(|_| Var::from_index(rng.below(vars as u64) as usize).lit(rng.bool()))
                .collect();
            match s.solve_with(&assumptions) {
                SolveResult::Sat => {
                    answers.push('S');
                    assert!(satisfies(&s, &original), "model violates a clause");
                    let block: Vec<Lit> = (0..16)
                        .map(|i| {
                            let v = Var::from_index(i);
                            v.lit(!s.value(v).unwrap_or(false))
                        })
                        .collect();
                    s.add_clause(block.iter().copied());
                    original.push(block);
                }
                SolveResult::Unsat => {
                    answers.push('U');
                    let core = s.unsat_core().expect("unsat has a core").to_vec();
                    assert_eq!(s.solve_with(&core), SolveResult::Unsat, "core {core:?}");
                }
                SolveResult::Unknown => panic!("no budget was set"),
            }
            assert_db_consistent(&s);
        }
        assert!(s.db.compactions >= 1, "no compaction ran");
        assert_eq!(answers, "UUUSSSUUSSSSSUSS");
        // Pinned before the clause arena replaced the slab: storage must
        // not change the search.
        let want = Stats {
            conflicts: 11857,
            decisions: 14744,
            propagations: 546116,
            learnt_literals: 131083,
            reductions: 4,
            solves: 22,
            restarts: 75,
            assumed_literals: 66,
        };
        assert_eq!(*s.stats(), want);
    }

    #[test]
    fn order_explanations_survive_reduction_and_compaction() {
        // Near-threshold random 3-SAT over 12 ordered events and 150 free
        // variables, one literal in five drawn from the order pairs,
        // solved under assumptions with blocking clauses in between, so
        // that reductions and compactions run while order reasons and
        // built explanations are live. Every answer is checked against
        // the explicit encoding: the same clauses plus the 2·C(n,3)
        // transitivity clauses on a solver without an order.
        let mut rng = crate::xorshift::Rng::new(0x0de_c0de);
        let n = 12;
        let mut s = Solver::new();
        let pairs: Vec<Lit> = (0..n * (n - 1) / 2)
            .map(|_| s.new_var().positive())
            .collect();
        let free: Vec<Var> = (0..150).map(|_| s.new_var()).collect();
        let mut index = vec![0; n * n];
        let mut k = 0;
        for x in 0..n {
            for y in x + 1..n {
                index[x * n + y] = k;
                k += 1;
            }
        }
        assert!(s.add_total_order(n, |x, y| pairs[index[x * n + y]]));
        let mut explicit = Solver::new();
        while explicit.num_vars() < s.num_vars() {
            explicit.new_var();
        }
        // Each cycle once, rotated to start at its smallest event.
        for a in 0..n {
            for m in a + 1..n {
                for b in a + 1..n {
                    if m != b {
                        explicit.add_clause(s.total_order.clause(a, m, b));
                    }
                }
            }
        }
        let mut original: Vec<Vec<Lit>> = Vec::new();
        for _ in 0..680 {
            let c: Vec<Lit> = (0..3)
                .map(|_| {
                    if rng.below(5) == 0 {
                        pairs[rng.below(pairs.len() as u64) as usize]
                            .var()
                            .lit(rng.bool())
                    } else {
                        free[rng.below(150) as usize].lit(rng.bool())
                    }
                })
                .collect();
            s.add_clause(c.iter().copied());
            explicit.add_clause(c.iter().copied());
            original.push(c);
        }
        let mut answers = String::new();
        for _ in 0..24 {
            let assumptions: Vec<Lit> = (0..3)
                .map(|_| free[rng.below(150) as usize].lit(rng.bool()))
                .collect();
            let expect = explicit.solve_with(&assumptions);
            let got = s.solve_with(&assumptions);
            assert_eq!(got, expect, "native and explicit orders disagree");
            match got {
                SolveResult::Sat => {
                    answers.push('S');
                    assert!(satisfies(&s, &original), "model violates a clause");
                    let before = |a: usize, b: usize| {
                        a != b && s.lit_value_model(s.total_order.lit(a, b)) == Some(true)
                    };
                    for x in 0..n {
                        for y in 0..n {
                            for z in 0..n {
                                if before(x, y) && before(y, z) {
                                    assert!(before(x, z), "{x} < {y} < {z}");
                                }
                            }
                        }
                    }
                    let block: Vec<Lit> = free[..12]
                        .iter()
                        .map(|&v| v.lit(!s.value(v).unwrap_or(false)))
                        .collect();
                    s.add_clause(block.iter().copied());
                    explicit.add_clause(block.iter().copied());
                    original.push(block);
                }
                SolveResult::Unsat => {
                    answers.push('U');
                    let core = s.unsat_core().expect("unsat has a core").to_vec();
                    assert_eq!(s.solve_with(&core), SolveResult::Unsat, "core {core:?}");
                }
                SolveResult::Unknown => panic!("no budget was set"),
            }
            assert_db_consistent(&s);
        }
        assert!(answers.contains('S') && answers.contains('U'), "{answers}");
        assert!(
            s.db.compactions >= 4,
            "only {} compactions",
            s.db.compactions
        );
        assert!(
            !s.total_order.explained.is_empty(),
            "no explanation was built"
        );
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<f64> = (0..7).map(|i| luby(2.0, i)).collect();
        assert_eq!(seq, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0]);
    }
}
