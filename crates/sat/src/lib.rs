//! # cf-sat — an incremental CDCL SAT solver
//!
//! This crate is the SAT back-end of the CheckFence reproduction. The paper
//! (Burckhardt, Alur, Martin; PLDI 2007) hands its CNF encodings to zChaff;
//! since the reproduction must be self-contained, this crate provides an
//! equivalent engine: a conflict-driven clause-learning solver with
//! two-watched-literal propagation, first-UIP learning, VSIDS branching,
//! phase saving, Luby restarts and learnt-clause database reduction.
//!
//! The one property CheckFence depends on heavily is *incrementality*:
//! specification mining (paper §3.2) repeatedly solves, reads off a model,
//! adds a blocking clause and re-solves. [`Solver::add_clause`] may be called
//! between [`Solver::solve`] calls, and learnt clauses are kept across calls.
//!
//! Clauses live inline in one flat `u32` arena (see `clause.rs` and the
//! "SAT clause storage" section of `DESIGN.md`): a clause reference is a
//! word offset, so watch visits never chase a per-clause allocation.
//!
//! [`Solver::add_total_order`] adds a native strict total order over
//! pair literals (the memory order `<M` of the encoder), propagated from
//! a dense matrix instead of the cubic transitivity clauses (see the
//! "Memory-order transitivity" section of `DESIGN.md`).
//!
//! ## Example
//!
//! Enumerate the models of `(a ∨ b)`:
//!
//! ```
//! use cf_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([a.positive(), b.positive()]);
//!
//! let mut models = 0;
//! while s.solve() == SolveResult::Sat {
//!     models += 1;
//!     // block this model
//!     let block = [
//!         a.lit(!s.value(a).unwrap_or(false)),
//!         b.lit(!s.value(b).unwrap_or(false)),
//!     ];
//!     s.add_clause(block);
//! }
//! assert_eq!(models, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod heap;
mod order;
mod solver;
mod stats;
mod types;

pub mod dimacs;
#[cfg(feature = "faults")]
pub mod faults;
pub mod xorshift;

pub use solver::{SolveEvent, SolveHook, SolveResult, Solver, SolverConfig, StopCause};
pub use stats::Stats;
pub use types::{LBool, Lit, Var};
