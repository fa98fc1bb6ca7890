//! Shared plumbing for the paper-reproduction benchmarks.
//!
//! Each bench target regenerates one table or figure of the CheckFence
//! paper (see DESIGN.md §5 for the index). The helpers here select the
//! implementation/test matrix and format rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cf_algos::{tests, Algo, Variant};
use checkfence::{Harness, TestSpec};

/// One (implementation, test) cell of the evaluation matrix.
pub struct Workload {
    /// Implementation mnemonic (paper Table 1).
    pub algo: Algo,
    /// The harness (fenced build).
    pub harness: Harness,
    /// The symbolic test.
    pub test: TestSpec,
}

/// The default evaluation matrix: small and medium catalog tests per
/// implementation. Set `CHECKFENCE_FULL=1` to include the larger tests
/// (several minutes of solving).
pub fn workloads() -> Vec<Workload> {
    let full = std::env::var("CHECKFENCE_FULL").is_ok_and(|v| v == "1");
    let mut out = Vec::new();
    let pick = |names: &[&str]| -> Vec<TestSpec> {
        names
            .iter()
            .map(|n| tests::by_name(n).expect("catalog test"))
            .collect()
    };
    let matrix: Vec<(Algo, Vec<TestSpec>)> = vec![
        (
            Algo::Ms2,
            if full {
                pick(&["T0", "Ti2", "Tpc2", "Tpc3", "T1"])
            } else {
                pick(&["T0", "Ti2", "Tpc2"])
            },
        ),
        (
            Algo::Msn,
            if full {
                pick(&["T0", "Ti2", "Tpc2", "Tpc3"])
            } else {
                pick(&["T0", "Ti2"])
            },
        ),
        (
            Algo::Lazylist,
            if full {
                pick(&["Sac", "Sar", "Saa"])
            } else {
                pick(&["Sac"])
            },
        ),
        (
            Algo::Harris,
            if full {
                pick(&["Sac", "Sar"])
            } else {
                pick(&["Sac"])
            },
        ),
        (
            Algo::Snark,
            if full {
                pick(&["D0", "Da", "Db"])
            } else {
                pick(&["D0"])
            },
        ),
    ];
    for (algo, tests) in matrix {
        for test in tests {
            out.push(Workload {
                algo,
                harness: algo.harness(Variant::Fenced),
                test,
            });
        }
    }
    out
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

pub mod parallel {
    //! Parallel evaluation driver: fans the (implementation, test) × mode
    //! matrix out across the query engine's worker threads, pooled
    //! sessions per (implementation, test) cell.
    //!
    //! Each cell mines its specification once (reference interpreter) and
    //! then answers every requested memory model as one
    //! [`checkfence::Query`] on the shared [`checkfence::Engine`] — the
    //! batch is sharded across `jobs` workers by the engine itself.

    use std::time::{Duration, Instant};

    use cf_memmodel::{Mode, ModeSet};
    use checkfence::pool::run_indexed;
    use checkfence::{CheckConfig, Engine, EngineConfig, ModelSel, ObsSet, Query};

    use crate::Workload;

    /// One verdict of the evaluation matrix.
    #[derive(Clone, Debug)]
    pub struct CellResult {
        /// Implementation mnemonic.
        pub algo: &'static str,
        /// Test name.
        pub test: String,
        /// Memory model checked.
        pub mode: Mode,
        /// Whether the inclusion check passed.
        pub passed: bool,
        /// Infrastructure error, if the check could not run.
        pub error: Option<String>,
        /// Wall-clock time of this cell's query.
        pub elapsed: Duration,
    }

    /// Outcome of a matrix run.
    #[derive(Debug)]
    pub struct MatrixReport {
        /// Per-(cell, mode) verdicts, in deterministic matrix order.
        pub cells: Vec<CellResult>,
        /// Sessions created (= workloads; each answers all modes).
        pub sessions: usize,
        /// End-to-end wall-clock time.
        pub elapsed: Duration,
    }

    /// One cell of the shared grid runner: (passed, query wall time) or
    /// the error string that stopped the cell.
    type GridCell = Result<(bool, Duration), String>;

    /// The shared grid body behind [`run_matrix`] and
    /// [`run_matrix_with_specs`]: mines every workload's specification
    /// on `jobs` worker threads ([`run_indexed`] — reference-interpreter
    /// mining never touches the engine), then answers the workload ×
    /// model grid as one engine batch. Cells come back row-major by
    /// workload; the second value is the engine's pooled session count.
    fn run_grid(
        workloads: &[Workload],
        models: &[ModelSel],
        universe: ModeSet,
        specs: &[cf_spec::ModelSpec],
        jobs: usize,
    ) -> (Vec<GridCell>, usize) {
        let mined: Vec<Result<ObsSet, String>> = run_indexed(jobs, workloads.len(), |i| {
            checkfence::mine_reference(&workloads[i].harness, &workloads[i].test)
                .map(|m| m.spec)
                .map_err(|e| e.to_string())
        });
        let config = EngineConfig::from_check_config(&CheckConfig::default(), universe)
            .with_specs(specs.to_vec())
            .with_jobs(jobs);
        let mut engine = Engine::new(config);
        let mut queries = Vec::new();
        let mut slots: Vec<usize> = Vec::new(); // grid index per query
        let mut grid: Vec<GridCell> = Vec::with_capacity(workloads.len() * models.len());
        for (w, spec) in workloads.iter().zip(&mined) {
            // One base query per workload; cells clone it (Arc-shared
            // spec) and retarget the model axis.
            let base = spec
                .as_ref()
                .map(|s| Query::check_inclusion(&w.harness, &w.test, s.clone()));
            for &sel in models {
                match &base {
                    Ok(b) => {
                        slots.push(grid.len());
                        queries.push(b.clone().on_model(sel));
                        grid.push(Err("unanswered".into()));
                    }
                    Err(e) => grid.push(Err((*e).clone())),
                }
            }
        }
        for (slot, verdict) in slots.into_iter().zip(engine.run_batch(&queries)) {
            grid[slot] = verdict
                .map(|v| (v.passed(), v.stats.wall))
                .map_err(|e| e.to_string());
        }
        (grid, engine.stats().sessions)
    }

    /// Runs every workload × mode through one engine batch on `jobs`
    /// worker threads and returns the verdicts in deterministic
    /// (workload, mode) order.
    pub fn run_matrix(workloads: &[Workload], modes: &[Mode], jobs: usize) -> MatrixReport {
        let t0 = Instant::now();
        let mode_set: ModeSet = modes.iter().copied().collect();
        let models: Vec<ModelSel> = modes.iter().map(|&m| ModelSel::Builtin(m)).collect();
        let (grid, sessions) = run_grid(workloads, &models, mode_set, &[], jobs);
        let cells = workloads
            .iter()
            .flat_map(|w| modes.iter().map(move |&mode| (w, mode)))
            .zip(grid)
            .map(|((w, mode), cell)| {
                let mut out = CellResult {
                    algo: w.algo.name(),
                    test: w.test.name.clone(),
                    mode,
                    passed: false,
                    error: None,
                    elapsed: Duration::ZERO,
                };
                match cell {
                    Ok((passed, wall)) => {
                        out.passed = passed;
                        out.elapsed = wall;
                    }
                    Err(e) => out.error = Some(e),
                }
                out
            })
            .collect();
        MatrixReport {
            cells,
            sessions,
            elapsed: t0.elapsed(),
        }
    }

    /// One verdict of a mixed (built-in + declarative) model matrix.
    #[derive(Clone, Debug)]
    pub struct ModelCell {
        /// Implementation mnemonic.
        pub algo: &'static str,
        /// Test name.
        pub test: String,
        /// Display name of the model checked (mode name or spec name).
        pub model: String,
        /// Whether the inclusion check passed.
        pub passed: bool,
        /// Infrastructure error, if the check could not run.
        pub error: Option<String>,
        /// Wall-clock time of this cell's query.
        pub elapsed: Duration,
    }

    /// Runs every workload against built-in modes *and* declarative
    /// models through one engine batch on `jobs` worker threads: pooled
    /// sessions per workload, every encoding covering the whole model
    /// universe, each model answered by an assumption vector. Verdicts
    /// come back in deterministic (workload, modes.., specs..) order.
    pub fn run_matrix_with_specs(
        workloads: &[Workload],
        modes: &[Mode],
        specs: &[cf_spec::ModelSpec],
        jobs: usize,
    ) -> Vec<ModelCell> {
        let mode_set: ModeSet = modes.iter().copied().collect();
        let models: Vec<(String, ModelSel)> = modes
            .iter()
            .map(|&m| (m.name().to_string(), ModelSel::Builtin(m)))
            .chain(
                specs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.name.clone(), ModelSel::Spec(i))),
            )
            .collect();
        let sels: Vec<ModelSel> = models.iter().map(|(_, sel)| *sel).collect();
        let (grid, _) = run_grid(workloads, &sels, mode_set, specs, jobs);
        workloads
            .iter()
            .flat_map(|w| models.iter().map(move |(model, _)| (w, model)))
            .zip(grid)
            .map(|((w, model), cell)| {
                let mut out = ModelCell {
                    algo: w.algo.name(),
                    test: w.test.name.clone(),
                    model: model.clone(),
                    passed: false,
                    error: None,
                    elapsed: Duration::ZERO,
                };
                match cell {
                    Ok((passed, wall)) => {
                        out.passed = passed;
                        out.elapsed = wall;
                    }
                    Err(e) => out.error = Some(e),
                }
                out
            })
            .collect()
    }
}
