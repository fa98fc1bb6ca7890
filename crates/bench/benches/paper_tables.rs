//! Remaining paper artifacts: Table 1 (the implementations), Fig. 2 (the
//! IRIW execution impossible on Relaxed), the §4.4 memory-model runtime
//! comparison, and the order-encoding ablation (a reproduction
//! extension).

use cf_algos::{fences, tests, Algo, Variant};
use cf_bench::secs;
use cf_memmodel::{litmus, Mode};
use checkfence::{mine_reference, Engine, EngineConfig, OrderEncoding, Query};

fn main() {
    table1();
    fig2();
    model_choice();
    order_ablation();
}

/// Table 1: the five implementations, with compiled-size statistics.
fn table1() {
    println!("Table 1: studied implementations");
    println!(
        "{:<10} {:<28} {:>8} {:>8} {:>8}",
        "mnemonic", "kind", "procs", "stmts", "fences"
    );
    for algo in Algo::all() {
        let h = algo.harness(Variant::Fenced);
        let kind = match algo {
            Algo::Ms2 => "two-lock queue",
            Algo::Msn => "nonblocking queue",
            Algo::Lazylist => "lazy list-based set",
            Algo::Harris => "nonblocking set",
            Algo::Snark => "DCAS deque",
        };
        println!(
            "{:<10} {:<28} {:>8} {:>8} {:>8}",
            algo.name(),
            kind,
            h.program.procedures.len(),
            h.program.num_stmts(),
            fences::fence_sites(&h.program).len()
        );
    }
    println!();
}

/// Fig. 2: the IRIW-with-fences outcome is impossible on Relaxed
/// (Relaxed globally orders stores) though weaker architectures allow it.
fn fig2() {
    println!("Fig. 2: IRIW with load-load fences");
    let t = litmus::iriw_fenced();
    let outcome = [1, 0, 1, 0];
    for mode in [Mode::Sc, Mode::Relaxed] {
        println!(
            "  outcome (1,0,1,0) on {:8}: {}",
            mode.name(),
            if t.allows(mode, &outcome) {
                "ALLOWED (unexpected!)"
            } else {
                "forbidden (as the paper states)"
            }
        );
    }
    let unfenced = litmus::iriw_unfenced();
    println!(
        "  without the fences on relaxed: {}",
        if unfenced.allows(Mode::Relaxed, &outcome) {
            "allowed (loads reorder)"
        } else {
            "forbidden (unexpected!)"
        }
    );
    println!();
}

/// §4.4 "Choice of memory model": SC vs Relaxed runtimes are close
/// (paper: ~4% difference). Extended with the TSO/PSO columns — the
/// insensitivity holds across the whole chain.
fn model_choice() {
    println!("§4.4: memory model choice (inclusion-check runtime)");
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "impl", "test", "sc[s]", "tso[s]", "pso[s]", "relaxed[s]", "rx/sc"
    );
    let cases = [(Algo::Msn, "T0"), (Algo::Msn, "Ti2"), (Algo::Ms2, "T0")];
    for (algo, tn) in cases {
        let h = algo.harness(Variant::Fenced);
        let t = tests::by_name(tn).expect("catalog");
        let spec = mine_reference(&h, &t).expect("mines").spec;
        let mut times = Vec::new();
        for mode in Mode::hardware() {
            let v = Query::check_inclusion(&h, &t, spec.clone())
                .on(mode)
                .run()
                .expect("checks");
            times.push(v.phase.total_time);
        }
        println!(
            "{:<10} {:>6} {:>10} {:>10} {:>10} {:>10} {:>7.2}x",
            algo.name(),
            tn,
            secs(times[0]),
            secs(times[1]),
            secs(times[2]),
            secs(times[3]),
            times[3].as_secs_f64() / times[0].as_secs_f64().max(1e-9)
        );
    }
    println!();
}

/// Extension: the paper's pairwise `Mxy` order encoding against the
/// timestamp encoding. The pairwise encoding wins decisively — explicit
/// transitivity clauses propagate well, comparator circuits do not.
fn order_ablation() {
    println!("Ablation: memory-order encoding (msn, Relaxed)");
    println!(
        "{:<6} {:>12} {:>10} {:>10} {:>12}",
        "test", "encoding", "vars", "clauses", "total[s]"
    );
    let h = Algo::Msn.harness(Variant::Fenced);
    for tn in ["T0"] {
        let t = tests::by_name(tn).expect("catalog");
        let spec = mine_reference(&h, &t).expect("mines").spec;
        for enc in [OrderEncoding::Pairwise, OrderEncoding::Timestamp] {
            let mut config = EngineConfig::single(Mode::Relaxed);
            config.check.order_encoding = enc;
            // The timestamp encoding can be orders of magnitude slower;
            // cap it so the ablation terminates.
            config.check.conflict_budget = Some(4_000_000);
            let query = Query::check_inclusion(&h, &t, spec.clone()).on(Mode::Relaxed);
            match Engine::new(config).run(&query) {
                Ok(v) if v.inconclusive().is_none() => println!(
                    "{:<6} {:>12} {:>10} {:>10} {:>12}",
                    tn,
                    enc.name(),
                    v.phase.sat_vars,
                    v.phase.sat_clauses,
                    secs(v.phase.total_time)
                ),
                Ok(v) => println!(
                    "{:<6} {:>12} inconclusive: {}",
                    tn,
                    enc.name(),
                    v.inconclusive().expect("checked by the guard")
                ),
                Err(e) => println!("{:<6} {:>12} {e}", tn, enc.name()),
            }
        }
    }
}
