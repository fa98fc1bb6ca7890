//! End-to-end pipeline tests: mini-C → LSL → symbolic execution →
//! encoding → SAT → verdict, validated against hand-computed semantics
//! and the explicit-state memory model oracle.

use cf_lsl::Value;
use cf_memmodel::Mode;
use cf_sat::SolveResult;
use checkfence::{
    analyze, execute, mine_reference, CheckError, CheckOutcome, Encoding, Engine, EngineConfig,
    FailureKind, Harness, LoopBounds, ObsSet, OpSig, OrderEncoding, Query, TestSpec,
};

fn harness(
    name: &str,
    src: &str,
    init: Option<&str>,
    ops: &[(char, &str, usize, bool)],
) -> Harness {
    let program = cf_minic::compile(src).expect("compiles");
    Harness {
        name: name.into(),
        program,
        init_proc: init.map(String::from),
        ops: ops
            .iter()
            .map(|&(key, proc_name, num_args, has_ret)| OpSig {
                key,
                proc_name: proc_name.into(),
                num_args,
                has_ret,
            })
            .collect(),
    }
}

fn register_harness() -> Harness {
    harness(
        "register",
        r#"
            int cell;
            void set_op(int v) { cell = v; }
            int get_op() { return cell; }
        "#,
        None,
        &[('s', "set_op", 1, false), ('g', "get_op", 0, true)],
    )
}

fn check(h: &Harness, test: &str, mode: Mode) -> CheckOutcome {
    let t = TestSpec::parse("t", test).expect("parses");
    let spec = mine_reference(h, &t).expect("mines").spec;
    Query::check_inclusion(h, &t, spec)
        .on(mode)
        .run()
        .expect("checks")
        .into_outcome()
        .expect("outcome")
}

/// Re-derives a FAIL witness — observation `obs` of `test` on `mode` —
/// from a pairwise encoding and checks the decoded memory order against
/// the model: `x` precedes `y` in `memory_order()` exactly when the pair
/// literal of `x <M y` is true, for every two executed events.
fn assert_witness_order_matches_pairs(h: &Harness, test: &str, mode: Mode, obs: &[Value]) {
    let t = TestSpec::parse("t", test).expect("parses");
    let sx = execute(h, &t, &LoopBounds::new(), 2).expect("executes");
    let range = analyze(&sx, true);
    let mut enc = Encoding::build(&sx, &range, mode, OrderEncoding::Pairwise);
    let mut assumptions = enc.mode_assumptions(mode);
    for (e, v) in enc.obs.clone().iter().zip(obs) {
        assumptions.push(enc.enc_eq_const(e, v));
    }
    assert_eq!(
        enc.cnf.solver.solve_with(&assumptions),
        SolveResult::Sat,
        "witness {obs:?} reproduces"
    );
    assert_eq!(enc.decode_obs(), obs);
    let order = enc.memory_order();
    let executed: Vec<usize> = (0..sx.events.len())
        .filter(|&e| enc.event_executed(e))
        .collect();
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted, executed,
        "the memory order lists each executed event once"
    );
    for (i, &x) in order.iter().enumerate() {
        for (j, &y) in order.iter().enumerate() {
            if i != j {
                let pair = enc.before(x, y);
                assert_eq!(
                    enc.cnf.lit_value(pair),
                    i < j,
                    "events {x} and {y} at positions {i} and {j} of {order:?}"
                );
            }
        }
    }
}

#[test]
fn racy_register_is_serializable_with_single_reader() {
    let h = register_harness();
    assert!(check(&h, "( s | g )", Mode::Relaxed).passed());
    assert!(check(&h, "( s | g )", Mode::Sc).passed());
}

#[test]
fn register_read_read_coherence_fails_on_relaxed() {
    // Two loads of the same location may reorder on Relaxed (relaxation
    // 4): the reader can observe (new, old), which no serial execution
    // produces.
    let h = register_harness();
    assert!(check(&h, "( s | gg )", Mode::Sc).passed());
    match check(&h, "( s | gg )", Mode::Relaxed) {
        CheckOutcome::Fail(cx) => {
            assert_eq!(cx.kind, FailureKind::InconsistentObservation);
            // The characteristic observation: first read 1, then 0.
            assert_eq!(
                cx.obs,
                vec![Value::Int(1), Value::Int(1), Value::Int(0)],
                "observation should be set(1), get->1, get->0; trace:\n{cx}"
            );
            assert_witness_order_matches_pairs(&h, "( s | gg )", Mode::Relaxed, &cx.obs);
        }
        CheckOutcome::Pass => panic!("expected CoRR failure on Relaxed"),
    }
}

#[test]
fn fenced_register_reader_passes_on_relaxed() {
    let h = harness(
        "register+fence",
        r#"
            int cell;
            void set_op(int v) { cell = v; }
            int get_op() { fence("load-load"); int v = cell; fence("load-load"); return v; }
        "#,
        None,
        &[('s', "set_op", 1, false), ('g', "get_op", 0, true)],
    );
    assert!(check(&h, "( s | gg )", Mode::Relaxed).passed());
}

fn mp_harness(fenced: bool) -> Harness {
    // A "message" data type: publish writes a payload then a flag;
    // consume reads the flag and, if set, the payload. Reading a stale
    // payload after seeing the flag is the paper's "incomplete
    // initialization" failure (§4.3).
    let fences = if fenced {
        (r#"fence("store-store");"#, r#"fence("load-load");"#)
    } else {
        ("", "")
    };
    let src = format!(
        r#"
        int data;
        int flag;
        void publish_op() {{
            data = 1;
            {}
            flag = 1;
        }}
        int consume_op() {{
            int f = flag;
            {}
            if (f == 1) {{ return data + 1; }}
            return 0;
        }}
        "#,
        fences.0, fences.1
    );
    harness(
        "message",
        &src,
        None,
        &[('p', "publish_op", 0, false), ('c', "consume_op", 0, true)],
    )
}

#[test]
fn message_passing_fails_unfenced_on_relaxed() {
    let h = mp_harness(false);
    assert!(check(&h, "( p | c )", Mode::Sc).passed(), "SC is fine");
    match check(&h, "( p | c )", Mode::Relaxed) {
        CheckOutcome::Fail(cx) => {
            assert_eq!(cx.kind, FailureKind::InconsistentObservation);
            // flag seen (ret = data+1) but data stale (0) => ret = 1.
            assert_eq!(cx.obs, vec![Value::Int(1)], "stale data read; trace:\n{cx}");
            assert_witness_order_matches_pairs(&h, "( p | c )", Mode::Relaxed, &cx.obs);
        }
        CheckOutcome::Pass => panic!("expected MP failure on Relaxed"),
    }
}

#[test]
fn message_passing_passes_fenced_on_relaxed() {
    let h = mp_harness(true);
    assert!(check(&h, "( p | c )", Mode::Relaxed).passed());
}

#[test]
fn store_buffering_needs_store_load_fence() {
    // Each thread publishes its own flag then reads the other's: the
    // classic Dekker handshake. The handshake is deliberately not
    // serializable — SC allows both threads to read 1, which no atomic
    // interleaving produces — so the specification is extended with that
    // outcome and the test isolates the *store buffering* weakness:
    // both threads reading 0 requires store-load reordering.
    let mk = |fenced: bool| {
        let f = if fenced {
            r#"fence("store-load");"#
        } else {
            ""
        };
        let src = format!(
            r#"
            int x;
            int y;
            int left_op() {{ x = 1; {f} return y; }}
            int right_op() {{ y = 1; {f} return x; }}
            "#
        );
        harness(
            "dekker",
            &src,
            None,
            &[('l', "left_op", 0, true), ('r', "right_op", 0, true)],
        )
    };
    let t = TestSpec::parse("t", "( l | r )").expect("parses");
    let h = mk(false);
    let mut spec = mine_reference(&h, &t).expect("mines").spec;
    assert_eq!(
        spec.vectors,
        [
            vec![Value::Int(0), Value::Int(1)],
            vec![Value::Int(1), Value::Int(0)]
        ]
        .into_iter()
        .collect(),
        "serial executions order the two handshakes"
    );
    spec.vectors.insert(vec![Value::Int(1), Value::Int(1)]); // SC overlap
                                                             // SC with the extended spec: only (0,1), (1,0), (1,1) — passes.
    let hf = mk(true);
    let mut engine = Engine::new(EngineConfig::default());
    let v = engine
        .run(&Query::check_inclusion(&h, &t, spec.clone()).on(Mode::Sc))
        .expect("checks");
    assert!(v.passed());
    // Relaxed: store buffering yields (0,0).
    let v = engine
        .run(&Query::check_inclusion(&h, &t, spec.clone()).on(Mode::Relaxed))
        .expect("checks");
    match v.into_outcome().expect("outcome") {
        CheckOutcome::Fail(cx) => {
            assert_eq!(cx.obs, vec![Value::Int(0), Value::Int(0)], "trace:\n{cx}");
            assert_witness_order_matches_pairs(&h, "( l | r )", Mode::Relaxed, &cx.obs);
        }
        CheckOutcome::Pass => panic!("expected store-buffering failure"),
    }
    // Store-load fences restore the SC behaviour.
    let v = engine
        .run(&Query::check_inclusion(&hf, &t, spec.clone()).on(Mode::Relaxed))
        .expect("checks");
    assert!(v.passed());
    // One pooled session per harness answered both of `h`'s models.
    assert_eq!(engine.stats().sessions, 2);
    assert_eq!(engine.stats().queries, 3);
}

#[test]
fn sat_mining_agrees_with_reference_mining() {
    let h = register_harness();
    for test in ["( s | g )", "( ss | g )", "s ( s | gg )"] {
        let t = TestSpec::parse("t", test).expect("parses");
        let sat = Query::mine(&h, &t)
            .run()
            .expect("sat mining")
            .into_observations()
            .expect("observations");
        let reference = mine_reference(&h, &t).expect("ref mining").spec;
        assert_eq!(sat, reference, "mining disagreement on {test}");
    }
}

#[test]
fn sat_mining_agrees_on_message_passing() {
    let h = mp_harness(false);
    let t = TestSpec::parse("t", "( p | cc )").expect("parses");
    let sat = Query::mine(&h, &t)
        .run()
        .expect("sat mining")
        .into_observations()
        .expect("observations");
    let reference = mine_reference(&h, &t).expect("ref mining").spec;
    assert_eq!(sat, reference);
}

#[test]
fn order_encodings_agree() {
    let h = register_harness();
    let fail_test = TestSpec::parse("t", "( s | gg )").expect("parses");
    let spec = mine_reference(&h, &fail_test).expect("mines").spec;
    for enc in [OrderEncoding::Pairwise, OrderEncoding::Timestamp] {
        let mut config = EngineConfig::default();
        config.check.order_encoding = enc;
        let mut engine = Engine::new(config);
        let relaxed = engine
            .run(&Query::check_inclusion(&h, &fail_test, spec.clone()).on(Mode::Relaxed))
            .expect("checks");
        assert!(!relaxed.passed(), "{} should find CoRR", enc.name());
        let sc = engine
            .run(&Query::check_inclusion(&h, &fail_test, spec.clone()).on(Mode::Sc))
            .expect("checks");
        assert!(sc.passed(), "{} SC should pass", enc.name());
        assert_eq!(engine.stats().encodes, 1, "{}: one encoding", enc.name());
    }
}

#[test]
fn range_analysis_off_is_still_sound() {
    let h = register_harness();
    let t = TestSpec::parse("t", "( s | gg )").expect("parses");
    let spec = mine_reference(&h, &t).expect("mines").spec;
    let mut config = EngineConfig::default();
    config.check.range_analysis = false;
    let mut engine = Engine::new(config);
    let relaxed = engine
        .run(&Query::check_inclusion(&h, &t, spec.clone()).on(Mode::Relaxed))
        .expect("checks");
    assert!(!relaxed.passed());
    let sc = engine
        .run(&Query::check_inclusion(&h, &t, spec).on(Mode::Sc))
        .expect("checks");
    assert!(sc.passed());
}

#[test]
fn spinlock_counter_is_serializable_on_relaxed() {
    // Fig. 7 lock/unlock around a counter increment: fully lock-based
    // code is insensitive to the memory model.
    let h = harness(
        "locked-counter",
        r#"
            typedef enum { free, held } lock_t;
            lock_t lk;
            int counter;
            void lock(lock_t *lock) {
                lock_t val;
                do {
                    atomic { val = *lock; *lock = held; }
                } spinwhile (val != free);
                fence("load-load");
                fence("load-store");
            }
            void unlock(lock_t *lock) {
                fence("load-store");
                fence("store-store");
                atomic { assert(*lock == held); *lock = free; }
            }
            int inc_op() {
                lock(&lk);
                int v = counter;
                counter = v + 1;
                unlock(&lk);
                return v;
            }
        "#,
        None,
        &[('i', "inc_op", 0, true)],
    );
    assert!(check(&h, "( i | i )", Mode::Relaxed).passed());
    assert!(check(&h, "( ii | i )", Mode::Relaxed).passed());
}

#[test]
fn unlocked_counter_loses_increments() {
    let h = harness(
        "racy-counter",
        r#"
            int counter;
            int inc_op() { int v = counter; counter = v + 1; return v; }
            int read_op() { return counter; }
        "#,
        None,
        &[('i', "inc_op", 0, true), ('r', "read_op", 0, true)],
    );
    // Two increments racing: both can read 0 (a lost update). Serially
    // the returns are always {0,1}. This fails even on SC.
    match check(&h, "( i | i )", Mode::Sc) {
        CheckOutcome::Fail(cx) => {
            assert_eq!(cx.obs, vec![Value::Int(0), Value::Int(0)], "lost update");
            assert_witness_order_matches_pairs(&h, "( i | i )", Mode::Sc, &cx.obs);
        }
        CheckOutcome::Pass => panic!("expected lost update on SC"),
    }
}

#[test]
fn degenerate_tests_are_rejected_with_a_clear_error() {
    // Harness generators routinely produce 0-thread / 0-op shapes; both
    // the reference miner and the engine must answer with
    // `CheckError::DegenerateTest`, not a panic deep in the pipeline.
    let h = register_harness();
    let no_threads = TestSpec {
        name: "empty".into(),
        init: vec![],
        threads: vec![],
    };
    let empty_thread = TestSpec {
        name: "hole".into(),
        init: vec![],
        threads: vec![
            vec![checkfence::OpInvocation {
                key: 's',
                primed: false,
            }],
            vec![],
        ],
    };
    let init_only = TestSpec {
        name: "init-only".into(),
        init: vec![checkfence::OpInvocation {
            key: 's',
            primed: false,
        }],
        threads: vec![],
    };
    for t in [&no_threads, &empty_thread, &init_only] {
        match mine_reference(&h, t) {
            Err(CheckError::DegenerateTest(msg)) => {
                assert!(msg.contains(&t.name), "{msg}");
            }
            other => panic!("{}: expected DegenerateTest, got {other:?}", t.name),
        }
        let mut engine = Engine::new(EngineConfig::default());
        for query in [
            Query::mine(&h, t),
            Query::enumerate(&h, t),
            Query::check_inclusion(&h, t, ObsSet::default()),
        ] {
            match engine.run(&query) {
                Err(CheckError::DegenerateTest(_)) => {}
                other => panic!("{}: expected DegenerateTest, got {other:?}", t.name),
            }
        }
        // Rejected before any session was created.
        assert_eq!(engine.stats().sessions, 0);
    }
}

#[test]
fn assert_failures_are_runtime_errors() {
    let h = harness(
        "asserting",
        r#"
            int x;
            void set_op(int v) { x = v; }
            void check_op() { int v = x; assert(v == 0); }
        "#,
        None,
        &[('s', "set_op", 1, false), ('c', "check_op", 0, false)],
    );
    // Serially, set(1) before check makes the assert fail: a serial bug.
    let t = TestSpec::parse("t", "( s | c )").expect("parses");
    match mine_reference(&h, &t) {
        Err(CheckError::SerialBug(_)) => {}
        other => panic!("expected serial bug, got {other:?}"),
    }
    match Query::mine(&h, &t).run() {
        Err(CheckError::SerialBug(cx)) => {
            assert_eq!(cx.kind, FailureKind::SerialError);
        }
        other => panic!("expected serial bug, got {other:?}"),
    }
}

#[test]
fn uninitialized_heap_read_is_detected() {
    // The lazy-list bug pattern: a freshly allocated node's field is
    // read before initialization.
    let h = harness(
        "uninit",
        r#"
            typedef struct node { int marked; } node_t;
            node_t *shared;
            void make_op() { node_t *n = malloc(node_t); shared = n; }
            int probe_op() {
                node_t *n = shared;
                if (n != 0) {
                    if (n->marked) { return 2; }
                    return 1;
                }
                return 0;
            }
        "#,
        None,
        &[('m', "make_op", 0, false), ('p', "probe_op", 0, true)],
    );
    let t = TestSpec::parse("t", "( m | p )").expect("parses");
    match mine_reference(&h, &t) {
        Err(CheckError::SerialBug(cx)) => {
            assert!(
                cx.errors.iter().any(|e| e.contains("undefined")),
                "expected undefined-value error, got {:?}",
                cx.errors
            );
        }
        other => panic!("expected serial bug, got {other:?}"),
    }
}

#[test]
fn init_sequence_values_flow_to_threads() {
    // Initialization writes are visible to all threads on every model.
    let h = harness(
        "seeded",
        r#"
            int cell;
            void seed_op(int v) { cell = v + 1; }
            int get_op() { return cell; }
        "#,
        None,
        &[('s', "seed_op", 1, false), ('g', "get_op", 0, true)],
    );
    let t = TestSpec::parse("t", "s ( g | g )").expect("parses");
    let mined = mine_reference(&h, &t).expect("mines");
    // obs = (arg, ret1, ret2); both reads see arg+1.
    for o in &mined.spec.vectors {
        assert_eq!(o.len(), 3);
        let expect = match &o[0] {
            Value::Int(n) => Value::Int(n + 1),
            other => panic!("unexpected arg {other}"),
        };
        assert_eq!(o[1], expect);
        assert_eq!(o[2], expect);
    }
    assert!(Query::check_inclusion(&h, &t, mined.spec)
        .on(Mode::Relaxed)
        .run()
        .expect("checks")
        .passed());
}

#[test]
fn empty_spec_makes_everything_fail() {
    let h = register_harness();
    let t = TestSpec::parse("t", "( s | g )").expect("parses");
    let empty = ObsSet::default();
    assert!(!Query::check_inclusion(&h, &t, empty)
        .run()
        .expect("checks")
        .passed());
}

fn cas_counter(fenced: bool) -> Harness {
    let f = if fenced { r#"fence("load-load");"# } else { "" };
    let src = format!(
        r#"
        int counter;
        bool cas(unsigned *loc, unsigned old, unsigned new) {{
            atomic {{
                if (*loc == old) {{ *loc = new; return true; }}
                return false;
            }}
        }}
        int inc_op() {{
            int v;
            while (true) {{
                v = counter;
                {f}
                if (cas(&counter, v, v + 1)) {{ break; }}
                {f}
            }}
            return v;
        }}
        "#
    );
    harness("cas-counter", &src, None, &[('i', "inc_op", 0, true)])
}

#[test]
fn cas_retry_loop_uses_lazy_unrolling() {
    // A CAS increment with a retry loop: serially the first attempt
    // succeeds, but concurrently the loop needs more iterations — the
    // lazy unrolling must discover that. The load-load fences bound the
    // retries on Relaxed (each fenced retry is guaranteed to observe the
    // competing update).
    let h = cas_counter(true);
    assert!(check(&h, "( i | i )", Mode::Sc).passed());
    assert!(check(&h, "( i | i )", Mode::Relaxed).passed());
}

#[test]
fn unfenced_cas_retry_livelocks_on_relaxed() {
    // Without fences, every retry may re-read stale values forever under
    // Relaxed: the set of executions is genuinely unbounded and the lazy
    // unrolling reports divergence instead of looping forever.
    let h = cas_counter(false);
    assert!(
        check(&h, "( i | i )", Mode::Sc).passed(),
        "SC retries are bounded"
    );
    let t = TestSpec::parse("t", "( i | i )").expect("parses");
    let spec = mine_reference(&h, &t).expect("mines").spec;
    match Query::check_inclusion(&h, &t, spec).on(Mode::Relaxed).run() {
        Err(CheckError::BoundsDiverged { .. }) => {}
        other => panic!("expected bound divergence, got {other:?}"),
    }
}
