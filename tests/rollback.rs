//! Transactional firing semantics: fault injection at every action index,
//! rollback exactness, recovery policies, and resource guards.
//!
//! The central property (differential across all three matchers): if an
//! RHS action fails under `RecoveryPolicy::Rollback`, the engine's working
//! memory and conflict-set keys afterwards are *identical* to the
//! pre-firing snapshot — and after clearing the fault the run completes
//! with exactly the same working memory, conflict set, and output as a
//! run that never faulted.

use proptest::prelude::*;
use sorete::core::{
    CoreError, FaultPlan, GuardViolation, MatcherKind, ProductionSystem, RecoveryPolicy, RunGuards,
    StopReason,
};
use sorete_base::{TraceEvent, Value};
use std::time::Duration;

const KINDS: [MatcherKind; 3] = [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::Naive];

const TEAMS_OPS: &str = include_str!("../programs/teams.ops");

/// A fresh engine whose crash bundles go to a temp dir, not the checkout.
fn new_engine(kind: MatcherKind) -> ProductionSystem {
    let mut ps = ProductionSystem::new(kind);
    ps.set_crash_dir(std::env::temp_dir().join("sorete-rollback-it"));
    ps
}

fn teams_engine(kind: MatcherKind) -> ProductionSystem {
    let mut ps = new_engine(kind);
    ps.load_program(TEAMS_OPS).unwrap();
    for (name, team) in [
        ("Jack", "A"),
        ("Janice", "A"),
        ("Sue", "B"),
        ("Jack", "B"),
        ("Sue", "B"),
    ] {
        ps.make_str(
            "player",
            &[("name", Value::sym(name)), ("team", Value::sym(team))],
        )
        .unwrap();
    }
    ps
}

fn payroll_engine(kind: MatcherKind) -> ProductionSystem {
    let mut ps = new_engine(kind);
    ps.load_program(
        "(literalize dept id budget)
         (literalize emp name dept salary)
         (literalize finding dept kind amount)
         (p over-budget
           (dept ^id <d> ^budget <b>)
           [emp ^dept <d> ^salary <s>]
           :test ((avg <s>) > <b>)
           -->
           (write dept <d> over budget)
           (make finding ^dept <d> ^kind avg-over-budget ^amount (avg <s>)))
         (p too-many-heads
           (dept ^id <d>)
           { [emp ^dept <d>] <Staff> }
           :test ((count <Staff>) > 3)
           -->
           (make finding ^dept <d> ^kind overstaffed ^amount (count <Staff>)))
         (p salary-spread
           { [emp ^dept <d> ^salary <s>] <E> }
           :scalar (<d>)
           :test ((count <E>) > 1 and ((max <s>) - (min <s>)) > 50000)
           -->
           (make finding ^dept <d> ^kind wide-spread ^amount ((max <s>) - (min <s>))))",
    )
    .unwrap();
    for (id, budget) in [(10, 95_000), (20, 70_000)] {
        ps.make_str(
            "dept",
            &[("id", Value::Int(id)), ("budget", Value::Int(budget))],
        )
        .unwrap();
    }
    for (name, dept, sal) in [
        ("ann", 10, 120_000),
        ("bob", 10, 95_000),
        ("cat", 10, 60_000),
        ("dan", 10, 115_000),
        ("eve", 20, 65_000),
        ("fox", 20, 72_000),
    ] {
        ps.make_str(
            "emp",
            &[
                ("name", Value::sym(name)),
                ("dept", Value::Int(dept)),
                ("salary", Value::Int(sal)),
            ],
        )
        .unwrap();
    }
    ps
}

/// Observable engine state: working-memory contents (tag + class + slots)
/// and the conflict set's instantiation keys, both canonically ordered.
type Snapshot = (Vec<String>, Vec<String>);

fn snapshot(ps: &ProductionSystem) -> Snapshot {
    let wm: Vec<String> = ps.wm().dump().iter().map(|w| w.to_string()).collect();
    let mut cs: Vec<String> = ps
        .conflict_items()
        .iter()
        .map(|i| format!("{:?}", i.key))
        .collect();
    cs.sort();
    (wm, cs)
}

struct CleanRun {
    snapshot: Snapshot,
    output: Vec<String>,
    actions: u64,
}

fn clean_run(build: fn(MatcherKind) -> ProductionSystem, kind: MatcherKind) -> CleanRun {
    let mut ps = build(kind);
    let out = ps.run(None);
    assert!(
        matches!(out.reason, StopReason::Quiescence | StopReason::Halt),
        "clean run must finish normally, got {:?}",
        out.reason
    );
    CleanRun {
        snapshot: snapshot(&ps),
        output: ps.take_output(),
        actions: ps.stats().actions,
    }
}

/// Drive one engine with a fault at action `n` under Rollback: assert the
/// post-error state equals the immediate pre-firing snapshot, then clear
/// the fault and finish the run. Returns (faulted snapshot, final
/// snapshot, final output).
fn faulted_run(
    build: fn(MatcherKind) -> ProductionSystem,
    kind: MatcherKind,
    plan: FaultPlan,
) -> (Snapshot, Snapshot, Vec<String>) {
    let n = plan.target();
    let mut ps = build(kind);
    ps.inject_fault(plan);
    let mut steps = 0u32;
    let faulted = loop {
        steps += 1;
        assert!(steps < 10_000, "runaway step loop");
        let pre = snapshot(&ps);
        match ps.step() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("{:?}: fault at action {} never triggered", kind, n),
            Err(e) => {
                assert_eq!(e, CoreError::FaultInjected { action: n });
                let post = snapshot(&ps);
                assert_eq!(
                    pre, post,
                    "{:?}: rollback of a fault at action {} did not restore the pre-firing state",
                    kind, n
                );
                break post;
            }
        }
    };
    let plan = ps.take_fault().expect("plan still installed");
    assert!(plan.triggered());
    let out = ps.run(None);
    assert!(
        matches!(out.reason, StopReason::Quiescence | StopReason::Halt),
        "{:?}: resumed run must finish normally, got {:?}",
        kind,
        out.reason
    );
    (faulted, snapshot(&ps), ps.take_output())
}

/// Exhaustive fault sweep: fail every action index of the program, on
/// every matcher, and require (a) exact rollback, (b) identical faulted
/// state across matchers, (c) bit-identical completion after retry.
fn sweep(build: fn(MatcherKind) -> ProductionSystem) {
    let reference = clean_run(build, MatcherKind::Rete);
    assert!(reference.actions > 0);
    for kind in KINDS {
        let this = clean_run(build, kind);
        assert_eq!(
            this.snapshot, reference.snapshot,
            "{:?}: clean runs disagree",
            kind
        );
        assert_eq!(
            this.output, reference.output,
            "{:?}: clean outputs disagree",
            kind
        );
    }
    for n in 0..reference.actions {
        let mut faulted_states = Vec::new();
        for kind in KINDS {
            let (faulted, final_state, output) = faulted_run(build, kind, FaultPlan::nth(n));
            assert_eq!(
                final_state, reference.snapshot,
                "{:?}: retry after rollback of action {} diverged",
                kind, n
            );
            assert_eq!(
                output, reference.output,
                "{:?}: output after rollback of action {} diverged",
                kind, n
            );
            faulted_states.push(faulted);
        }
        assert!(
            faulted_states.windows(2).all(|w| w[0] == w[1]),
            "matchers disagree on the rolled-back state at action {}",
            n
        );
    }
}

#[test]
fn fault_at_every_action_rolls_back_exactly_teams() {
    sweep(teams_engine);
}

#[test]
fn fault_at_every_action_rolls_back_exactly_payroll() {
    sweep(payroll_engine);
}

/// Rollback must also leave the Rete hash-join indexes consistent: after a
/// fault is rolled back (which re-inserts retracted WMEs under their
/// original time tags), re-probing the indexes must see exactly what a
/// rebuild from scratch would.
#[test]
fn rollback_leaves_match_indexes_consistent() {
    for build in [teams_engine, payroll_engine] {
        let actions = clean_run(build, MatcherKind::Rete).actions;
        for n in 0..actions {
            let mut ps = build(MatcherKind::Rete);
            ps.inject_fault(FaultPlan::nth(n));
            loop {
                match ps.step() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("fault at action {} never triggered", n),
                    Err(_) => break,
                }
            }
            ps.validate_matcher()
                .unwrap_or_else(|e| panic!("after rollback of action {}: {}", n, e));
            ps.take_fault();
            ps.run(None);
            ps.validate_matcher()
                .unwrap_or_else(|e| panic!("after completing past action {}: {}", n, e));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded variant of the sweep: a splitmix-derived action index per
    /// case, differential across all three matchers.
    #[test]
    fn seeded_fault_injection_is_transactional(seed in any::<u64>()) {
        let reference = clean_run(teams_engine, MatcherKind::Rete);
        let plan = FaultPlan::seeded(seed, reference.actions);
        let mut faulted_states = Vec::new();
        for kind in KINDS {
            let (faulted, final_state, output) = faulted_run(teams_engine, kind, plan);
            prop_assert_eq!(&final_state, &reference.snapshot);
            prop_assert_eq!(&output, &reference.output);
            faulted_states.push(faulted);
        }
        prop_assert!(faulted_states.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn assert_batch_is_all_or_nothing_on_every_matcher() {
    use sorete_base::Symbol;
    let batch = || -> Vec<(Symbol, Vec<(Symbol, Value)>)> {
        [("Ann", "A"), ("Bob", "B"), ("Cy", "A")]
            .iter()
            .map(|(name, team)| {
                (
                    Symbol::new("player"),
                    vec![
                        (Symbol::new("name"), Value::sym(name)),
                        (Symbol::new("team"), Value::sym(team)),
                    ],
                )
            })
            .collect()
    };
    for kind in KINDS {
        // A schema error anywhere undoes the facts before it.
        for bad in 0..3 {
            let mut ps = teams_engine(kind);
            let before = (snapshot(&ps), ps.checkpoint_string());
            let mut facts = batch();
            facts[bad].1.push((Symbol::new("rank"), Value::Int(1)));
            assert!(ps.assert_batch(facts).is_err());
            assert_eq!(
                (snapshot(&ps), ps.checkpoint_string()),
                before,
                "{:?}: bad fact {}",
                kind,
                bad
            );
        }
        // A clean batch is the same facts asserted one by one.
        let mut batched = teams_engine(kind);
        let mut single = teams_engine(kind);
        let tags = batched.assert_batch(batch()).unwrap();
        let one_by_one: Vec<_> = batch()
            .into_iter()
            .map(|(class, slots)| single.assert_wme(class, slots).unwrap())
            .collect();
        assert_eq!(tags, one_by_one, "{:?}", kind);
        assert_eq!(snapshot(&batched), snapshot(&single), "{:?}", kind);
        assert_eq!(
            batched.run(None).fired,
            single.run(None).fired,
            "{:?}",
            kind
        );
        assert_eq!(snapshot(&batched), snapshot(&single), "{:?}", kind);
    }
}

#[test]
fn rollback_restores_output_and_halt_flag() {
    // Fault the very last action of the run: everything written by the
    // aborted firing must vanish from the output, and re-running must
    // reproduce it.
    let reference = clean_run(teams_engine, MatcherKind::Rete);
    let mut ps = teams_engine(MatcherKind::Rete);
    ps.inject_fault(FaultPlan::nth(reference.actions - 1));
    let out = ps.run(None);
    assert!(matches!(
        out.reason,
        StopReason::Error(CoreError::FaultInjected { .. })
    ));
    assert!(
        !ps.halted(),
        "halt flag must be rolled back with the firing"
    );
    assert_eq!(ps.stats().rolled_back, 1);
    ps.take_fault();
    let out = ps.run(None);
    assert!(matches!(
        out.reason,
        StopReason::Quiescence | StopReason::Halt
    ));
    assert_eq!(snapshot(&ps), reference.snapshot);
    assert_eq!(ps.take_output(), reference.output);
}

#[test]
fn partial_modify_failure_is_rolled_back() {
    // `modify` with an undeclared attribute fails *after* its retract
    // half; rollback must resurrect the retracted WME.
    let mut ps = new_engine(MatcherKind::Rete);
    ps.load_program(
        "(literalize item x)
         (p bad (item ^x <v>) --> (modify 1 ^bogus 2))",
    )
    .unwrap();
    ps.make_str("item", &[("x", Value::Int(1))]).unwrap();
    let before = snapshot(&ps);
    let out = ps.run(None);
    match out.reason {
        StopReason::Error(CoreError::Base(_)) => {}
        r => panic!("expected an attribute error, got {:?}", r),
    }
    assert_eq!(snapshot(&ps), before);
    assert_eq!(ps.wm().len(), 1);
}

#[test]
fn skip_firing_continues_past_the_error() {
    for kind in KINDS {
        let mut ps = teams_engine(kind);
        ps.set_recovery_policy(RecoveryPolicy::SkipFiring);
        ps.inject_fault(FaultPlan::nth(0));
        let out = ps.run(None);
        assert!(
            matches!(out.reason, StopReason::Quiescence | StopReason::Halt),
            "{:?}: SkipFiring must finish the run, got {:?}",
            kind,
            out.reason
        );
        assert_eq!(ps.stats().rolled_back, 1);
        assert!(out.fired > 0, "other instantiations still fire");
    }
}

#[test]
fn abort_run_stops_with_the_error_and_no_rollback() {
    let mut ps = teams_engine(MatcherKind::Rete);
    ps.set_recovery_policy(RecoveryPolicy::AbortRun);
    ps.inject_fault(FaultPlan::nth(2));
    let out = ps.run(None);
    assert!(matches!(
        out.reason,
        StopReason::Error(CoreError::FaultInjected { action: 2 })
    ));
    assert_eq!(ps.stats().rolled_back, 0);
}

#[test]
fn guards_stop_unbounded_wm_growth() {
    // `grow` fires on every seed WME and makes another: never quiesces.
    let mut ps = new_engine(MatcherKind::Rete);
    ps.load_program(
        "(literalize seed n)
         (p grow (seed ^n 0) --> (make seed ^n 0))",
    )
    .unwrap();
    ps.make_str("seed", &[("n", Value::Int(0))]).unwrap();
    ps.set_guards(RunGuards {
        max_wm: Some(40),
        ..Default::default()
    });
    let out = ps.run(None);
    match out.reason {
        StopReason::ResourceExhausted(GuardViolation::WmSize { limit: 40, actual }) => {
            assert!(actual > 40);
        }
        r => panic!("expected WmSize violation, got {:?}", r),
    }
}

#[test]
fn guards_stop_stagnant_modify_loop() {
    // `spin` modifies its own trigger forever: WM size never changes.
    let mut ps = new_engine(MatcherKind::Rete);
    ps.load_program(
        "(literalize counter n)
         (p spin (counter ^n <n>) --> (modify 1 ^n (<n> + 1)))",
    )
    .unwrap();
    ps.make_str("counter", &[("n", Value::Int(0))]).unwrap();
    ps.set_guards(RunGuards {
        max_stagnant_firings: Some(8),
        ..Default::default()
    });
    let out = ps.run(None);
    match out.reason {
        StopReason::ResourceExhausted(GuardViolation::Stagnation { firings, .. }) => {
            assert_eq!(firings, 8);
        }
        r => panic!("expected Stagnation violation, got {:?}", r),
    }
    assert_eq!(ps.wm().len(), 1);
}

#[test]
fn guards_enforce_wall_clock() {
    let mut ps = new_engine(MatcherKind::Rete);
    ps.load_program(
        "(literalize counter n)
         (p spin (counter ^n <n>) --> (modify 1 ^n (<n> + 1)))",
    )
    .unwrap();
    ps.make_str("counter", &[("n", Value::Int(0))]).unwrap();
    ps.set_guards(RunGuards {
        max_wall: Some(Duration::ZERO),
        ..Default::default()
    });
    let out = ps.run(None);
    assert!(matches!(
        out.reason,
        StopReason::ResourceExhausted(GuardViolation::WallClock { .. })
    ));
}

#[test]
fn dead_tag_actions_bump_skip_counter_and_trace() {
    // The second `remove 1` targets a tag the first already retracted.
    let mut ps = new_engine(MatcherKind::Rete);
    ps.load_program(
        "(literalize item x)
         (p r (item ^x 1) --> (remove 1) (remove 1))",
    )
    .unwrap();
    ps.set_event_log(true);
    ps.make_str("item", &[("x", Value::Int(1))]).unwrap();
    let out = ps.run(None);
    assert!(matches!(out.reason, StopReason::Quiescence));
    assert_eq!(ps.stats().skipped_actions, 1);
    assert_eq!(ps.stats().removes, 1);
    let trace = ps.trace_events();
    assert!(
        trace.iter().any(|ev| matches!(
            ev,
            TraceEvent::SkipAction {
                action: "remove",
                ..
            }
        )),
        "missing SKIP event in {:?}",
        trace
    );
}
