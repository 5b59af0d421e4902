//! End-to-end soak runs.
//!
//! Each scenario mutates process globals (the fault registry, trace
//! sampling, telemetry windows), so every scenario runs in its own
//! `reproduce` process, one after another. The one in-process test
//! below is the only test in this binary that touches those globals.

use std::process::Command;

use sram_bench::soak::{self, Scenario, SCENARIOS};

#[test]
fn every_scenario_holds_every_invariant_in_its_own_process() {
    for s in SCENARIOS {
        let experiment = format!("{}-soak", s.name);
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg(&experiment)
            .output()
            .expect("reproduce runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{experiment} exited {:?}:\n{stdout}\n{stderr}",
            out.status
        );
        for inv in s.invariants {
            assert!(
                stdout.contains(&format!("held   {}: ", inv.name)),
                "{experiment}: {:?} not reported as held:\n{stdout}",
                inv.name
            );
        }
        assert!(!stdout.contains("FAILED"), "{experiment}:\n{stdout}");
    }
}

/// Every request line is rejected, so the first faulted round exits
/// early while the plan is installed and sampling is overridden.
fn unknown_op(id: &str, _client: usize, _request: usize) -> String {
    format!(r#"{{"id":"{id}","op":"no-such-op"}}"#)
}

#[test]
fn an_early_exit_restores_the_fault_plan_and_trace_sampling() {
    let before = sram_probe::trace::sampling();
    let chaos = soak::scenario("chaos").expect("chaos scenario");
    let failing = Scenario {
        line: unknown_op,
        sampling: Some(before.0 / 2.0),
        ..*chaos
    };
    let err = soak::run_scenario(&failing, 1).expect_err("rejected requests end the run");
    assert!(err.contains("unexpected status"), "{err}");
    assert!(!sram_faults::enabled(), "the fault plan was left installed");
    assert_eq!(sram_probe::trace::sampling(), before);
}
