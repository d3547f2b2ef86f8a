//! Pins the determinism probe: `detprobe` must print exactly the committed
//! `detprobe.expected`, byte for byte. Every simulated decision of the
//! probe's seed grid (static engine, online campaigns, multi-pack staging,
//! the greedy grid) feeds a makespan or trace hash on that output, so any
//! behaviour change in either engine or any policy shows up here.
//!
//! An intended behaviour change regenerates the file:
//! `cargo run --release -p redistrib-bench --bin detprobe > crates/bench/detprobe.expected`

use std::process::Command;

#[test]
fn detprobe_output_matches_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_detprobe")).output().expect("run detprobe");
    assert!(out.status.success(), "detprobe failed: {}", String::from_utf8_lossy(&out.stderr));
    let expected = include_str!("../detprobe.expected");
    let actual = String::from_utf8(out.stdout).expect("detprobe prints UTF-8");
    if actual != expected {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "detprobe output differs from detprobe.expected at line {} \
             ({} expected lines, {} actual)\nexpected: {:?}\nactual:   {:?}",
            first + 1,
            expected.lines().count(),
            actual.lines().count(),
            expected.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}
