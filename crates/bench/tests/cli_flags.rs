//! The command-line tools reject what they do not parse: an unknown
//! flag, or a flag missing its value, prints the usage and exits 2
//! before any work starts.

use std::process::Command;

/// Run `bin` with `args`; its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the tool starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `bin` (named `name` in its usage line) exits 2 with its usage on an
/// unknown flag, a valued flag at the end of the line, and a valued flag
/// followed by another flag.
fn rejects_bad_command_lines(bin: &str, name: &str, valued: &str) {
    for args in [
        &["--smoke", "--app", "rtm"][..],
        &[valued],
        &[valued, "--platform", "a100"],
        &["--platform", "a1000"],
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{name} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name} [")),
            "{name} {args:?}: {stderr}"
        );
    }
}

#[test]
fn analyze_rejects_unknown_flags_and_missing_values() {
    rejects_bad_command_lines(env!("CARGO_BIN_EXE_analyze"), "analyze", "--app");
}

#[test]
fn graphlint_rejects_unknown_flags_and_missing_values() {
    rejects_bad_command_lines(env!("CARGO_BIN_EXE_graphlint"), "graphlint", "--app");
}

#[test]
fn dashboard_rejects_unknown_flags_and_missing_values() {
    rejects_bad_command_lines(env!("CARGO_BIN_EXE_dashboard"), "dashboard", "--out");
}
