//! The command-line tools reject what they do not parse: an unknown
//! flag, platform or app, or a flag missing its value, prints the usage
//! and exits 2 before any work starts.

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

/// `bin` (named `name` in its usage line) exits 2 with its usage on
/// every one of `lines`.
fn exits_with_usage(bin: &str, name: &str, lines: &[&[&str]]) {
    for args in lines {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{name} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name} [")),
            "{name} {args:?}: {stderr}"
        );
    }
}

/// `bin` exits 2 with its usage on an unknown flag, a valued flag at the
/// end of the line, a valued flag followed by another flag, and an
/// unknown platform.
fn rejects_bad_command_lines(bin: &str, name: &str, valued: &str) {
    exits_with_usage(
        bin,
        name,
        &[
            &["--smoke", "--app", "rtm"],
            &[valued],
            &[valued, "--platform", "a100"],
            &["--platform", "a1000"],
        ],
    );
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
    let bin = env!("CARGO_BIN_EXE_dashboard");
    rejects_bad_command_lines(bin, "dashboard", "--out");
    exits_with_usage(bin, "dashboard", &[&["--apps", "nosuchapp"]]);
}

#[test]
fn profile_rejects_unknown_flags_platforms_and_operands() {
    let bin = env!("CARGO_BIN_EXE_profile");
    rejects_bad_command_lines(bin, "profile", "--platform");
    exits_with_usage(
        bin,
        "profile",
        &[
            &["cloverleaf2d", "--smoke", "--bogus"],
            &["cloverleaf2d", "mgcfd"],
            &["nosuchapp"],
        ],
    );
}

#[test]
fn engine_bench_rejects_unknown_flags_and_operands() {
    exits_with_usage(
        env!("CARGO_BIN_EXE_engine_bench"),
        "engine_bench",
        &[
            &["--bogus"],
            &["--smoke", "--bogus"],
            &["--platform", "a100"],
            &["stencil"],
        ],
    );
}
