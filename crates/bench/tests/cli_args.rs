//! The `repro` CLI rejects malformed or out-of-range numeric flags with
//! exit status 2 and a one-line message, before any work starts and
//! without panicking.

use std::process::Command;

/// Runs `repro table3` with `flag value` appended.
fn repro(flag: &str, value: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table3", flag, value])
        .output()
        .expect("run repro")
}

#[test]
fn bad_numeric_values_exit_2_without_panicking() {
    let cases = [
        ("--scale", "0"),
        ("--scale", "-1"),
        ("--scale", "5"),
        ("--scale", "nan"),
        ("--scale", "inf"),
        ("--threads", "abc"),
        ("--threads", "0"),
        ("--loads", "x"),
    ];
    for (flag, value) in cases {
        let out = repro(flag, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: {stderr}");
        assert!(stderr.starts_with(flag), "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value} started work");
    }
}

#[test]
fn in_range_values_are_accepted() {
    for (flag, value) in [("--scale", "1"), ("--threads", "1"), ("--loads", "0")] {
        let out = repro(flag, value);
        assert!(out.status.success(), "{flag} {value}: {out:?}");
    }
}
