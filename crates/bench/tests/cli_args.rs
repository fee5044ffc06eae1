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

#[test]
fn resume_rejects_a_record_row_outside_the_campaign() {
    let dir = std::env::temp_dir().join(format!("h2ready-cli-range-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("partial.h2c");
    let record = path.to_str().expect("utf-8 temp path");
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro")
    };
    let campaign = [
        "adoption",
        "--scale",
        "0.001",
        "--exp",
        "1",
        "--threads",
        "1",
    ];
    let killed = repro(&[&campaign[..], &["--record", record, "--kill-after", "5"]].concat());
    assert_eq!(killed.status.code(), Some(3), "{killed:?}");

    // Append a copy of a real row relabelled with an index the 52-site
    // campaign does not have.
    let content = std::fs::read_to_string(&path).expect("partial record");
    let row = content
        .lines()
        .find(|line| line.starts_with("r|i="))
        .expect("a persisted row");
    let (_, rest) = row["r|i=".len()..].split_once('|').expect("row fields");
    std::fs::write(&path, format!("{content}r|i=999|{rest}\n")).expect("append row");

    for out in [
        repro(&[&campaign[..], &["--resume", record]].concat()),
        repro(&["diff", record, record]),
        repro(&["serve", record]),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("outside"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
