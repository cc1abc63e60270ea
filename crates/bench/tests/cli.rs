//! End-to-end CLI tests against the compiled `afsysbench` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn afsysbench(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_afsysbench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("binary must run")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afsb-cli-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_experiment_exits_2_and_lists_available() {
    let dir = temp_dir("unknown");
    let out = afsysbench(&["definitely-not-real"], &dir);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment: definitely-not-real"),
        "{stderr}"
    );
    assert!(
        stderr.contains("table1")
            && stderr.contains("fig5")
            && stderr.contains("trace")
            && stderr.contains("serve"),
        "usage must list the available experiments:\n{stderr}"
    );
}

#[test]
fn serve_experiment_is_byte_identical_across_runs() {
    let dir = temp_dir("serve");
    let a = afsysbench(&["serve", "--quick"], &dir);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(
        stdout.contains("queries/h") && stdout.contains("warm_b1"),
        "{stdout}"
    );
    let b = afsysbench(&["serve", "--quick"], &dir);
    assert_eq!(a.stdout, b.stdout, "same-seed serve runs must be identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_flag_without_value_is_a_usage_error() {
    let dir = temp_dir("noout");
    let out = afsysbench(&["table1", "--quick", "--out"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out needs a directory"));
}

#[test]
fn out_creates_missing_directory_and_runs_many_experiments() {
    let dir = temp_dir("outdir");
    let nested = dir.join("does/not/exist/yet");
    let out = afsysbench(
        &[
            "table1",
            "table2",
            "--quick",
            "--out",
            nested.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(nested.join("table1.txt").exists());
    assert!(nested.join("table2.txt").exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("########## table1 ##########"));
    assert!(stdout.contains("########## table2 ##########"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn profile_unknown_experiment_exits_2() {
    let dir = temp_dir("badprof");
    let out = afsysbench(&["profile", "nope", "--quick"], &dir);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown profile experiment"), "{stderr}");
    assert!(
        stderr.contains("pipeline") && stderr.contains("msa-sweep"),
        "{stderr}"
    );
}

#[test]
fn profile_writes_artifacts_and_perf_diff_gates() {
    let dir = temp_dir("profile");
    let out_dir = dir.join("fresh-artifacts");
    let out = afsysbench(
        &[
            "profile",
            "pipeline",
            "--quick",
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = out_dir.join("BENCH_pipeline.json");
    assert!(baseline.exists());
    assert!(out_dir.join("pipeline.profile.txt").exists());
    assert!(out_dir.join("pipeline.collapsed.txt").exists());

    // Self-diff passes with exit 0.
    let ok = afsysbench(
        &[
            "perf-diff",
            baseline.to_str().unwrap(),
            baseline.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );
    let ok_stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(ok_stdout.contains("perf-diff OK"));
    // The pass line carries the one-line comparison summary: how many
    // metrics and symbol rows were compared and how many passed.
    assert!(
        ok_stdout.contains("metrics,") && ok_stdout.contains("symbol rows compared,"),
        "pass summary must report comparison counts: {ok_stdout}"
    );
    assert!(
        ok_stdout.contains("within tolerance"),
        "pass summary must report the within-tolerance count: {ok_stdout}"
    );

    // A corrupted current profile fails with exit 1 and names the symbol.
    let text = std::fs::read_to_string(&baseline).unwrap();
    let bumped = text.replacen("\"cycle_share\": 0.", "\"cycle_share\": 0.9", 1);
    assert_ne!(text, bumped, "fixture must contain a cycle share to bump");
    let bad = out_dir.join("BENCH_pipeline_bad.json");
    std::fs::write(&bad, bumped).unwrap();
    let fail = afsysbench(
        &[
            "perf-diff",
            baseline.to_str().unwrap(),
            bad.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(fail.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&fail.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");

    // Usage errors exit 2.
    let usage = afsysbench(&["perf-diff", baseline.to_str().unwrap()], &dir);
    assert_eq!(usage.status.code(), Some(2));
    let missing = afsysbench(&["perf-diff", "a.json", "b.json"], &dir);
    assert_eq!(missing.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A damaged copy of a committed baseline is refused with exit 2 and a
/// `perf-diff:` message naming the file, on either side of the diff:
/// a truncated file, a schema-drifted one (a required key renamed) and
/// one whose metric overflows f64 — which used to parse as infinity
/// and pass the gate.
#[test]
fn perf_diff_refuses_damaged_committed_baselines() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_serve_xl.json");
    let committed = committed.to_str().unwrap();
    let text = std::fs::read_to_string(committed).unwrap();
    let dir = temp_dir("damaged");
    let self_diff = afsysbench(&["perf-diff", committed, committed], &dir);
    assert_eq!(
        self_diff.status.code(),
        Some(0),
        "the committed file must pass"
    );

    let value = text.find("\"value\": ").unwrap() + "\"value\": ".len();
    let value_end = value + text[value..].find(['\n', ',', '}']).unwrap();
    let damaged = [
        ("truncated", text[..text.len() / 2].to_owned()),
        (
            "drifted",
            text.replacen("\"metrics\"", "\"metric_rows\"", 1),
        ),
        (
            "overflow",
            format!("{}1e400{}", &text[..value], &text[value_end..]),
        ),
    ];
    for (name, body) in damaged {
        assert_ne!(
            body, text,
            "{name} fixture must differ from the committed file"
        );
        let path = dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, body).unwrap();
        let path = path.to_str().unwrap();
        for args in [[path, committed], [committed, path]] {
            let out = afsysbench(&["perf-diff", args[0], args[1]], &dir);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(
                stderr.starts_with("perf-diff: ") && stderr.contains(path),
                "{name}: the message must name the file: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
