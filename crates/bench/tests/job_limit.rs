//! A job list larger than the testbed can co-locate is a clean CLI error:
//! exit code 1 and a message naming the limit, never a panic (exit code
//! 101).

use std::process::Command;

#[test]
fn colocate_run_with_eleven_jobs_exits_1_naming_the_limit() {
    let out = Command::new(env!("CARGO_BIN_EXE_colocate"))
        .arg("run")
        .args(["swaptions"; 11])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("limit of 10 co-located jobs"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
