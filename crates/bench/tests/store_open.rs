//! A `--store` or `--journal` path that cannot be opened is a clean CLI
//! error: exit code 1 and a message naming the file, never a panic (exit
//! code 101). A store made at a non-default shard count reopens at that
//! count wherever no count is asked for, `colocate fleet` included.

use std::path::PathBuf;
use std::process::Command;

/// A regular file standing where the store's directory should be.
fn file_as_parent(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clite-store-open-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"a regular file").unwrap();
    file
}

fn assert_clean_failure(bin: &str, args: &[&str], tag: &str) {
    let parent = file_as_parent(tag);
    let store = parent.join("obs");
    let out = Command::new(bin).args(args).arg("--store").arg(&store).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("cannot open observation store"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(parent.parent().unwrap()).ok();
}

#[test]
fn experiments_fig16_with_an_unopenable_store_exits_1() {
    assert_clean_failure(env!("CARGO_BIN_EXE_experiments"), &["fig16", "--quick"], "fig16");
}

#[test]
fn colocate_run_with_an_unopenable_store_exits_1() {
    assert_clean_failure(
        env!("CARGO_BIN_EXE_colocate"),
        &["run", "memcached:40", "img-dnn:30", "streamcluster"],
        "run",
    );
}

#[test]
fn colocate_fleet_recover_from_a_missing_journal_exits_1_naming_it() {
    let dir = std::env::temp_dir()
        .join(format!("clite-journal-open-{}", std::process::id()))
        .join("missing");
    let out = Command::new(env!("CARGO_BIN_EXE_colocate"))
        .args(["fleet", "--nodes", "4", "--events", "4", "--recover", "--journal"])
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let journal = dir.join("fleet.journal");
    assert!(stderr.contains(&*journal.to_string_lossy()), "{stderr}");
    assert!(!stderr.contains("observation store"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn run_and_fig16_reopen_a_fleet_store_at_its_shard_count() {
    let dir = std::env::temp_dir().join(format!("clite-store-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("obs");
    let fleet = Command::new(env!("CARGO_BIN_EXE_colocate"))
        .args(["fleet", "--nodes", "16", "--events", "8", "--shards", "4", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(fleet.status.code(), Some(0), "{}", String::from_utf8_lossy(&fleet.stderr));
    let run = Command::new(env!("CARGO_BIN_EXE_colocate"))
        .args(["run", "memcached:30", "xapian:30", "streamcluster", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&run.stdout), String::from_utf8_lossy(&run.stderr));
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("store: "), "{stdout}");
    let fig16 = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig16", "--quick", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(fig16.status.code(), Some(0), "{}", String::from_utf8_lossy(&fig16.stderr));
    // Both opened at the 4 shards on disk: no fifth shard file appeared.
    assert!(dir.join("obs.shard3").exists());
    assert!(!dir.join("obs.shard4").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_without_shards_reopens_a_fleet_store_at_its_shard_count() {
    let dir = std::env::temp_dir().join(format!("clite-fleet-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("obs");
    let fleet = |shards: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_colocate"))
            .args(["fleet", "--nodes", "16", "--events", "8"])
            .args(shards)
            .arg("--store")
            .arg(&store)
            .output()
            .unwrap()
    };
    let made = fleet(&["--shards", "4"]);
    assert_eq!(made.status.code(), Some(0), "{}", String::from_utf8_lossy(&made.stderr));
    let reopened = fleet(&[]);
    assert_eq!(reopened.status.code(), Some(0), "{}", String::from_utf8_lossy(&reopened.stderr));
    assert!(String::from_utf8_lossy(&reopened.stdout).contains(", 4 shards,"));
    assert!(dir.join("obs.shard3").exists());
    assert!(!dir.join("obs.shard4").exists());
    std::fs::remove_dir_all(&dir).ok();
}
