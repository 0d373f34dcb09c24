//! Golden test of the paper's numbers: `voodb repro --reps 2` must write
//! every artifact file, and print its report, byte for byte as committed.
//!
//! The 32 files (~130 KB) are too large to commit, so
//! `tests/repro_golden/fnv64.txt` holds one FNV-1a hash per file of the
//! output directory, sorted by name, then one for stdout. The binary runs
//! in a fresh directory with the relative `--out out`, so its `wrote
//! out/…` lines do not depend on where the test runs. When a change is
//! meant to move a reproduced number, the failing test leaves the output
//! directory under the system temporary directory and prints the new hash
//! list: review the files, copy the list over the golden, and say in
//! CHANGES.md which numbers moved and why.

use std::path::{Path, PathBuf};
use std::process::Command;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One `<hash>  <name>` line per file of `dir`, sorted by name.
fn hash_lines(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
        .iter()
        .map(|name| {
            let path = dir.join(name);
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            format!("{:016x}  {name}\n", fnv1a(&bytes))
        })
        .collect()
}

#[test]
fn repro_reps_2_writes_its_golden_files_and_stdout() {
    let work: PathBuf =
        std::env::temp_dir().join(format!("voodb-repro-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).expect("work directory");
    let out = Command::new(env!("CARGO_BIN_EXE_voodb"))
        .args(["repro", "--reps", "2", "--threads", "2", "--out", "out"])
        .current_dir(&work)
        .output()
        .expect("voodb runs");
    assert!(
        out.status.success(),
        "voodb repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let hashes = hash_lines(&work.join("out")) + &format!("{:016x}  stdout\n", fnv1a(&out.stdout));
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repro_golden/fnv64.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    if hashes != golden {
        std::fs::write(work.join("stdout.txt"), &out.stdout).ok();
    }
    assert!(
        hashes == golden,
        "`voodb repro --reps 2` differs from the golden (its output is in {}); its hashes:\n{hashes}",
        work.display()
    );
    std::fs::remove_dir_all(&work).ok();
}
