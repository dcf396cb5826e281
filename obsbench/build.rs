//! Stamps the host-independent half of the result fingerprint into the
//! binary: the compiler version, the git commit when the sources are a
//! git checkout, and a digest of every source file the benchmark builds
//! against (which identifies the code even where there is no git).

use std::path::{Path, PathBuf};
use std::process::Command;

fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".into(), |s| s.trim().to_string());

    // FNV-1a over the sorted relative paths and contents.
    let mut paths = Vec::new();
    for dir in ["crates", "stubs"] {
        files(&root.join(dir), &mut paths);
        println!("cargo:rerun-if-changed=../{dir}");
    }
    paths.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in &paths {
        let rel = p
            .strip_prefix(&root)
            .unwrap_or(p)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(p).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=OBSBENCH_RUSTC={version}");
    println!("cargo:rustc-env=OBSBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=OBSBENCH_SOURCES={h:016x}");
    println!("cargo:rerun-if-changed=build.rs");
}
