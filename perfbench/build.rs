//! Stamps the build: compiler version, cargo profile and, when the
//! source tree is a git checkout, its commit.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    // Only ask git about the repository this package sits in, never a
    // parent directory's: a plain source export has no commit.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_dir = root.join(".git");
    let commit = if git_dir.exists() {
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git_dir.join("index").display());
        Command::new("git")
            .arg("--git-dir")
            .arg(&git_dir)
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
    } else {
        "none".to_owned()
    };
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
