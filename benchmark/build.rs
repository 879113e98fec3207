//! Records the compiler and profile the benchmark was built with, for
//! the host fingerprint of every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "?".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=BENCH_PROFILE={} opt-level={} debug={}",
        var("PROFILE"),
        var("OPT_LEVEL"),
        var("DEBUG")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
