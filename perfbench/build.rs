//! Records the compiler version and the git revision the benchmark was
//! built from (`unknown` outside a git checkout).

use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let o = cmd.output().ok().filter(|o| o.status.success())?;
    let s = String::from_utf8(o.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.as_deref().unwrap_or("unknown")
    );
    println!("cargo:rerun-if-env-changed=RUSTC");

    let git = |args: &[&str]| output(Command::new("git").args(args));
    let revision = git(&["rev-parse", "HEAD"]);
    println!(
        "cargo:rustc-env=PERFBENCH_GIT={}",
        revision.as_deref().unwrap_or("unknown")
    );
    // Rebuild when HEAD moves: watch HEAD and the refs it may point at.
    if let Some(dir) = git(&["rev-parse", "--absolute-git-dir"]) {
        for f in ["HEAD", "refs", "packed-refs"] {
            let path = std::path::Path::new(&dir).join(f);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}
