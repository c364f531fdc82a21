//! Records the build settings in effect so every run header can print
//! them: the rustc flags cargo passed (including `.cargo/config.toml`'s
//! `target-cpu`) and the profile.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
