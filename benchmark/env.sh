# Sourced by run.sh, repeat.sh and spread.sh: where things are, and the
# release build of this package (CARGO_TARGET_DIR defaults to
# target/benchmark under the repository root, which is git-ignored).
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/benchmark}"
# A relative path is the caller's, not the repository root's.
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
# Build from the root, so its .cargo/config.toml (offline) applies.
(cd "$root" && cargo build --release --quiet --manifest-path benchmark/Cargo.toml)
bin="$CARGO_TARGET_DIR/release/cmap-benchmark"
