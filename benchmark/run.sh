#!/usr/bin/env bash
# Builds the harness (release, offline) and runs it with the given
# arguments from the caller's directory; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Default to the root workspace's target/ (as .cargo/config.toml does for a
# plain `cargo` inside this directory); a relative CARGO_TARGET_DIR is
# relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/../target}"
[[ "$target" == /* ]] || target="$PWD/$target"
(cd "$here" && CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet)
exec "$target/release/mapa-benchmark" "$@"
