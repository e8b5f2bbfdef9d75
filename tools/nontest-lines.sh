#!/usr/bin/env bash
# The CHANGES.md line-count rule, done mechanically: the lines of every
# src/**/*.rs and crates/*/src/**/*.rs up to (not including) the file's
# first `#[cfg(test)]`. Prints "<total lines> <file count>".
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find src crates/*/src -name '*.rs' -print0 |
  xargs -0 awk 'FNR == 1 { test = 0; files++ } /#\[cfg\(test\)\]/ { test = 1 } !test { lines++ } END { print lines, files }'
