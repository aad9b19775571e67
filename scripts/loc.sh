#!/usr/bin/env bash
# Rust line counts per crate, split into non-test and test lines, plus the
# workspace total — the figures CHANGES.md entries carry and the ROADMAP's
# size target is judged by.
#
# Test lines are whole files under a `tests/` directory and, inside `src/`,
# everything from a file's `#[cfg(test)]` line to its end
# (the convention every module here follows). `benchmark/` is a workspace of
# its own and is listed but kept out of the total, as in the ROADMAP.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<non-test> <test>" for the Rust files under the given paths.
count() {
  find "$@" -name '*.rs' -not -path '*/target/*' -print0 2>/dev/null |
    xargs -0 -r awk '
      FNR == 1 { in_test = (FILENAME ~ /(^|\/)tests\//) }
      /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
      { if (in_test) test++; else code++ }
      END { printf "%d %d\n", code, test }'
}

printf '%-26s %9s %9s %9s\n' crate non-test test total
total_code=0
total_test=0
row() {
  local name=$1 code test
  shift
  read -r code test < <(count "$@")
  printf '%-26s %9d %9d %9d\n' "$name" "${code:-0}" "${test:-0}" $(( ${code:-0} + ${test:-0} ))
  if [[ $name != benchmark* ]]; then
    total_code=$(( total_code + ${code:-0} ))
    total_test=$(( total_test + ${test:-0} ))
  fi
}

for dir in crates/*/ crates/shims/*/; do
  [[ $dir == crates/shims/ ]] && continue
  row "${dir%/}" "$dir"
done
row "root (src tests examples)" src tests examples
row "benchmark (not in total)" benchmark
printf '%-26s %9d %9d %9d\n' workspace "$total_code" "$total_test" $(( total_code + total_test ))
