#!/usr/bin/env bash
# Prints the non-test line count of every crate: for each `src/*.rs` file,
# the lines before its first top-level `#[cfg(test)]` (all of them when it
# has none).  Run from anywhere inside the repository:
#
#   scripts/nontest_loc.sh            # every crate under crates/ plus the root
#   scripts/nontest_loc.sh engine     # only the named crates
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
    local src=$1
    find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { done = 0 }
        /^#\[cfg\(test\)\]/ { done = 1 }
        !done { n++ }
        END { print n + 0 }'
}

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/; do
        name=$(basename "$dir")
        [ "$name" = vendor ] || crates+=("$name")
    done
fi

total=0
for name in "${crates[@]}"; do
    src=crates/$name/src
    [ -d "$src" ] || { echo "no such crate: $name" >&2; exit 1; }
    n=$(count "$src")
    total=$((total + n))
    printf '%-12s %6d\n' "$name" "$n"
done
if [ "$#" -eq 0 ]; then
    n=$(count src)
    total=$((total + n))
    printf '%-12s %6d\n' "(root)" "$n"
fi
printf '%-12s %6d\n' total "$total"
