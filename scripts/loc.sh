#!/usr/bin/env sh
# Prints non-test lines per Rust source file and per crate: the lines
# before each file's `#[cfg(test)] mod tests` block (attributes between
# the two lines, such as `#[allow(...)]`, belong to the block). A
# `#[cfg(test)]` on anything else — an import, a test-only helper — does
# not end the count. A file without a test module counts whole.
#
#   sh scripts/loc.sh                      # crates/appserver/src + crates/storage/src
#   sh scripts/loc.sh crates/dom/src ...   # any source directories
#
# The last line is the total over every directory given. ROADMAP line
# targets are stated in this measure.

set -eu

cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- crates/appserver/src crates/storage/src
fi

total=0
for dir in "$@"; do
    sum=0
    for f in $(find "$dir" -name '*.rs' | sort); do
        n=$(awk '
            /^#\[cfg\(test\)\][[:space:]]*$/ { if (cfg == 0) cfg = NR; next }
            cfg && /^#\[/ { next }
            cfg && /^(pub(\([a-z]+\))? )?mod tests/ { print cfg - 1; found = 1; exit }
            { cfg = 0 }
            END { if (!found) print NR }
        ' "$f")
        printf '%7d  %s\n' "$n" "$f"
        sum=$((sum + n))
    done
    printf '%7d  %s (total)\n' "$sum" "$dir"
    total=$((total + sum))
done
printf '%7d  total\n' "$total"
