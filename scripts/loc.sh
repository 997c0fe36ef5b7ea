#!/usr/bin/env sh
# Prints non-test lines per Rust source file and per crate: the lines
# before each file's `#[cfg(test)] mod tests` block (attributes between
# the two lines, such as `#[allow(...)]`, belong to the block). A
# `#[cfg(test)]` on anything else — an import, a test-only helper — does
# not end the count. A file without a test module counts whole.
#
# A file whose parent module declares it under `#[cfg(test)]` or
# `#[cfg(any(test, ...))]` (a test oracle, a test-data generator) is test
# code as a whole: it is not counted, nor is any file below its module.
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

# The files (`name.rs` and `name/mod.rs`) of every module that a file
# under the given directories declares under a test-only `cfg`.
test_only_modules() {
    for f in $(find "$@" -name '*.rs'); do
        case $f in
            */lib.rs | */main.rs | */mod.rs) base=${f%/*} ;;
            *) base=${f%.rs} ;;
        esac
        awk -v base="$base" '
            /^#\[cfg\((test|any\(test,.*)\)\][[:space:]]*$/ { gated = 1; next }
            gated && /^#\[/ { next }
            gated && /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
                name = $0
                sub(/^(pub(\([a-z]+\))? )?mod /, "", name)
                sub(/;.*/, "", name)
                print base "/" name ".rs"
                print base "/" name "/"
            }
            { gated = 0 }
        ' "$f"
    done
}

skip=$(test_only_modules "$@")

total=0
for dir in "$@"; do
    sum=0
    for f in $(find "$dir" -name '*.rs' | sort); do
        gated=0
        for m in $skip; do
            case $f in
                "$m" | "$m"*) gated=1 ;;
            esac
        done
        [ "$gated" -eq 0 ] || continue
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
