#!/usr/bin/env bash
# Forbid unwrap()/expect( in the non-test code of the library crates
# that sit on the search hot path, and also unreachable!(/panic!( in the
# search engine itself (crates/cublastp). Device faults must surface as
# typed errors (SearchError / DeviceError), not panics; see DESIGN.md §3.3.
# (The obs crate is exempt: obs/json.rs defines a method named `expect`
# as part of its pull parser, which this textual check cannot tell apart.)
#
# Test modules live at the end of each file behind `#[cfg(test)]`, so the
# check strips everything from that marker onward before grepping. Doc
# comments (`///`, `//!`) are exempt: doctest examples may use expect().
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for file in crates/cublastp/src/*.rs crates/gpu-sim/src/*.rs \
            crates/blast-cpu/src/*.rs crates/blast-core/src/*.rs \
            crates/bio-seq/src/*.rs crates/cublastp-serve/src/*.rs \
            crates/cublastp-db/src/*.rs crates/cublastp-cli/src/*.rs \
            crates/bench/src/runners.rs; do
    pattern='unwrap()\|expect('
    case "$file" in
        crates/cublastp/src/*) pattern="$pattern"'\|unreachable!(\|panic!(' ;;
    esac
    hits=$(sed '/#\[cfg(test)\]/,$d' "$file" \
        | grep -n "$pattern" \
        | grep -vE '^[0-9]+:[[:space:]]*//[/!]' || true)
    if [ -n "$hits" ]; then
        echo "panic-prone call in non-test code of $file:" >&2
        echo "$hits" >&2
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "error: library hot paths must return typed errors, not panic" >&2
    echo "       (wrap genuinely-infallible cases in a test module or" >&2
    echo "       restructure; see DESIGN.md §3.3)" >&2
fi
exit "$status"
