#!/usr/bin/env bash
# Documentation lint: fails (exit 1) on
#   1. dead relative markdown links in the tracked docs,
#   2. backticked source-tree file references that no longer exist
#      (CHANGES.md is history, so it keeps naming files later deleted),
#   3. protocol messages declared in src/sharqfec/messages.hpp that
#      PROTOCOL.md does not document,
#   4. drift between docs/PERFORMANCE.md's bench target index and the
#      targets bench/CMakeLists.txt actually builds, in both directions.
# docs/OBSERVABILITY.md drift (metric rows and event-catalog rows, both
# directions) is enforced token-level by sharq_lint's metric-docs and
# journal-cause rules with --reverse-docs; see docs/DETERMINISM.md.
# Run from anywhere; operates on the repo containing this script.
set -u

cd "$(dirname "$0")/.." || exit 2

DOCS=(README.md DESIGN.md PROTOCOL.md EXPERIMENTS.md CHANGES.md ROADMAP.md
      docs/ARCHITECTURE.md docs/OBSERVABILITY.md docs/DETERMINISM.md
      docs/PERFORMANCE.md docs/ROBUSTNESS.md)
fail=0

note_fail() {
  echo "check_docs: $1" >&2
  fail=1
}

# --- 1. relative markdown links --------------------------------------------------
for doc in "${DOCS[@]}"; do
  [ -f "$doc" ] || { note_fail "missing doc: $doc"; continue; }
  dir=$(dirname "$doc")
  # Extract (target) of every [text](target); keep relative file targets.
  grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//' |
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"        # drop in-page anchors
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "check_docs: dead link in $doc: ($target)" >&2
      echo FAIL >> .check_docs_failed
    fi
  done
done

# --- 2. backticked file references ----------------------------------------------
for doc in "${DOCS[@]}"; do
  [ -f "$doc" ] || continue
  # A changelog entry names the files as they were when it was written.
  [ "$doc" = CHANGES.md ] && continue
  grep -oE '`(src|docs|scripts|tests|bench|examples|tools)/[A-Za-z0-9_./-]+`' "$doc" |
  tr -d '`' | sort -u |
  while IFS= read -r ref; do
    # Only judge concrete files (with a recognizable extension) and
    # directories (trailing slash); skip binary/target mentions and
    # brace-glob shorthand like gf256_simd.{hpp,cpp}.
    case "$ref" in
      *.) continue ;;
      */)
        if [ ! -d "$ref" ]; then
          echo "check_docs: stale dir reference in $doc: $ref" >&2
          echo FAIL >> .check_docs_failed
        fi
        continue ;;
      *.cpp|*.hpp|*.c|*.h|*.md|*.sh|*.py|*.txt|*.json|*.yml)
        if [ ! -e "$ref" ]; then
          # `name.*` shorthand for a .hpp/.cpp pair is fine if either exists.
          stem="${ref%.*}"
          if [ ! -e "$stem.hpp" ] && [ ! -e "$stem.cpp" ]; then
            echo "check_docs: stale file reference in $doc: $ref" >&2
            echo FAIL >> .check_docs_failed
          fi
        fi ;;
    esac
  done
done

# --- 3. PROTOCOL.md covers every protocol message -------------------------------
while IFS= read -r msg; do
  grep -q "$msg" PROTOCOL.md ||
    note_fail "PROTOCOL.md does not document $msg (declared in src/sharqfec/messages.hpp)"
done < <(grep -oE 'struct [A-Za-z0-9]+Msg' src/sharqfec/messages.hpp |
         awk '{print $2}' | sort -u)

# --- 4. PERFORMANCE.md bench index <-> bench/CMakeLists.txt ---------------------
# Built targets: sharq_bench(name) registrations plus the google-benchmark
# binaries listed in the foreach(micro ...) line.
built=$( (grep -oE '^sharq_bench\([a-z0-9_]+\)' bench/CMakeLists.txt |
            sed -E 's/^sharq_bench\(([^)]+)\)/\1/';
          grep -oE 'foreach\(micro [a-z0-9_ ]+\)' bench/CMakeLists.txt |
            sed -E 's/^foreach\(micro ([^)]+)\)/\1/' | tr ' ' '\n') | sort -u)
# Documented targets: first backticked token of each index-table row.
indexed=$(grep -hoE '^\| `[a-z0-9_]+` \|' docs/PERFORMANCE.md |
          sed -E 's/^\| `([^`]+)` \|/\1/' | sort -u)
for t in $built; do
  echo "$indexed" | grep -qx "$t" ||
    note_fail "docs/PERFORMANCE.md bench index is missing target $t (built by bench/CMakeLists.txt)"
done
for t in $indexed; do
  echo "$built" | grep -qx "$t" ||
    note_fail "docs/PERFORMANCE.md bench index lists $t but bench/CMakeLists.txt does not build it"
done

# Subshell pipelines above cannot set $fail directly; they drop a marker.
if [ -f .check_docs_failed ]; then
  rm -f .check_docs_failed
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "check_docs: OK"
fi
exit "$fail"
