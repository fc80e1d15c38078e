#!/usr/bin/env bash
# Docs hygiene: keeps docs/SCENARIOS.md from rotting against the parser.
#
#  1. Every `faults.*` key in the shared key table (src/scenario/spec.cpp,
#     between the BEGIN/END FAULT KEY TABLE markers — the same table the
#     parser dispatches from and `mpiv_run --list` prints) must appear in
#     docs/SCENARIOS.md as `key`.
#  2. Every other scenario/cost key the parser compares against
#     (key == "..." in spec.cpp) must appear in docs/SCENARIOS.md too.
#  3. Every relative markdown link in README.md and docs/*.md must point at
#     a file that exists.
#  4. No stale commands in README.md, docs/*.md and the verify skill: every
#     `./build/<name>` and every `bench_<name>` in backticks must name a
#     source under bench/, tools/ or examples/, and every
#     scenarios/<file>.scn must exist.
#
# No build needed: CI's docs-check job runs this straight off the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."

SPEC=src/scenario/spec.cpp
DOC=docs/SCENARIOS.md
fail=0

if [[ ! -f "$DOC" ]]; then
  echo "error: $DOC missing" >&2
  exit 1
fi

# --- 1. faults.* keys from the shared table --------------------------------
table=$(sed -n '/BEGIN FAULT KEY TABLE/,/END FAULT KEY TABLE/p' "$SPEC")
if [[ -z "$table" ]]; then
  echo "error: FAULT KEY TABLE markers not found in $SPEC" >&2
  exit 1
fi
fault_keys=$(echo "$table" | grep -oE '"faults\.[a-z_]+"' | tr -d '"' | sort -u)
if [[ -z "$fault_keys" ]]; then
  echo "error: no faults.* keys found in the table region of $SPEC" >&2
  exit 1
fi
for key in $fault_keys; do
  if ! grep -qF "\`$key\`" "$DOC"; then
    echo "MISSING: $key (fault key table) not documented in $DOC" >&2
    fail=1
  fi
done

# --- 2. scalar scenario + cost keys the parser dispatches on ---------------
scalar_keys=$(grep -oE 'key == "[a-z_0-9.]+"' "$SPEC" | sed 's/key == //; s/"//g' | sort -u)
for key in $scalar_keys; do
  case "$key" in
    faults.*) continue ;;  # covered above via the table
  esac
  if ! grep -qF "\`$key\`" "$DOC"; then
    echo "MISSING: scenario key $key not documented in $DOC" >&2
    fail=1
  fi
done

# --- 3. relative markdown links resolve ------------------------------------
for md in README.md docs/*.md; do
  dir=$(dirname "$md")
  # Extract (target) parts of [text](target) links, one per line.
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      http://*|https://*|\#*) continue ;;
    esac
    path=${target%%#*}  # drop an anchor suffix
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      echo "BROKEN LINK: $md -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed 's/^](//; s/)$//')
done

# --- 4. binaries and scenario files the docs name exist ---------------------
REF_DOCS=(README.md docs/*.md)
[[ -f .claude/skills/verify/SKILL.md ]] && REF_DOCS+=(.claude/skills/verify/SKILL.md)
refs=0
for md in "${REF_DOCS[@]}"; do
  while IFS= read -r bin; do
    [[ -z "$bin" ]] && continue
    refs=$((refs + 1))
    if [[ ! -f bench/$bin.cpp && ! -f tools/$bin.cpp && ! -f examples/$bin.cpp ]]; then
      echo "STALE: $md names $bin (no bench/, tools/ or examples/ source)" >&2
      fail=1
    fi
  done < <(grep -oE '\./build/[A-Za-z0-9_]+|`bench_[A-Za-z0-9_]+`' "$md" |
           sed 's|^\./build/||; s/`//g' | sort -u)
  while IFS= read -r scn; do
    [[ -z "$scn" ]] && continue
    refs=$((refs + 1))
    if [[ ! -f "$scn" ]]; then
      echo "STALE: $md names $scn (no such scenario file)" >&2
      fail=1
    fi
  done < <(grep -oE 'scenarios/[A-Za-z0-9_]+\.scn' "$md" | sort -u)
done

if [[ $fail -ne 0 ]]; then
  echo "docs check FAILED" >&2
  exit 1
fi
echo "docs check OK ($(echo "$fault_keys" | wc -l) fault keys, $(echo "$scalar_keys" | wc -w) scalar keys, links resolve, $refs command/scenario references exist)"
