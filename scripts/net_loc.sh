#!/usr/bin/env bash
# Non-test library lines of code — the rule every CHANGES.md entry reports
# its net by: lines of `crates/*/src` + `src/`, each file counted up to its
# first `#[cfg(test)]`, per crate and in total.
#
#   scripts/net_loc.sh            # the working tree
#   scripts/net_loc.sh <rev>      # ... and its net against <rev> (e.g. HEAD~1)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Prints "<crate dir> <lines>" for every crate of a revision ("" = the
# working tree).
tally() {
  local rev="$1" f n
  if [ -n "$rev" ]; then
    git ls-tree -r --name-only "$rev" -- crates src
  else
    find crates src -name '*.rs'
  fi | grep -E '^(crates/[^/]+/src|src)/.*\.rs$' | while read -r f; do
    n=$(if [ -n "$rev" ]; then git show "$rev:$f"; else cat "$f"; fi |
      awk '/#\[cfg\(test\)\]/ { tests = 1 } !tests { n++ } END { print n + 0 }')
    echo "$(echo "$f" | sed -E 's#^(crates/[^/]+)/src/.*#\1#; s#^src/.*#src#') $n"
  done | awk '{ s[$1] += $2 } END { for (d in s) print d, s[d] }'
}

base="${1:-}"
{
  tally "" | sed 's/^/now /'
  [ -z "$base" ] || tally "$base" | sed 's/^/base /'
} | awk '{ lines[$1, $2] = $3; dirs[$2] } END { for (d in dirs) print d, lines["base", d] + 0, lines["now", d] + 0 }' |
  sort | awk -v base="$base" '
  function row(d, was, now) {
    if (base == "") printf "%-16s %6d\n", d, now
    else printf "%-16s %6d -> %6d  %+5d\n", d, was, now, now - was
  }
  { row($1, $2, $3); was += $2; now += $3 }
  END { row("total", was, now) }'
