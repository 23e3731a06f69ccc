#!/bin/sh
# Public-surface gate: every value a lib/*/*.mli exports must have a
# caller.  A caller is a qualified reference `Module.name` in some .ml
# under lib, bin, bench or examples other than the module's own .ml
# (comments do not count; `module X = ...Module` aliases do).  An
# export with no caller fails the gate unless test/surface_allow.txt
# lists it, one `Module.name — reason` per line ('#' starts a comment).
#
#   sh test/surface_gate.sh        # run from the root of a checkout
#
# Prints each uncalled export and exits 1 if there is any.  It counts
# only qualified references, so an `open` of a library module would
# hide a caller (no code in lib, bin, bench or examples does that), and
# a record field qualified by a module name counts as a reference.
set -eu
export LC_ALL=C
allow=test/surface_allow.txt
if [ ! -d lib ] || [ ! -f "$allow" ]; then
  echo "surface: run from the root of a checkout (lib/, $allow)" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find lib bin bench examples -name '*.ml' | sort | xargs awk '
  function capital(s) { return toupper(substr(s, 1, 1)) substr(s, 2) }
  FNR == 1 {
    n = split(FILENAME, parts, "/")
    own = capital(substr(parts[n], 1, length(parts[n]) - 3))
    depth = 0
    split("", alias)
  }
  {
    # Blank out comments, keeping string literals intact.
    line = $0; out = ""; instr = 0
    for (i = 1; i <= length(line); i++) {
      c = substr(line, i, 1); c2 = substr(line, i, 2)
      if (depth == 0 && c == "\"" && substr(line, i - 1, 1) != "\\") instr = !instr
      if (!instr && c2 == "(*") { depth++; i++; continue }
      if (!instr && depth > 0 && c2 == "*)") { depth--; i++; continue }
      if (depth == 0) out = out c
    }
    if (match(out, /module +[A-Z][A-Za-z0-9_]* *= *[A-Z][A-Za-z0-9_.]*/)) {
      decl = substr(out, RSTART, RLENGTH)
      sub(/^module +/, "", decl)
      name = decl; sub(/ *=.*/, "", name)
      target = decl; sub(/.*[=.] */, "", target)
      alias[name] = target
    }
    while (match(out, /[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_'"'"']*/)) {
      ref = substr(out, RSTART, RLENGTH)
      out = substr(out, RSTART + RLENGTH)
      mod = ref; sub(/\..*/, "", mod)
      val = ref; sub(/^[^.]*\./, "", val)
      if (mod in alias) mod = alias[mod]
      if (mod != own) print mod "." val
    }
  }' | sort -u > "$tmp/callers"

for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  sed -n "s/^val \([a-z_][A-Za-z0-9_']*\).*/$mod.\1/p" "$mli"
done | sort -u > "$tmp/exports"

sed -e 's/#.*//' -e 's/[[:space:]].*//' "$allow" | grep . | sort -u > "$tmp/allowed" || true

status=0
comm -23 "$tmp/exports" "$tmp/callers" | comm -23 - "$tmp/allowed" > "$tmp/uncalled"
comm -13 "$tmp/exports" "$tmp/allowed" > "$tmp/stale"
if [ -s "$tmp/uncalled" ]; then
  sed 's/^/surface: exported but never called outside its module: /' "$tmp/uncalled" >&2
  status=1
fi
if [ -s "$tmp/stale" ]; then
  sed "s|^|surface: listed in $allow but not exported: |" "$tmp/stale" >&2
  status=1
fi
[ "$status" -eq 0 ] &&
  echo "surface: $(wc -l < "$tmp/exports" | tr -d ' ') exports, each called or allowed"
exit "$status"
