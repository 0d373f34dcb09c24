#!/usr/bin/env bash
# Compiler-resolved sweep of the product API: who calls each `pub fn`.
#
#   .github/test_only_sweep.sh [repo-dir]
#
# The script copies the tracked files of <repo-dir> (default: the
# current directory) into a temporary directory and works only there,
# with its own CARGO_TARGET_DIR, so the checkout is never edited. In the
# copy it puts `#[deprecated(note = "sweep:<id>")]` on every `pub fn` in
# `crates/*/src` and runs, with lints capped at warnings,
#
#   1. `cargo check --workspace --lib --bins`: the product build;
#   2. `cargo check --workspace --all-targets`: adds tests and examples;
#   3. `cargo check --all-targets` on `e2ebench/`.
#
# Each `use of deprecated` warning names the definition by its id and
# the caller by its file and line, so calls resolve by the compiler, not
# by name. Warnings on `use` declarations are dropped: an import or a
# re-export is not a call. Every `pub fn` is then printed as one of
#
#   product     called by a library or binary of the workspace
#   e2ebench    called by `e2ebench/`, but by no product code
#   examples    called by `examples/`, but by neither of the above
#   tests-only  called only by tests (`tests/`, `mod tests`, test helpers)
#   uncalled    called by nothing
#
# followed by `file:line`, a `Type::name` label (the type of the
# enclosing `impl`, for methods) and, where they apply, the flags
# `cfg(test)` (the definition is compiled only for tests) and `audit`
# (an `// audit:` comment sits above it). A summary closes the output.
# `cargo check` does not build doc tests, so a function that only a doc
# example calls shows as tests-only or uncalled.
#
# The sweep sees `pub fn`s only: a field or an enum variant that no
# caller sets to anything but its default needs a survey by hand.
#
# This is a survey, not a gate: next to the lexer's `test-only-pub` rule
# (`crates/audit`) it would duplicate a check. The three checks run into
# a fresh target directory; on a 2-vCPU x86-64 VM, with the sources in
# the page cache, the whole sweep took 9 to 12 s wall. Requires bash,
# git, tar, awk and cargo (offline).
set -euo pipefail

repo=$(cd "${1:-.}" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/test-only-sweep.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir -p "$tree"

# Tracked files as they are in the working tree (uncommitted edits
# included; a tracked file deleted in the working tree is skipped).
(cd "$repo" && git ls-files -z | tar --null --ignore-failed-read -T - -cf - 2>/dev/null) |
  tar -xf - -C "$tree"

cd "$tree"
defs="$work/defs.tsv"
uses="$work/use_lines.txt"
: >"$defs"
: >"$uses"

# Mark every `pub fn` under crates/*/src and record it in $defs:
# id, file:line, label, cfg(test) flag, audit flag. The dev-only
# auditor (crates/audit), whose API only its tests call, is not product
# and not surveyed. Blocks are tracked by indentation (the tree is
# rustfmt-formatted): an `impl`, `mod` or `trait` header opening at
# indent k closes at the first `}` at indent k.
find crates/*/src -name '*.rs' -not -path 'crates/audit/*' -print | sort |
  while IFS= read -r f; do
    next_id=$(wc -l <"$defs")
    awk -v file="$f" -v id="$next_id" -v defs="$defs" '
      function indent(s) { match(s, /^[ ]*/); return RLENGTH }
      # The implemented type of an impl header: drop `impl<...>`, keep
      # what follows ` for ` if present, then the last path segment of
      # the first type name.
      function impl_type(s,   depth, i, c, t) {
        sub(/^[ ]*(unsafe )?impl/, "", s)
        if (substr(s, 1, 1) == "<") {
          depth = 0
          for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "<") depth++
            else if (c == ">") { depth--; if (depth == 0) break }
          }
          s = substr(s, i + 1)
        }
        if (match(s, / for /)) s = substr(s, RSTART + 5)
        sub(/^[ &]*(mut )?(dyn )?/, "", s)
        match(s, /^[A-Za-z_][A-Za-z0-9_:]*/)
        t = substr(s, RSTART, RLENGTH)
        sub(/.*::/, "", t)
        return t
      }
      {
        line = $0
        k = indent(line)
        # Close the block opened at this indent.
        if (line ~ /^[ ]*}/ && (k in kind)) { delete kind[k]; delete btype[k]; delete bcfg[k] }

        if (line ~ /^[ ]*#\[cfg\(test\)\]/) pending_cfg = 1
        if (line ~ /^[ ]*\/\/ audit:/) pending_audit = 1

        if (line ~ /^[ ]*(pub(\([a-z]+\))? )?(unsafe )?(impl|mod|trait)[ <]/ && line !~ /;$/) {
          kind[k] = 1
          btype[k] = (line ~ /impl/) ? impl_type(line) : ""
          bcfg[k] = pending_cfg
        }

        if (line ~ /^[ ]*pub (const |async |unsafe )*fn [A-Za-z_]/) {
          name = line
          sub(/^[ ]*pub (const |async |unsafe )*fn /, "", name)
          match(name, /^[A-Za-z0-9_]+/)
          name = substr(name, 1, RLENGTH)
          label = name
          cfg = pending_cfg
          # The innermost enclosing block names the type; any enclosing
          # cfg(test) block makes the definition test-only.
          for (j = k - 4; j >= 0; j -= 4) {
            if (!(j in kind)) continue
            if (!typed && btype[j] != "") label = btype[j] "::" name
            typed = 1
            if (bcfg[j]) cfg = 1
          }
          typed = 0
          printf "%s#[deprecated(note = \"sweep:%d\")]\n", substr(line, 1, k), id
          printf "%d\t%s:%d\t%s\t%s\t%s\n", id, file, FNR, label, cfg ? "cfg(test)" : "", pending_audit ? "audit" : "" >>defs
          id++
        }
        print line
        # Attributes, doc comments and comments carry the pending flags
        # to the next item; anything else clears them.
        if (line !~ /^[ ]*(#\[|\/\/)/) { pending_cfg = 0; pending_audit = 0 }
      }
    ' "$f" >"$f.sweep"
    mv "$f.sweep" "$f"
  done

# Record the lines of every `use` declaration in the marked copy (any
# .rs file outside vendor/), so warnings on them can be dropped.
find . -name '*.rs' -not -path './vendor/*' -print | sed 's|^\./||' | sort |
  while IFS= read -r f; do
    awk -v file="$f" '
      !inuse && /^[ \t]*(pub(\([a-z]+\))? )?use / { inuse = 1 }
      inuse { print file ":" FNR; if (index($0, ";")) inuse = 0 }
    ' "$f" >>"$uses"
  done

export CARGO_TARGET_DIR="$work/target"
export RUSTFLAGS="--cap-lints=warn"
warnings="$work/warnings.txt"
: >"$warnings"
check() {
  local pass=$1
  shift
  echo "sweep: cargo check $* ($pass)" >&2
  if ! cargo check --offline --message-format short "$@" >"$work/$pass.log" 2>&1; then
    tail -n 20 "$work/$pass.log" >&2
    echo "sweep: the $pass check failed" >&2
    exit 1
  fi
  sed -n "s/^\(.*\):\([0-9]*\):[0-9]*: warning: use of deprecated .*: sweep:\([0-9]*\)\$/$pass \1 \2 \3/p" \
    "$work/$pass.log" >>"$warnings"
}
check product --workspace --lib --bins
check all --workspace --all-targets
check e2ebench --all-targets --manifest-path e2ebench/Cargo.toml

summary="$work/summary.txt"
awk -F'\t' -v uses="$uses" -v warnings="$warnings" -v summary="$summary" '
  BEGIN {
    while ((getline u <uses) > 0) use_line[u] = 1
    rank["product"] = 5; rank["e2ebench"] = 4; rank["examples"] = 3; rank["tests-only"] = 2
  }
  { id[NR] = $1; loc[$1] = $2; label[$1] = $3; flags[$1] = $4 (($4 != "" && $5 != "") ? "," : "") $5 }
  END {
    # Paths from the e2ebench check are relative to e2ebench/.
    while ((getline w <warnings) > 0) {
      split(w, p, " ")
      pass = p[1]; file = p[2]; site = file ":" p[3]; d = p[4]
      if (pass == "e2ebench") {
        if (file ~ /^(\.\.)?\//) continue
        site = "e2ebench/" site
      }
      if (site in use_line) continue
      if (pass == "product") { product_site[site] = 1; cls = "product" }
      else if (pass == "e2ebench") cls = "e2ebench"
      else if (site in product_site) continue
      else if (file ~ /^examples\//) cls = "examples"
      else cls = "tests-only"
      if (rank[cls] > rank[best[d]]) best[d] = cls
    }
    for (i = 1; i <= NR; i++) {
      d = id[i]
      cls = (d in best) ? best[d] : "uncalled"
      count[cls]++
      if (flags[d] != "") tagged[cls]++
      printf "%d %-10s  %s  %s%s\n", rank[cls], cls, loc[d], label[d], flags[d] != "" ? "  [" flags[d] "]" : ""
    }
    printf "\nsummary: %d pub fns:", NR >summary
    n = split("product e2ebench examples tests-only uncalled", order, " ")
    for (i = 1; i <= n; i++) {
      c = order[i]
      printf " %s %d%s", c, count[c], tagged[c] ? " (" tagged[c] " flagged)" : "" >summary
    }
    printf "\n" >summary
  }
' "$defs" | sort -s -k1,1nr -k3,3V | cut -d' ' -f2-
cat "$summary"
