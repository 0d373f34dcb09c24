#!/usr/bin/env bash
# Shows that clippy catches what the determinism rules it enforces
# forbid (README "Static guarantees & determinism invariants").
#
#   .github/clippy_fixtures.sh
#
# Run from the repository root. The package crates/audit/fixtures/lint
# includes each rule's known-bad and known-clean fixture from
# crates/audit/fixtures/{bad,clean}/ behind a cargo feature of its own.
# The script lints each fixture alone, the way CI's clippy step lints
# the workspace (`--all-targets -- -D warnings`, the root clippy.toml).
# A bad fixture must fail, and the lints it trips must be exactly the
# ones listed for its rule below; a clean twin must pass. The package
# keeps a copy of the workspace's clippy lints, so that copy must match.
# Requires bash, sed, grep and cargo (offline).
set -euo pipefail

manifest=crates/audit/fixtures/lint/Cargo.toml
table() { sed -n "/^\[$1\]\$/,/^\[/{/^[a-z_]* = /p}" "$2"; }
if ! diff <(table 'workspace\.lints\.clippy' Cargo.toml) <(table 'lints\.clippy' "$manifest"); then
  echo "clippy_fixtures: [lints.clippy] of $manifest differs from [workspace.lints.clippy]" >&2
  exit 1
fi

lint() {
  cargo clippy --offline --quiet -p voodb-lint-fixtures --all-targets --features "$1" "${@:2}" \
    -- -D warnings </dev/null
}

failed=0
while read -r rule expected; do
  if log=$(lint "bad_$rule" --message-format json 2>/dev/null); then
    echo "bad/$rule.rs: passed clippy, expected $expected" >&2
    failed=1
  else
    tripped=$(grep -o '"code":{"code":"[^"]*"' <<<"$log" | cut -d'"' -f6 | sort -u | xargs)
    if [[ "$tripped" == "$expected" ]]; then
      echo "bad/$rule.rs: fails with $tripped"
    else
      echo "bad/$rule.rs: fails with '$tripped', expected '$expected'" >&2
      failed=1
    fi
  fi
  if lint "clean_$rule"; then
    echo "clean/$rule.rs: passes"
  else
    echo "clean/$rule.rs: failed clippy" >&2
    failed=1
  fi
done <<'EOF'
hot_panic clippy::expect_used clippy::panic clippy::unreachable clippy::unwrap_used
justify_allow clippy::allow_attributes_without_reason
justify_unsafe clippy::undocumented_unsafe_blocks
wall_clock clippy::disallowed_methods
EOF
exit "$failed"
