#!/usr/bin/env bash
# Fails when C++ code under src/, tools/ or bench/ reads an EMBA_* variable
# with getenv anywhere but util/env.cc. Every knob goes through the one
# reader (src/util/env.h), so /buildz reports every knob the code reads.
#
# Usage: tools/lint_env_reads.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."
if grep -rn --include='*.cc' --include='*.h' 'getenv("EMBA_' src tools bench |
    grep -v '^src/util/env\.cc:'; then
  echo "error: read EMBA_* knobs through src/util/env.h, not getenv" >&2
  exit 1
fi
echo "env-read lint: ok"
