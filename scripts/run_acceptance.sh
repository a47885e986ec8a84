#!/bin/sh
# Run the acceptance suite, printing one PASS line per criterion.
# Works from a plain checkout: src/ goes first on PYTHONPATH.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python3 -m pytest tests/test_acceptance.py -q -rA -s "$@"
