#!/bin/sh
# Run the acceptance suite, printing one PASS line per criterion.
# Works from a plain checkout: pyproject.toml puts src/ on the import path.
set -e
cd "$(dirname "$0")/.."
exec python3 -m pytest tests/test_acceptance.py -q -rA -s "$@"
