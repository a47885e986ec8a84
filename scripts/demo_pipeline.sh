#!/bin/sh
# End-to-end walkthrough on the repo fixtures: build a pair corpus, train a
# vocabulary, score the ground-truth replay and the rule backend over the
# benchmark suites, and render the report tables.
set -e
cd "$(dirname "$0")/.."

CONFIG=${XISA_CONFIG:-configs/clang-lite.cfg}
OUT=${1:-/tmp/xisa-demo}
mkdir -p "$OUT"

echo "== 1. paired corpus from the fixture C files"
python3 -m xisa.cli dataset build \
    --src tests/fixtures/c_corpus --target armv5 \
    --sample 10 --seed 7 --config "$CONFIG" --jobs 4 \
    --out "$OUT/pairs.ndjson"
python3 -m xisa.cli dataset inspect "$OUT/pairs.ndjson"

echo "== 2. extended vocabulary from the corpus"
python3 -m xisa.cli tokenizer build \
    --corpus-store "$OUT/pairs.ndjson" --top-k 512 --out "$OUT/vocab.ndjson"
python3 -m xisa.cli tokenizer stats \
    --extended "$OUT/vocab.ndjson" --corpus-store "$OUT/pairs.ndjson"

echo "== 3. harness self-test: ground-truth replay over the mini-suite"
python3 -m xisa.cli eval run \
    --suite tests/fixtures/mini_suite --backend replay --target armv5 \
    --config "$CONFIG" --jobs 4 --out "$OUT/replay.ndjson"

echo "== 4. rule backend over the rule-subset suite (no model required)"
python3 -m xisa.cli eval run \
    --suite tests/fixtures/rule_suite --backend rule --target armv5 \
    --config "$CONFIG" --jobs 4 --out "$OUT/rule.ndjson"

echo "== 5. report"
python3 -m xisa.cli report "$OUT/replay.ndjson"
echo
python3 -m xisa.cli report "$OUT/rule.ndjson"

echo
echo "== 6. segmentation of one fixture"
python3 -m xisa.cli segment --in tests/fixtures/arm_corpus/swap_sort.s \
    --isa armv5 --budget 1024 --vocab "$OUT/vocab.ndjson"

echo
echo "demo outputs in $OUT"
