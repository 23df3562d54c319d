#!/bin/sh
# check_convert_roundtrip.sh — the CI "Convert roundtrip" gate.
#
# For every vendored external-model fixture (tests/fixtures/external/):
#   1. `flint-forest convert` ingests it into the native v2 format;
#   2. the converted model reloads and predicts the fixture's input CSV;
#   3. class predictions must equal the committed expectations EXACTLY;
#   4. score predictions must match the committed expectations within the
#      documented tolerance (|diff| <= 1e-6 absolute — the expectations
#      are float32 round-trip prints, so this is ~2 ULP at these scales;
#      see docs/MODEL_FORMATS.md "Numerical contract");
#   5. converting the v2 output again with --format native must reproduce
#      it byte for byte, so any read/print asymmetry in the native parser
#      fails here.
#
# Usage: tools/check_convert_roundtrip.sh <flint-forest-binary> [source-root]
set -eu

bin=${1:?usage: check_convert_roundtrip.sh <flint-forest-binary> [source-root]}
root=${2:-$(dirname "$0")/..}
fixtures="$root/tests/fixtures/external"
work=$(mktemp -d "${TMPDIR:-/tmp}/flint_convert_XXXXXX")
trap 'rm -rf "$work"' EXIT

status=0

check_scores() {
    # $1 got, $2 want: numeric compare of comma-separated rows.
    awk -F, 'NR==FNR { for (i=1;i<=NF;i++) want[FNR","i]=$i; rows=FNR; next }
        {
          for (i=1;i<=NF;i++) {
            d = $i - want[FNR","i]; if (d < 0) d = -d
            if (d > 1e-6) {
              printf "  score mismatch row %d col %d: got %s want %s\n", \
                     FNR, i, $i, want[FNR","i]
              bad = 1
            }
          }
        }
        END { if (FNR != rows) { print "  row count mismatch"; bad = 1 }
              exit bad }' "$2" "$1"
}

for model in xgb_binary.json xgb_missing.json lgbm_regression.txt \
             lgbm_categorical.txt sklearn_multiclass.json; do
    stem=${model%%.*}
    echo "== $model"
    "$bin" convert --in "$fixtures/$model" --out "$work/$stem.v2"
    "$bin" convert --in "$work/$stem.v2" --out "$work/$stem.native.v2" \
        --format native > /dev/null
    if ! cmp "$work/$stem.v2" "$work/$stem.native.v2"; then
        echo "FAIL: $model native-to-native convert is not byte-identical" >&2
        status=1
    fi

    # Static verification: both the source fixture and the converted
    # artifact must pass every invariant check (docs/VERIFICATION.md).
    for artifact in "$fixtures/$model" "$work/$stem.v2"; do
        if ! "$bin" verify "$artifact" > "$work/$stem.verify"; then
            echo "FAIL: flint-forest verify rejects $artifact" >&2
            cat "$work/$stem.verify" >&2
            status=1
        fi
    done

    # Score roundtrip (every fixture commits expected scores).
    "$bin" predict --model "$work/$stem.v2" \
        --data "$fixtures/${stem}_input.csv" --output scores \
        --engine layout:auto \
        | sed '$d' > "$work/$stem.scores"       # drop the summary line
    if ! check_scores "$work/$stem.scores" \
         "$fixtures/${stem}_expected_scores.txt"; then
        echo "FAIL: $model scores diverge from committed expectations" >&2
        status=1
    fi

    # Class roundtrip (classifier fixtures; exact agreement required).
    if [ -f "$fixtures/${stem}_expected_classes.txt" ]; then
        "$bin" predict --model "$work/$stem.v2" \
            --data "$fixtures/${stem}_input.csv" --labels yes \
            --engine layout:c16 \
            | sed '$d' > "$work/$stem.classes"
        if ! diff -u "$fixtures/${stem}_expected_classes.txt" \
             "$work/$stem.classes" > /dev/null; then
            echo "FAIL: $model classes diverge from committed expectations" >&2
            diff -u "$fixtures/${stem}_expected_classes.txt" \
                 "$work/$stem.classes" | head -10 >&2 || true
            status=1
        fi
        # The input CSV's label column IS the expected class: the CLI's own
        # accuracy readout must therefore be 1.
        acc=$("$bin" predict --model "$work/$stem.v2" \
              --data "$fixtures/${stem}_input.csv" --engine encoded \
              | sed -n 's/^accuracy \([0-9.]*\).*/\1/p')
        if [ "$acc" != "1" ]; then
            echo "FAIL: $model accuracy $acc != 1 on its own expectations" >&2
            status=1
        fi

        # Lossy-quantization accuracy gate: quant:affine forces the
        # calibrated affine map on every feature, so it may legitimately
        # flip samples that sit between a threshold and its quantized
        # image — but the flip rate is deterministic per model and must
        # stay small.  Today each classifier fixture flips at most 1 of
        # its 24 rows (accuracy 0.9583); the 0.90 floor trips if the
        # affine calibration (scale fitting, key-0 reserve, NaN clamp)
        # regresses broadly without failing the bit-exact engines above.
        qacc=$("$bin" predict --model "$work/$stem.v2" \
              --data "$fixtures/${stem}_input.csv" --engine quant:affine \
              | sed -n 's/^accuracy \([0-9.]*\).*/\1/p')
        if ! awk "BEGIN{exit !($qacc >= 0.90)}"; then
            echo "FAIL: $model quant:affine accuracy $qacc < 0.90" >&2
            status=1
        fi
    fi
done

if [ "$status" -eq 0 ]; then
    echo "convert roundtrip: all fixtures reproduce their committed predictions"
fi
exit $status
