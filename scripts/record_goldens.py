#!/usr/bin/env python3
"""Regenerate the golden emission corpus under tests/golden/<target>/, the
sample histograms in tests/golden/histograms.json, the emission digests of
the generated corpus in tests/golden/emission_digests.json, the kernel-IR
dump digests in tests/golden/kir_dump_digests.json and the compile outcome
(error text, or the dump digest) of the error corpus in
tests/golden/error_texts.json.

Run after any deliberate emission-grammar or sampling change, then review
the diff.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from golden_cases import (
    GOLDEN_CASES,
    HISTOGRAM_SEEDS,
    emission_digests,
    error_texts,
    histogram,
    histogram_corpus,
    kir_dump_digests,
)

from qasm2cudaq import EMISSION_TARGETS, compile_source, emit, golden_check


def main() -> int:
    for name, source in GOLDEN_CASES.items():
        kernel = compile_source(source)
        for target in EMISSION_TARGETS:
            emitted = emit(kernel, target)
            path = ROOT / "tests" / "golden" / target / f"{name}.txt"
            ok, detail = golden_check(emitted, str(path), record=True)
            print(f"{target}/{name}: {detail}")
    histograms = {
        name: {str(seed): histogram(source, seed) for seed in HISTOGRAM_SEEDS}
        for name, source in histogram_corpus().items()
    }
    path = ROOT / "tests" / "golden" / "histograms.json"
    path.write_text(json.dumps(histograms, indent=1) + "\n", encoding="utf-8")
    print(f"histograms: {len(histograms)} kernels x {len(HISTOGRAM_SEEDS)} seeds")
    digests = emission_digests()
    path = ROOT / "tests" / "golden" / "emission_digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"emission digests: {len(digests)} programs x {len(EMISSION_TARGETS)} targets")
    dumps = kir_dump_digests()
    path = ROOT / "tests" / "golden" / "kir_dump_digests.json"
    path.write_text(json.dumps(dumps, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"kir dump digests: {len(dumps)} programs")
    texts = error_texts()
    path = ROOT / "tests" / "golden" / "error_texts.json"
    path.write_text(json.dumps(texts, indent=1, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"error texts: {len(texts)} programs x 2 caps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
