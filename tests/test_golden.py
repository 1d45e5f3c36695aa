"""Golden output digests: every subcommand's CSV/JSON bytes at a small config.

The determinism tests compare runs within one process; these digests pin
the bytes across commits, so a refactor that shifts a single value fails
here.  SIMD transcendentals may round differently across numpy builds, so
the digests are keyed by numpy version and the test skips on a version
without a record.  To record a new version, run

    PYTHONPATH=src python tests/test_golden.py

and add the printed table under that version.
"""

import hashlib
import warnings

import numpy as np
import pytest

from sievesim import cli, harness

GOLDEN = {
    "2.4.6": {
        "limit-sample":
            "1b716240fc4119262fe1aa008927298f0fffb13e53828ae1814b9b595b828466",
        "occupancy":
            "85001c1c46877b7ea005a508cf4e864b148a81066464c37fc0825db22f34098a",
        "renewal":
            "193fb30db31d44be7c05bca4f64e42449e629ce4aea6e1052e988acb6caa0119",
        "verify-bounds":
            "433085c9244af24d869e6c8fffd26c9835644ea22821bbea8129974a80d342fe",
        "theorem-main":
            "dad83f325f25806546f9e6c5e1424adb4b70076893315726b625b8ad0ec691d9",
        "theorem-2":
            "265e6790279a389e4cd2fe9ec6027e8e315cc98d933af2aa4b2b44ddde88131b",
        "theorem-3":
            "4b2db9b5320ade961a3101d5b0c710a0d47e44e4af1beab7d7ea30df8282c5df",
        "fixed-level":
            "d9ea07bd59c7da303b39031772c90345cd0967a2656c830102b4465fce6c5b13",
        "appendix":
            "4fbe57dd25e1031c837d6ad94515a4253435d62ab231e94fdef0823aff4bcadb",
    },
}

GOLDEN_SEED = 7

# runners that fan replicas out over chunks: their bytes must not depend on
# the worker count, so they are also checked against the same digest at 2
CHUNKED = ("occupancy", "theorem-main", "theorem-2", "theorem-3")


def golden_config(workers: int = 1) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        log_n_list=(25, 50), j_list=(2, 2), u_list=(0.6, 1.0), replicas=128,
        seed=GOLDEN_SEED, workers=workers)


def run_report(command: str, workers: int = 1) -> harness.Report:
    # a warning that a runner raises here fails the test instead of hiding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli._RUNNERS[command](golden_config(workers))


def output_digest(report: harness.Report, out_dir) -> str:
    """sha256 over the emitted files, in the order emit returns them."""
    h = hashlib.sha256()
    for path in harness.emit(report, "both", str(out_dir)):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize(
    "command,workers",
    [pytest.param(c, 1, id=c) for c in cli._RUNNERS]
    + [pytest.param(c, 2, id=f"{c}-2workers") for c in CHUNKED])
def test_golden_digest(command, workers, tmp_path):
    recorded = GOLDEN.get(np.__version__)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for numpy {np.__version__}")
    assert output_digest(run_report(command, workers), tmp_path) == recorded[command]


def test_appendix_reruns_byte_identical(tmp_path):
    first = output_digest(run_report("appendix"), tmp_path / "a")
    assert output_digest(run_report("appendix"), tmp_path / "b") == first


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(f'    "{np.__version__}": {{')
        for command in cli._RUNNERS:
            digest = output_digest(run_report(command), f"{tmp}/{command}")
            print(f'        "{command}": "{digest}",')
        print("    },")
