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
            "dfa4addb86cf93e735266cf20c3d4a235dc6db05680d39ea77daeff09d5123d2",
        "occupancy":
            "85001c1c46877b7ea005a508cf4e864b148a81066464c37fc0825db22f34098a",
        "renewal":
            "193fb30db31d44be7c05bca4f64e42449e629ce4aea6e1052e988acb6caa0119",
        "verify-bounds":
            "433085c9244af24d869e6c8fffd26c9835644ea22821bbea8129974a80d342fe",
        "theorem-main":
            "f9faa865139c04be08b99e3ae36fc4ad67e5d616d0d1bdd2a251e512edf547c2",
        "theorem-2":
            "5ddbfff3c262698906b8be3a66d80d6dee527a0dc8ef89f4ffbcc880fbbeddea",
        "theorem-3":
            "4b2db9b5320ade961a3101d5b0c710a0d47e44e4af1beab7d7ea30df8282c5df",
        "fixed-level":
            "844368c3f94e1e29844941e71d4fe346588d3045acf263855de9b03198f2cc36",
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
