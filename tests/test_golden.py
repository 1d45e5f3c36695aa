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
            "79223eeed74b47250e7f69769f5e45ffee13a128533873af1e53c761fed8624e",
        "occupancy":
            "80fba35e2a540758e03c349f440f1cf1aabd7b7eb762f73c977f887ac8cafbba",
        "renewal":
            "3faaa22b59d72cf775dcda27265d39c1c01f393e2f7786f82134ca6b8c381ea4",
        "verify-bounds":
            "ed753574b5085d02d0f357c27d7733548ac2b3ea29252a79af9e92e5226167bf",
        "theorem-main":
            "59a54d1744fe4632ab002ac339b1fec5b79b64a99f259febc1d50b1340171357",
        "theorem-2":
            "d3280d20fc19414a73591decb60eec48de4ad61996d5b82579850798c903ccba",
        "theorem-3":
            "9fdfc985ddfae9a0756d357890f6ea64f20ffcf7584e242363045f7cb782d82d",
        "fixed-level":
            "e03e442785228b9205fa1e52861b2f8ed19acc5b8a76cb573cc81b463cf5f59e",
        "appendix":
            "f0bb354e7267070ec88b85bce93d3a2cfd7281efb90784ec211362c1eea931bf",
    },
}

APPENDIX_SEED = 7

# runners that fan replicas out over chunks: their bytes must not depend on
# the worker count, so they are also checked against the same digest at 2
CHUNKED = ("occupancy", "theorem-main", "theorem-2", "theorem-3")


def golden_config(workers: int = 1) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        log_n_list=(25, 50), j_list=(2, 2), u_list=(0.6, 1.0), replicas=128,
        limit_draws=400, grid_replicas=2000, fixed_level_js=(4, 16),
        workers=workers)


def run_report(command: str, workers: int = 1) -> harness.Report:
    if command == "appendix":
        return harness.run_appendix_checks(APPENDIX_SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
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
