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
            "e837a11cf6897a48fb5d08135aee7824ae22acf7b3fb6fb645a4655007c5c20f",
        "renewal":
            "3faaa22b59d72cf775dcda27265d39c1c01f393e2f7786f82134ca6b8c381ea4",
        "verify-bounds":
            "ed753574b5085d02d0f357c27d7733548ac2b3ea29252a79af9e92e5226167bf",
        "theorem-main":
            "f5c2570856a8e74fe8f9516deb423dd3484905a7ff787f85cb65f8f596c2e25f",
        "theorem-2":
            "1ba5e43498ddf7b5329f8a40787493e62195754507df53eecf4b213fa9417080",
        "theorem-3":
            "0caaea563df253def5db8f10cbfd2b9a73a1f301dc44366c0afe8d04e33afded",
        "fixed-level":
            "e03e442785228b9205fa1e52861b2f8ed19acc5b8a76cb573cc81b463cf5f59e",
        "appendix":
            "2918cf6e7c974d1b67769da10e5f0f7b4b739b6dfd8e8a3fbb13cb7c174fd03b",
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
