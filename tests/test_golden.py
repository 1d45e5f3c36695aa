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
            "35b8565822abebef88d1c0a4bd0aac078b61e3216cb27566b137ffd009732a98",
        "occupancy":
            "f563380fbf16a904cf3ba9b811c3286db86796764c0fc382deb0280a71e745fa",
        "renewal":
            "cd8608d6ffab0e8729641122fbcb5477a678c114f4b2a4396838915068fccc1d",
        "verify-bounds":
            "112c51abb35744425b84da784d86c93f9649f995ae8daf405caf201c5ce095c3",
        "theorem-main":
            "9cea3b05a15af74115cf0d2fc667542f8f0c2cdf5f5d71656eeab0a43cd1917a",
        "theorem-2":
            "04e11ceec96ab7052a3e2c18a1f841a9b4dc6cc2618215942b36618e0974bdf4",
        "theorem-3":
            "f2e6d0fd239019f8b2b846ee6addbb33ee2d016ae953856a2d90feb717ee8000",
        "fixed-level":
            "d0152867dc897b1ff8eda93e0ea79be2217a1bac741ba48ddae89810d0d02344",
        "appendix":
            "4fbe57dd25e1031c837d6ad94515a4253435d62ab231e94fdef0823aff4bcadb",
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
    # a warning that a runner raises here fails the test instead of hiding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if command == "appendix":
            return harness.run_appendix_checks(APPENDIX_SEED)
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
