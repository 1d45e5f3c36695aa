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
            "2d131f6c611799e1a3d199e9a1b9e60ff287f3f1013e783206f911a35d87365f",
        "occupancy":
            "50a9cfb8e81afc39a9bb3153b7f98e4f53b93de4596ab8c4954777510a1aa62b",
        "renewal":
            "f19197f33820b597a9046e4d1c274eb99fa11d6697c2155765507f47b160e49a",
        "verify-bounds":
            "13b98e5e6de2fd907dba26f9104693e9ef64bf0bff92d358fee074098be14874",
        "theorem-main":
            "fda842f872371f04bd13b7f508347b68c08e08cf047513614777cf9b34af1bd4",
        "theorem-2":
            "ac13e03b77ba34ff7b63c42960d22d08a8b6533331b42f087aafb017e03278c6",
        "theorem-3":
            "6fd060f854dd1475766509f386a5d037c509179586b9a601dd0cbcc8190d2b6e",
        "fixed-level":
            "c40b9e9196159a94e731748e61abc6cc7ba7dfb24502a49f7e0de8ff346928e5",
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
