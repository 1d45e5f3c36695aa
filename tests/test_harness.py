import csv
import hashlib
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import ks_2samp, spearmanr

from sievesim import cli, harness
from sievesim.distributions import ModelParams, WLaw
from sievesim.harness import (
    ExperimentConfig,
    Report,
    Row,
    _normalizer,
    emit,
    limit_mean_oracle,
    run_appendix_checks,
    run_fixed_level_link,
    run_limit_sample,
    run_renewal,
    run_theorem2,
    run_theorem3,
    run_theorem_main,
)
from sievesim.occupancy import expand_tree, occupancy_poissonized
from sievesim.stats import ks_two_sample, rank_correlation
from sievesim.streams import substream
from test_golden import golden_config, run_report


def small_config(**kw):
    defaults = dict(log_n_list=(25.0, 50.0), j_list=(2, 2), u_list=(1.0,),
                    replicas=150)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.array([0.3, 1.0, 2.5])
        assert ks_two_sample(a, a) == 0.0

    def test_disjoint_supports(self):
        assert ks_two_sample([1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_hand_enumeration(self):
        assert ks_two_sample([1.0, 3.0], [2.0, 4.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40),
           st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    def test_matches_scipy_with_ties(self, xs, ys):
        a = np.array(xs, dtype=float)
        b = np.array(ys, dtype=float)
        # only the statistic is compared; the asymptotic p-value, which this
        # test discards, divides by zero on some samples
        with np.errstate(divide="ignore"):
            expected = ks_2samp(a, b, method="asymp").statistic
        assert ks_two_sample(a, b) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=2, max_size=40))
    def test_rank_correlation_matches_scipy_with_ties(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=float)
        b = np.array([p[1] for p in pairs], dtype=float)
        # spearmanr is undefined for a constant sample
        assume(np.ptp(a) > 0 and np.ptp(b) > 0)
        assert rank_correlation(a, b) == pytest.approx(
            spearmanr(a, b).statistic, abs=1e-12)

    def test_rank_correlation_perfect(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(a, 2 * a) == pytest.approx(1.0)
        assert rank_correlation(a, -a) == pytest.approx(-1.0)


class TestSampleSet:
    def test_rejects_empty_and_nonfinite(self):
        # the guard sits where every KS distance is computed, on both samples
        for bad in (np.array([]), np.array([1.0, np.nan]), np.array([np.inf])):
            with pytest.raises(ValueError):
                ks_two_sample(bad, [1.0])
            with pytest.raises(ValueError):
                ks_two_sample([1.0], bad)


class TestConfigValidation:
    def test_replica_floor(self):
        with pytest.raises(ValueError, match="replicas"):
            small_config(replicas=99)

    def test_depth_cap_hard_reject(self):
        # 100^(1/3) = 4.64, so j = 5 exceeds the growth cap
        with pytest.raises(ValueError, match="cap"):
            ExperimentConfig(log_n_list=(100.0,), j_list=(5,), u_list=(1.0,),
                             replicas=150)

    def test_depth_cap_warns_near_cap(self):
        with pytest.warns(RuntimeWarning, match="cap"):
            ExperimentConfig(log_n_list=(100.0,), j_list=(4,), u_list=(1.0,),
                             replicas=150)

    def test_default_depths_do_not_warn(self):
        # the default depth rule is the paper's own choice, not the caller's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExperimentConfig()

    def test_floor_ju_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            small_config(u_list=(0.3,))

    def test_default_j_rule(self):
        cfg = ExperimentConfig(log_n_list=(50.0, 150.0), u_list=(1.0,), replicas=150)
        assert cfg.j_list == (3, 4)

    def test_threshold_rules(self):
        cfg = small_config()
        assert cfg.neglog_threshold(100.0) == pytest.approx(
            100.0 + 2 * np.log(100.0))

    @pytest.mark.parametrize("field, value", [
        ("workers", 0), ("workers", -3), ("log_n_list", ()), ("u_list", ()),
        ("seed", -1), ("log_n_list", (np.nan, 50.0)), ("log_n_list", (25.0, np.inf)),
        ("u_list", (np.nan,)), ("u_list", (np.inf,)), ("c", np.inf), ("kappa", np.inf),
        # repeats, as the :g summary keys see them, would overwrite a key
        ("log_n_list", (25.0, 25.0)), ("u_list", (0.6, 0.6000001))])
    def test_bad_setting_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            if field in ("c", "kappa"):  # model parameters
                small_config(params=ModelParams(law=WLaw.GAMMA_MIXTURE,
                                                **{"kappa": 2.0, field: value}))
            else:
                small_config(**{field: value})

    def test_hash_stable_and_sensitive(self):
        a, b = small_config(), small_config()
        assert a.config_hash() == b.config_hash()
        c = small_config(seed=1)
        assert a.config_hash() != c.config_hash()

    def test_numpy_counts_hash_like_python_ints(self):
        plain = small_config(replicas=200, seed=5)
        numpy_ = small_config(replicas=np.int64(200), seed=np.int32(5),
                              j_list=(np.int64(2), np.int32(2)))
        assert numpy_.config_hash() == plain.config_hash()
        assert type(numpy_.replicas) is int and type(numpy_.seed) is int
        assert all(type(j) is int for j in numpy_.j_list)

    @pytest.mark.parametrize("name", ["replicas", "seed", "workers"])
    def test_float_count_rejected(self, name):
        with pytest.raises(TypeError):
            small_config(**{name: 200.0})

    def test_float_depth_rejected(self, tmp_path):
        # a depth of 2.7 is an error, not a silent depth of 2
        with pytest.raises(TypeError, match="j_list"):
            small_config(j_list=(2.7, 2))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("log_n=25,50\nj=2.7\nu=1.0\nreplicas=150\n")
        settings_ = cli._merged_settings(
            cli._parser().parse_args(["occupancy", "--config", str(cfg_file)]))
        with pytest.raises(TypeError, match="j_list"):
            cli._build_config(settings_)


class TestEmit:
    def _tiny_report(self):
        rep = Report("demo", "abc123", 7)
        rep.add_rows("demo", [0.25], 10.0, 2, 1.0)
        rep.summary["metric"] = 0.5
        rep.add_check("check", 0.5, 1.0, True)
        return rep

    def test_header_only_for_empty(self, tmp_path):
        rep = Report("empty", "abc", 1)
        paths = emit(rep, "csv", str(tmp_path))
        assert (tmp_path / "empty.csv").read_text() == \
            "experiment,log_n_or_t,j,u,replica,value\n"
        assert len(paths) == 1

    def test_rerun_identical_bytes(self, tmp_path):
        rep = self._tiny_report()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit(rep, "both", str(d1))
        emit(rep, "both", str(d2))
        for name in ("demo.csv", "demo_summary.json"):
            h1 = hashlib.sha256((d1 / name).read_bytes()).hexdigest()
            h2 = hashlib.sha256((d2 / name).read_bytes()).hexdigest()
            assert h1 == h2

    def test_json_contains_checks(self, tmp_path):
        rep = self._tiny_report()
        emit(rep, "json", str(tmp_path))
        payload = json.loads((tmp_path / "demo_summary.json").read_text())
        assert payload["passed"] is True
        assert payload["checks"][0]["name"] == "check"
        assert payload["summary"]["metric"] == 0.5

    def test_bad_format(self, tmp_path):
        # rejected before anything is written, the output directory included
        out = tmp_path / "new"
        with pytest.raises(ValueError, match="format"):
            emit(self._tiny_report(), "xml", str(out))
        assert not out.exists()

    def test_csv_round_trips_every_cell(self, tmp_path):
        rep = Report("demo", "abc", 1)
        rep.add_rows("demo", [5e-324, 1e300, 0.1 + 0.2, -0.0], 10.0, 3, "")
        rep.add_rows("demo/grid", [-1.5, 2.0], log_n_or_t=[0.0, 2.5], replica="")
        emit(rep, "csv", str(tmp_path))
        with open(tmp_path / "demo.csv", newline="") as fh:
            header, *cells = csv.reader(fh)
        assert ",".join(header) == ",".join(Row._fields)
        cast = [str, float, int, float, int, float]
        back = [Row(*(kind(c) if c else c for kind, c in zip(cast, row)))
                for row in cells]
        assert back == rep.rows
        # == does not tell -0.0 from 0.0 or 10 from 10.0; the text does
        assert cells[0] == ["demo", "10.0", "3", "", "0", "5e-324"]
        assert cells[3][5] == "-0.0" and cells[4][:5] == ["demo/grid", "0.0", "", "", ""]

    def test_json_rejects_numpy_scalars(self, tmp_path):
        rep = self._tiny_report()
        rep.summary["count"] = np.int64(1)
        with pytest.raises(TypeError):
            emit(rep, "json", str(tmp_path))


class TestNormalizer:
    @pytest.fixture
    def counts(self, case_a):
        tree = expand_tree(case_a, 3, neglog_threshold=20.0, rng=substream(20, 0))
        return lambda idx: occupancy_poissonized(tree, 15.0, substream(30, idx))[0]

    def test_formula_depth_one(self, counts, case_a, consts_a):
        count = counts(0)[0]
        got = _normalizer(case_a, consts_a, 1, 1, 15.0, count)
        expected = case_a.c * count / 15.0 ** 0.5
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linear_in_c(self, counts, consts_a):
        count = counts(1)[1]
        p1 = ModelParams(c=1.0)
        p2 = ModelParams(c=2.0)
        v1 = _normalizer(p1, consts_a, 2, 2, 15.0, count)
        v2 = _normalizer(p2, consts_a, 2, 2, 15.0, count)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_zero_count(self, case_a, consts_a):
        assert _normalizer(case_a, consts_a, 1, 1, 10.0, 0) == 0.0


class TestRunners:
    def test_theorem_main_structure(self):
        rep = run_theorem_main(small_config())
        names = {c["name"] for c in rep.checks}
        assert "bias_fraction<=0.01" in names
        assert any(n.startswith("mean_within_15pct") for n in names)
        assert "mean(log_n=25,u=1)" in rep.summary
        assert len([r for r in rep.rows
                    if r.experiment == "theorem-main/count"]) == 2 * 150

    def test_theorem_main_reports_bias_through_its_check(self, monkeypatch):
        # pruning at 1/(e^2 n) leaves a bias bound far above 1% of the count;
        # the run must finish and fail its check, not abort
        monkeypatch.setattr(ExperimentConfig, "neglog_threshold",
                            lambda self, log_n: log_n - 2.0)
        rep = run_theorem_main(small_config(log_n_list=(25.0,), j_list=(2,)))
        check = next(c for c in rep.checks if c["name"] == "bias_fraction<=0.01")
        assert not check["passed"]
        assert check["value"] == pytest.approx(2.56, abs=0.01)

    def test_theorem_main_rejects_pareto(self):
        cfg = small_config(params=ModelParams(law=WLaw.PARETO))
        with pytest.raises(ValueError):
            run_theorem_main(cfg)

    def test_theorem3_depth_one_exact_zero(self):
        # at depth 1 the weighted sum is the raw count: the difference is 0
        cfg = small_config(log_n_list=(25.0,), j_list=(1,), replicas=120)
        rep = run_theorem3(cfg)
        diffs = [r.value for r in rep.rows]
        assert np.max(np.abs(diffs)) == 0.0

    def test_fixed_level_reports(self):
        rep = run_fixed_level_link(small_config(replicas=2000))
        assert "ks(j=4)" in rep.summary and "mean(j=16)" in rep.summary
        assert limit_mean_oracle(0.5, 1.0) == pytest.approx(
            np.sqrt(2 / np.pi), rel=1e-12)

    def test_theorem2_level_one_reduces_to_count_scaling(self):
        # floor(j u) = 1: the statistic is the scaled point count, so every
        # normalized value lies on the lattice c j^alpha / (rho_0 t^alpha) Z
        cfg = small_config(log_n_list=(25.0,), j_list=(2,), u_list=(0.5,),
                           replicas=120)
        rep = run_theorem2(cfg)
        vals = np.array([r.value for r in rep.rows
                         if r.experiment == "theorem-2/statistic"])
        unit = 2.0 ** 0.5 / 25.0 ** 0.5
        ticks = vals / unit
        assert np.allclose(ticks, np.round(ticks), atol=1e-9)

    @pytest.mark.parametrize("params", [ModelParams(),
                                        ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=2.0)],
                             ids=["case-a", "case-b-kappa2"])
    def test_renewal_passes_at_its_default_horizon(self, params):
        # at horizon 400 more than half of V's mass lies in its first cell,
        # which a midpoint rule would discount by e^(-s h/2)
        rep = run_renewal(ExperimentConfig(params=params, log_n_list=(400.0,), j_list=(5,)))
        assert rep.passed, [c for c in rep.checks if not c["passed"]]

    def test_limit_sample_runner(self):
        rep = run_limit_sample(small_config(replicas=300))
        assert rep.passed
        assert len(rep.rows) == 300

    def test_appendix_passes(self):
        rep = run_appendix_checks(ExperimentConfig())
        assert rep.passed, [c for c in rep.checks if not c["passed"]]


_KEY_COLUMN = {"log_n": "log_n_or_t", "t": "log_n_or_t", "j": "j", "u": "u"}


def _labelled_values(report: Report, labels: dict, limit: bool) -> list:
    """Values of the rows (the /limit draws or the others) whose columns
    print, in the summary keys' :g format, as the given labels."""
    def matches(row):
        cells = {name: getattr(row, _KEY_COLUMN[name]) for name in labels}
        return all(cells[name] != "" and f"{cells[name]:g}" == label
                   for name, label in labels.items())
    return [row.value for row in report.rows
            if row.experiment.endswith("/limit") == limit and matches(row)]


@pytest.mark.parametrize("command", list(cli._RUNNERS))
def test_summary_statistics_match_their_rows(command):
    # each mean(k=v,...) is the mean of the rows it labels; where the limit
    # draws are emitted (theorem-main, theorem-2), each ks(k=v,...) is the
    # KS distance of those rows to the limit draws at that u
    report = run_report(command)
    n_ks = 0
    for key, value in report.summary.items():
        match = re.fullmatch(r"(mean|ks)\((.+)\)", key)
        if not match:
            continue
        labels = dict(part.split("=") for part in match[2].split(","))
        values = _labelled_values(report, labels, limit=False)
        assert values, f"{key} labels no rows"
        if match[1] == "mean":
            assert value == pytest.approx(np.mean(values), rel=1e-12), key
        elif command in ("theorem-main", "theorem-2"):
            limit = _labelled_values(report, {"u": labels["u"]}, limit=True)
            assert value == ks_two_sample(values, limit), key
            n_ks += 1
    if command in ("theorem-main", "theorem-2"):
        cfg = golden_config()
        assert n_ks == len(cfg.log_n_list) * len(cfg.u_list)


class TestWorkerDeterminism:
    def test_outputs_identical_across_worker_counts(self, tmp_path):
        digests = []
        for workers in (1, 4):
            rep = run_theorem_main(small_config(workers=workers))
            out = tmp_path / f"w{workers}"
            emit(rep, "both", str(out))
            blob = b"".join(sorted(p.read_bytes() for p in out.iterdir()))
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]


class TestCli:
    def test_appendix_exit_zero(self, tmp_path, capsys):
        code = cli.main(["appendix", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "wrote" in out
        assert (tmp_path / "appendix_summary.json").exists()

    def test_limit_sample_flags(self, tmp_path, capsys):
        code = cli.main(["limit-sample", "--u", "1.0", "--replicas", "200",
                         "--seed", "3", "--out", str(tmp_path),
                         "--format", "csv"])
        assert code == 0
        lines = (tmp_path / "limit-sample.csv").read_text().splitlines()
        assert len(lines) == 201

    def test_config_file_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("alpha=0.5\nreplicas=120\nseed=9\nu=1.0\n"
                            "log_n=25,50\nj=2\n")
        settings_ = cli._merged_settings(
            cli._parser().parse_args(["occupancy", "--config", str(cfg_file),
                                      "--replicas", "150"]))
        cfg = cli._build_config(settings_)
        assert cfg.replicas == 150  # flag wins
        assert cfg.seed == 9
        assert cfg.log_n_list == (25.0, 50.0)
        assert cfg.j_list == (2, 2)

    def test_config_file_sets_every_field(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("case=b\nkappa=2\nworkers=2\n"
                            "log_n_list=25,50\nj_list=2\n")
        cfg = cli._build_config(cli._merged_settings(
            cli._parser().parse_args(["occupancy", "--config", str(cfg_file)])))
        assert cfg.params == ModelParams(law=WLaw.GAMMA_MIXTURE, kappa=2.0)
        assert cfg.workers == 2
        assert cfg.log_n_list == (25.0, 50.0) and cfg.j_list == (2, 2)

    def test_config_file_format(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("u=1.0\nreplicas=100\nformat=json\n")
        assert cli.main(["limit-sample", "--config", str(cfg_file),
                         "--out", str(tmp_path / "a")]) == 0
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["limit-sample_summary.json"]
        # a bad format fails before the run starts, so nothing is written
        cfg_file.write_text("u=1.0\nreplicas=100\nformat=xml\n")
        with pytest.raises(ValueError, match="format"):
            cli.main(["limit-sample", "--config", str(cfg_file),
                      "--out", str(tmp_path / "b")])
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("line, key", [
        ("replicas=150.0", "'replicas'"), ("u=abc", "'u_list'"), ("alpha=abc", "'alpha'")])
    def test_unconvertible_config_value_names_its_key(self, tmp_path, line, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"log_n=25,50\nj=2\n{line}\n")
        settings_ = cli._merged_settings(
            cli._parser().parse_args(["occupancy", "--config", str(cfg_file)]))
        with pytest.raises(ValueError, match=key):
            cli._build_config(settings_)

    def test_unknown_config_key_rejected(self, tmp_path):
        for line in ("repicas=9999", "horizon=300", "params=x", "out_dir=x",
                     "threshold_rule=offset:3", "step=0.001", "limit_draws=300",
                     "grid_replicas=500", "fixed_level_js=4,16", "fmt=json"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"replicas=150\n{line}\n")
            settings_ = cli._merged_settings(
                cli._parser().parse_args(["occupancy", "--config", str(cfg_file)]))
            with pytest.raises(ValueError, match=line.split("=")[0]):
                cli._build_config(settings_)

    def test_appendix_rejects_settings_it_ignores(self, tmp_path):
        with pytest.raises(ValueError, match="'replicas'"):
            cli.main(["appendix", "--replicas", "5", "--out", str(tmp_path)])
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed=3\nsed=4\n")
        with pytest.raises(ValueError, match="'sed'"):
            cli.main(["appendix", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert not (tmp_path / "appendix_summary.json").exists()

    def test_appendix_rejects_negative_seed(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            cli.main(["appendix", "--seed", "-1", "--out", str(tmp_path)])
        assert not (tmp_path / "appendix_summary.json").exists()

    def test_failing_check_nonzero_exit(self, tmp_path, monkeypatch):
        # a run whose checks fail must exit 1
        rep = Report("demo", "x", 1)
        rep.add_check("always_fails", 1.0, 0.0, False)
        monkeypatch.setitem(cli._RUNNERS, "occupancy", lambda cfg: rep)
        code = cli.main(["occupancy", "--replicas", "150", "--log-n", "25",
                         "--j", "2", "--u", "1.0", "--out", str(tmp_path)])
        assert code == 1
