import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fastswitch import cli
from fastswitch.cli import main
from fastswitch.config import ConfigError, config_from_document, load_config

REPO = Path(__file__).resolve().parent.parent
MODEL_A = REPO / "configs" / "model_a.json"


def small_config(tmp_path, **overrides) -> Path:
    """A cheap variant of the two-state exponential config for CLI tests."""
    with open(MODEL_A) as fh:
        doc = json.load(fh)
    doc["grid"]["n_points"] = 65
    doc["grid"]["u_min"] = -6.0
    doc["grid"]["u_max"] = 6.0
    doc["time"] = {"horizon": 0.5, "h_t": 0.005}
    doc["layer"] = {"h_tau": 0.02, "tau_max": 16.0}
    doc["order"] = 1
    doc["epsilons"] = [0.2, 0.1]
    doc["oracle"] = {"method": "direct", "n_samples": 2000, "seed": 3,
                     "h_s": 0.05, "u_stride": 8, "t_eval": [0.25, 0.5]}
    doc["output"] = {"t_stride": 20, "tau_stride": 100, "u_stride": 8}
    for key, val in overrides.items():
        doc[key] = val
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class TestConfig:
    def test_load_model_a(self):
        cfg = load_config(MODEL_A)
        assert cfg.model.n_states == 2
        assert cfg.order == 2
        assert cfg.oracle.method == "direct"

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"states": ["a"]}}')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_epsilon(self, tmp_path):
        path = small_config(tmp_path, epsilons=[1.5])
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_defaults_of_every_optional_section(self):
        with open(MODEL_A) as fh:
            full = json.load(fh)
        cfg = config_from_document({"model": full["model"], "velocity": full["velocity"]})
        assert (cfg.field.grid.u_min, cfg.field.grid.u_max, cfg.field.grid.n_points,
                cfg.field.grid.boundary_mode) == (-8.0, 8.0, 257, "extrapolate")
        assert (cfg.phi.kind, cfg.phi.center, cfg.phi.width,
                cfg.phi.coeffs) == ("gaussian", 0.0, 1.0, (1.0,))
        assert (cfg.order, cfg.horizon, cfg.h_t, cfg.h_tau, cfg.tau_max,
                cfg.epsilons) == (2, 1.0, 0.002, 0.005, None, (0.2, 0.1, 0.05, 0.025))
        o = cfg.oracle
        assert (o.method, o.n_samples, o.seed, o.h_s, o.u_stride, o.t_eval,
                o.richardson) == ("direct", 100000, 20240811, 0.02, 16, (0.5, 1.0), False)
        assert (cfg.output.t_stride, cfg.output.tau_stride, cfg.output.u_stride) == (25, 40, 1)


    @pytest.mark.parametrize("seed", [0, -3, -2**63, 2**63 - 1, 2**53 + 1])
    def test_zero_and_negative_seeds_load(self, tmp_path, seed):
        # every seed of [-2**63, 2**63) loads exactly, not rounded through a float
        path = small_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["oracle"]["seed"] = seed
        path.write_text(json.dumps(doc))
        assert load_config(path).oracle.seed == seed

    @pytest.mark.parametrize("section,key,value", [
        ("layer", "tau_max", "30"), ("layer", "tau_max", 0), ("layer", "tau_max", -2.0),
        ("time", "horizon", 0), ("time", "h_t", 0), ("time", "h_t", -0.01),
        ("layer", "h_tau", 0), ("oracle", "h_s", 0), ("oracle", "n_samples", 0),
        ("oracle", "u_stride", 0), ("output", "t_stride", 0),
        ("output", "tau_stride", 0), ("output", "u_stride", 0),
        ("oracle", "t_eval", [0.2525]), ("oracle", "t_eval", [0.75]),
        ("oracle", "t_eval", [0.0]),
        ("oracle", "u_stride", 2.7), ("", "order", 1.9), ("", "order", 4),
        ("grid", "n_points", 129.6),
        ("output", "t_stride", 2.5), ("model.sojourns[1]", "shape", 2.5),
        ("oracle", "seed", 2.7), ("oracle", "seed", True), ("oracle", "n_samples", 500),
        ("oracle", "richardson", "false"), ("test_function", "width", 0),
        ("test_function", "kind", "bogus"), ("test_function", "center", True),
        ("grid", "u_max", -6.0),
        ("grid", "u_max", float("nan")), ("grid", "n_points", 8),
        ("grid", "boundary_mode", "reflect"),
        ("velocity[0]", "value", float("inf")), ("model.sojourns[0]", "rate", True),
        ("model.sojourns[0]", "rate", "2"), ("grid", "n_points", "129"),
        ("time", "horizon", "1"), ("", "epsilons", ["0.2"]),
        ("", "epsilons", [0.2, 0.2]), ("", "epsilons", [0.2, 0.1, 0.05, 0.1]),
        ("", "epsilons", []), ("oracle", "t_eval", []),
        ("oracle", "t_eval", [0.25, 0.5, 0.25]),
        # the Philox key holds a seed modulo 2**64: outside [-2**63, 2**63)
        # a seed would draw another seed's samples
        ("oracle", "seed", 2**63), ("oracle", "seed", -2**63 - 1),
        ("oracle", "seed", 2**64 + 1),
    ])
    def test_rejected_at_load(self, tmp_path, capsys, section, key, value):
        # small_config: horizon 0.5, h_t 0.005
        path = small_config(tmp_path)
        doc = json.loads(path.read_text())
        if section == "model.sojourns[1]":
            target = doc["model"]["sojourns"][1] = {"family": "erlang", "rate": 2.0}
        elif section == "model.sojourns[0]":
            target = doc["model"]["sojourns"][0]
        elif section == "velocity[0]":
            target = doc["velocity"][0]
        else:
            target = doc[section] if section else doc
        target[key] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["expand", "--config", str(path), "--out", str(out)]) == 2
        assert f"{section}.{key}".lstrip(".") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path,entry,name", [
        (("model", "sojourns", 0), {"family": "uniform", "a": True, "b": 1.0},
         "model.sojourns[0].a"),
        (("model", "sojourns", 0), {"family": "uniform", "a": 0.0, "b": "1"},
         "model.sojourns[0].b"),
        (("velocity", 1), {"kind": "linear", "slope": "0", "intercept": -1.0},
         "velocity[1].slope"),
        (("velocity", 1), {"kind": "linear", "slope": 0.0, "intercept": None},
         "velocity[1].intercept"),
        (("velocity", 1), {"kind": "tabulated", "values": [-1.0] * 64 + ["-1"]},
         "velocity[1].values[64]"),
        (("model", "transitions", 0), [0.0, "1"], "model.transitions[0][1]"),
        (("test_function", "coeffs"), [1.0, True], "test_function.coeffs[1]"),
    ])
    def test_numeric_leaf_rejected(self, tmp_path, path, entry, name):
        # small_config: 65 grid points
        doc = json.loads(small_config(tmp_path).read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = entry
        with pytest.raises(ConfigError, match=re.escape(name)):
            config_from_document(doc)

    @pytest.mark.parametrize("path,entry,key", [
        (("model", "sojourns", 0), {"family": "exponential", "rate": 1.0, "shape": 2},
         "shape"),
        (("velocity", 1), {"kind": "constant", "value": -1.0, "slope": 0.5}, "slope"),
        (("velocity", 1), {"kind": "tabulated", "values": [-1.0] * 65, "value": -1.0},
         "value"),
        (("horizon",), 1.0, "horizon"),
        (("model", "initial"), "a", "initial"),
        (("grid", "spacing"), 0.1, "spacing"),
        (("test_function", "centre"), 0.5, "centre"),
        (("time", "h_tau"), 0.01, "h_tau"),
        (("layer", "n_tau"), 800, "n_tau"),
        (("oracle", "samples"), 5000, "samples"),
        (("output", "stride"), 2, "stride"),
    ])
    def test_unknown_key_rejected(self, tmp_path, path, entry, key):
        # the loader reads every key it accepts, so a misspelt or misplaced
        # one fails instead of leaving its setting at the default
        doc = json.loads(small_config(tmp_path).read_text())
        parent = doc
        for part in path[:-1]:
            parent = parent[part]
        parent[path[-1]] = entry
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            config_from_document(doc)

    @pytest.mark.parametrize("path,entry,name", [
        (("model", "states"), 5, "model.states"),
        (("model", "states"), "ab", "model.states"),
        (("velocity",), 3, "velocity"),
        (("model", "sojourns", 0), 5, "model.sojourns[0]"),
        (("velocity", 1), [-1.0], "velocity[1]"),
        (("model", "sojourns", 0, "family"), ["exponential"], "model.sojourns[0].family"),
        (("velocity", 0, "kind"), ["constant"], "velocity[0].kind"),
        (("model", "sojourns"), {"family": "exponential", "rate": 1.0}, "model.sojourns"),
    ])
    def test_wrong_shape_rejected(self, tmp_path, capsys, path, entry, name):
        doc = json.loads(small_config(tmp_path).read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = entry
        with pytest.raises(ConfigError, match=re.escape(name)):
            config_from_document(doc)
        cfg = tmp_path / "shape.json"
        cfg.write_text(json.dumps(doc))
        assert main(["expand", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert name in capsys.readouterr().err

    def test_loaded_config_is_frozen(self):
        cfg = load_config(MODEL_A)
        for obj, field in ((cfg, "order"), (cfg.oracle, "seed"), (cfg.output, "u_stride")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, 1)

    @pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "configs").glob("*.json")))
    def test_shipped_configs_load(self, name):
        load_config(REPO / "configs" / name)

    def test_boolean_t_eval_rejected_at_load(self, tmp_path, capsys):
        # on a horizon of 1.0, true would load as the grid time 1.0
        path = small_config(tmp_path, time={"horizon": 1.0, "h_t": 0.005})
        doc = json.loads(path.read_text())
        doc["oracle"]["t_eval"] = [0.5, True]
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["expand", "--config", str(path), "--out", str(out)]) == 2
        assert "oracle.t_eval" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_valid_exits_zero(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert main(["validate", "--config", str(path)]) == 0
        assert "usable" in capsys.readouterr().out

    def test_bad_row_sum_exits_one(self, tmp_path, capsys):
        bad_model = {
            "states": ["a", "b"],
            "transitions": [[0.5, 0.4], [0.5, 0.5]],
            "sojourns": [{"family": "exponential", "rate": 1.0}] * 2,
        }
        path = small_config(tmp_path, model=bad_model)
        assert main(["validate", "--config", str(path)]) == 1
        assert "row" in capsys.readouterr().out

    def test_missing_sojourn_params_exits_two(self, tmp_path):
        bad_model = {
            "states": ["a", "b"],
            "transitions": [[0.0, 1.0], [1.0, 0.0]],
            "sojourns": [{"family": "exponential"}, {"family": "exponential", "rate": 2.0}],
        }
        path = small_config(tmp_path, model=bad_model)
        assert main(["validate", "--config", str(path)]) == 2


class TestExpandCommand:
    def test_writes_series_and_diagnostics(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["expand", "--config", str(path), "--out", str(out)]) == 0
        for name in ("c_0.csv", "c_1.csv", "U_0.csv", "U_1.csv", "W_1.csv",
                     "diagnostics.json"):
            assert (out / name).exists(), name
        with open(out / "diagnostics.json") as fh:
            diag = json.load(fh)
        assert "orders" in diag and "1" in diag["orders"]
        assert "adjudications" in diag
        header = (out / "U_1.csv").read_text().splitlines()[0]
        assert header == "quantity,k,time,state,u,value"

    def test_series_csv_bytes_match_per_field_formatter(self, tmp_path, monkeypatch):
        """Every series file, W included, is byte-identical to the one the
        reference writer gives: one formatted field at a time."""
        def reference_csv(quantity, k, times, values, t_stride, u_stride, u_nodes):
            lines = ["quantity,k,time,state,u,value\n"]
            for i in range(0, len(times), t_stride):
                for x in range(values.shape[1]):
                    for p in range(0, values.shape[2], u_stride):
                        lines.append(f"{quantity},{k},{times[i]:.17g},{x},"
                                     f"{u_nodes[p]:.17g},{values[i, x, p]:.17g}\n")
            return "".join(lines).encode()

        expected = {}
        writer = cli._write_series_csv

        def recording(path, *args):
            expected[path.name] = reference_csv(*args)
            writer(path, *args)
        monkeypatch.setattr(cli, "_write_series_csv", recording)
        out = tmp_path / "out"
        assert main(["expand", "--config", str(small_config(tmp_path)), "--out", str(out)]) == 0
        assert set(expected) == {"c_0.csv", "c_1.csv", "U_0.csv", "U_1.csv", "W_1.csv"}
        for name, blob in expected.items():
            assert (out / name).read_bytes() == blob, name

    def test_layer_rows_round_trip_to_factor(self, tmp_path):
        """W_k.csv holds the factor's rows G B at every tau_stride-th node,
        and every printed digit reads back to the same double."""
        path = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["expand", "--config", str(path), "--out", str(out)]) == 0
        cfg = load_config(path)
        res = cli._expand(cfg)
        stride, us = cfg.output.tau_stride, cfg.output.u_stride
        layer = res.W[1]
        expected = (layer.coeffs[::stride] @ layer.basis)[:, :, ::us]
        rows = np.loadtxt(out / "W_1.csv", delimiter=",", skiprows=1,
                          usecols=(1, 2, 3, 4, 5))
        n_tau, n_states, n_u = expected.shape
        assert n_tau == len(res.tau_grid.nodes[::stride]) > 1
        rows = rows.reshape(n_tau, n_states, n_u, 5)
        assert np.all(rows[..., 0] == 1)
        assert np.array_equal(rows[:, 0, 0, 1], res.tau_grid.nodes[::stride])
        assert np.array_equal(rows[..., 4], expected)

    def test_grid_metadata_consistent(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        main(["expand", "--config", str(path), "--out", str(out)])
        with open(out / "diagnostics.json") as fh:
            diag = json.load(fh)
        assert diag["grids"]["n_points"] == 65
        assert diag["grids"]["h_t"] == pytest.approx(0.005)
        assert diag["grids"]["n_tau"] * diag["grids"]["h_tau"] == pytest.approx(
            diag["grids"]["tau_max"])

    def test_residual_keys_each_present_once(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        main(["expand", "--config", str(path), "--out", str(out)])
        with open(out / "diagnostics.json") as fh:
            diag = json.load(fh)
        expected = {"range_projection_defect", "system15_residual", "ck0_sup", "ck0_tail_bound",
                    "w_decay_ratio", "w_monotone_tail", "w_sup", "u_sup",
                    "regularity_PI", "regularity_I_minus_Pi", "renewal_t0", "layer_rank"}
        assert expected <= set(diag["orders"]["1"].keys())

    def test_partial_diagnostics_on_failure(self, tmp_path, capsys):
        # a second-order build with a far-too-short layer window fails its
        # tail bound but still leaves an error record behind
        path = small_config(tmp_path, order=2,
                            layer={"h_tau": 0.02, "tau_max": 2.0})
        out = tmp_path / "out"
        code = main(["expand", "--config", str(path), "--out", str(out)])
        assert code == 1
        with open(out / "diagnostics.json") as fh:
            diag = json.load(fh)
        assert "error" in diag
        # the error record's model section is a build's, and report prints the error
        good = tmp_path / "good"
        assert main(["expand", "--config", str(small_config(tmp_path)), "--out", str(good)]) == 0
        with open(good / "diagnostics.json") as fh:
            assert diag["model"] == json.load(fh)["model"]
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert f"\nerror: {diag['error']}\n" in capsys.readouterr().out

    def test_failure_removes_an_earlier_builds_series(self, tmp_path, capsys):
        """A failed expand into a finished output directory leaves none of
        that build's series next to its error record; compare's files stay."""
        finished = tmp_path / "finished"
        assert main(["expand", "--config", str(MODEL_A), "--out", str(finished)]) == 0
        assert main(["compare", "--config", str(MODEL_A), "--epsilon", "0.2,0.1",
                     "--out", str(finished)]) == 0
        out = tmp_path / "out"
        shutil.copytree(finished, out)
        with open(MODEL_A) as fh:
            doc = json.load(fh)
        doc.update(order=2, layer={"h_tau": 0.02, "tau_max": 2.0})
        path = tmp_path / "short_window.json"
        path.write_text(json.dumps(doc))
        assert main(["expand", "--config", str(path), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.glob("[cUW]_*.csv")) == []
        for name in ("remainder.csv", "remainder.json", "slopes.csv", "plotdata.csv"):
            assert (out / name).read_bytes() == (finished / name).read_bytes(), name
        with open(out / "diagnostics.json") as fh:
            error = json.load(fh)["error"]
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        assert f"\nerror: {error}\n" in capsys.readouterr().out

    def test_coarse_tau_grid_names_layer_settings(self, tmp_path, capsys):
        # 16 / 5.0 rounds up to 4 fast-time panels, short of the 8 the layer needs
        with open(MODEL_A) as fh:
            doc = json.load(fh)
        doc["layer"] = {"h_tau": 5.0, "tau_max": 16}
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        assert main(["expand", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "layer.h_tau 5" in err and "layer.tau_max 16" in err and "4 panels" in err

    def test_exponential_ck0_reported_zero(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        main(["expand", "--config", str(path), "--out", str(out)])
        with open(out / "diagnostics.json") as fh:
            diag = json.load(fh)
        assert diag["orders"]["1"]["ck0_sup"] < 1e-10


class TestCompareCommand:
    def test_writes_remainder_files(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        for name in ("remainder.csv", "slopes.csv", "plotdata.csv", "remainder.json"):
            assert (out / name).exists(), name
        with open(out / "remainder.json") as fh:
            doc = json.load(fh)
        orders = {s["order"] for s in doc["slopes"]}
        assert orders == {0, 1}

    def test_one_slope_row_per_order_and_time(self, tmp_path):
        """t = 0.75 is a whole number of march steps eps*h_s at every epsilon,
        but the step count times the step rounds to 0.7500000000000001 at some
        of them; each row reports the requested t, so every (order, t) gets
        one slope, fitted on all four epsilons."""
        eps = [0.2, 0.15, 0.1, 0.075]
        path = small_config(tmp_path, epsilons=eps, time={"horizon": 1.0, "h_t": 0.005})
        doc = json.loads(path.read_text())
        doc["oracle"].update(h_s=0.025, t_eval=[0.75])
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "slopes.csv") as fh:
            slope_rows = [line.split(",")[:2] for line in fh.read().splitlines()[1:]]
        assert slope_rows == [["0", "0.75"], ["1", "0.75"]]
        with open(out / "remainder.json") as fh:
            rem = json.load(fh)
        for s in rem["slopes"]:
            rows = [r for r in rem["rows"] if r["order"] == s["order"]]
            assert [r["t"] for r in rows] == [0.75] * 4
            assert [r["eps"] for r in rows] == eps and not any(r["noise_limited"] for r in rows)
            fit = np.polyfit(*np.log([[r["eps"] for r in rows], [r["error"] for r in rows]]), 1)
            assert s["slope"] == pytest.approx(fit[0], rel=1e-12)

    def test_off_grid_oracle_time_exits_one(self, tmp_path, capsys, monkeypatch):
        # eps 0.2 * h_s 0.03 = 0.006 does not divide t = 0.25; the check
        # needs only the config, so no expansion is built
        def no_build(*args, **kwargs):
            raise AssertionError("expansion built")
        monkeypatch.setattr(cli, "build_expansion", no_build)
        path = small_config(tmp_path, epsilons=[0.2])
        doc = json.loads(path.read_text())
        doc["oracle"]["h_s"] = 0.03
        path.write_text(json.dumps(doc))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "oracle.h_s" in err and "t=0.25 " in err

    def test_off_grid_richardson_time_exits_one(self, tmp_path, capsys, monkeypatch):
        # eps 0.1 * h_s 0.1 = 0.01 divides t = 0.25, but the Richardson error
        # bar's coarse march steps 0.02 do not; no expansion is built
        def no_build(*args, **kwargs):
            raise AssertionError("expansion built")
        monkeypatch.setattr(cli, "build_expansion", no_build)
        path = small_config(tmp_path, epsilons=[0.1])
        doc = json.loads(path.read_text())
        doc["oracle"].update(h_s=0.1, richardson=True)
        path.write_text(json.dumps(doc))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "2*eps*oracle.h_s" in err and "t=0.25 " in err

    def test_over_long_march_exits_one_before_the_build(self, tmp_path, capsys, monkeypatch):
        # eps 0.0001 * h_s 0.05 = 5e-6 takes 100000 steps to t = 0.5: the
        # step count needs only the config, so neither the expansion nor
        # the eps 0.2 march runs, and no output directory is made
        def no_build(*args, **kwargs):
            raise AssertionError("expansion built")
        monkeypatch.setattr(cli, "build_expansion", no_build)
        path = small_config(tmp_path, epsilons=[0.2, 0.0001])
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "the march needs 100000 steps (> 60000)" in err
        assert "eps=0.0001" in err and "oracle.h_s=0.05" in err
        assert not out.exists()

    def test_epsilon_override(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        main(["compare", "--config", str(path), "--out", str(out),
              "--epsilon", "0.2"])
        with open(out / "remainder.json") as fh:
            doc = json.load(fh)
        assert {r["eps"] for r in doc["rows"]} == {0.2}


class TestFlags:
    """--order, --epsilon, --oracle and --seed are written into the config
    document and pass the checks of the keys they replace."""

    @pytest.mark.parametrize("command", ["expand", "compare"])
    @pytest.mark.parametrize("flag,value,key", [
        ("--epsilon", "0,0.1", "epsilon"), ("--epsilon", "-0.1", "epsilon"),
        ("--epsilon", "1.5", "epsilon"), ("--epsilon", "nan", "epsilon"),
        ("--epsilon", "abc", "epsilon"), ("--order", "5", "order"),
        ("--epsilon", "0.1,0.1", "epsilons repeat 0.1"),
    ])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, command, flag, value, key):
        out = tmp_path / "out"
        argv = [command, "--config", str(small_config(tmp_path)), "--out", str(out),
                flag, value]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_file_keys(self, tmp_path):
        path = small_config(tmp_path)
        ns = argparse.Namespace(config=str(path), order=0, epsilon=[0.1],
                                oracle="mc", seed=11)
        cfg = cli._load(ns)
        assert (cfg.order, cfg.epsilons, cfg.oracle.method, cfg.oracle.seed) == (
            0, (0.1,), "mc", 11)
        # the oracle keys no flag names keep the file's values
        assert (cfg.oracle.n_samples, cfg.oracle.h_s) == (2000, 0.05)

    def test_no_flags_keep_file_keys(self, tmp_path):
        path = small_config(tmp_path)
        ns = argparse.Namespace(config=str(path), order=None, epsilon=None,
                                oracle=None, seed=None)
        cfg, file_cfg = cli._load(ns), load_config(path)
        assert (cfg.order, cfg.epsilons, cfg.oracle) == (
            file_cfg.order, file_cfg.epsilons, file_cfg.oracle)

    def test_flag_never_replaces_a_malformed_section(self, tmp_path):
        path = small_config(tmp_path, oracle=5)
        with pytest.raises(ConfigError, match="oracle must be an object"):
            load_config(path, {"oracle": {"seed": 3}})


class TestReportCommand:
    def test_aggregates_without_recompute(self, tmp_path, capsys):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        main(["expand", "--config", str(path), "--out", str(out)])
        main(["compare", "--config", str(path), "--out", str(out)])
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "adjudications" in text
        assert "slope" in text
        assert (out / "summary.txt").exists()
        for line_start in ("grids.n_tau: ", "field.velocity_bound: ", "operator.pi: [",
                           "operator.m_hat: ", "== remainder rows =="):
            assert f"\n{line_start}" in text, line_start
        # the rows block: a header, then one line per row of remainder.json
        rows_block = text.split("== remainder rows ==\n")[1].split("== remainder slopes ==")[0]
        with open(out / "remainder.json") as fh:
            n_rows = len(json.load(fh)["rows"])
        assert len(rows_block.splitlines()) == 1 + n_rows

    def test_missing_inputs_exit_one(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 1

    @pytest.mark.parametrize("name,text", [
        ("remainder.json", "{}"), ("diagnostics.json", "[1, 2]"),
        ("remainder.json", '{"slopes": [{"order": 1}]}'), ("diagnostics.json", '{"orders": 3}'),
        ("diagnostics.json", '{"model": {"a"')])
    def test_malformed_output_file_exit_one(self, tmp_path, capsys, name, text):
        """A malformed output file gives an error line naming it, no traceback."""
        (tmp_path / name).write_text(text)
        assert main(["report", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / name) in err
        assert "Traceback" not in err and not (tmp_path / "summary.txt").exists()

    def test_rerun_identical_bytes(self, tmp_path):
        path = small_config(tmp_path)
        out = tmp_path / "out"
        main(["expand", "--config", str(path), "--out", str(out)])
        main(["compare", "--config", str(path), "--out", str(out)])
        main(["report", "--out", str(out)])
        first = (out / "summary.txt").read_bytes()
        main(["report", "--out", str(out)])
        assert (out / "summary.txt").read_bytes() == first


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv,code,stream,text", [
        (["validate"], 0, "stdout", "model: usable"),
        (["expand", "--order", "5"], 2, "stderr", "config error: order 5")])
    def test_shell_sees_exit_status(self, tmp_path, argv, code, stream, text):
        """The exit status of `python -m fastswitch.cli`, as a shell sees it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "fastswitch.cli", *argv, "--config",
                               str(MODEL_A), "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == code, proc.stderr
        assert text in getattr(proc, stream)
        assert "Traceback" not in proc.stderr

    def test_config_parse_error_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", "--config", str(path)]) == 2
