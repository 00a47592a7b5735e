"""Boundary properties, driven by a seeded generator of inputs.

Config dicts are drawn from the values at and just beyond each documented
bound (``SIGMA_MAX``, ``engine.LAMBDA_MAX``, ``engine.T_SWITCH_MAX``, PSO's
``|w| <= 1``, probabilities in [0, 1], ``n_elites < pop_size``, ``pop_size``
and ``rs`` at least 1), and from nan, inf, bools, strings and lists. The
properties:

- a config is either rejected by ``harness.load_config`` with
  ``ConfigError``, before any run, or each of its cells finishes a 1-repeat
  run on a 5-D function at a small ``total_eval``, with floating-point
  errors raised: all of them for DPSEA, overflow, invalid and divide for
  the baselines;
- ``dpsea success`` and ``dpsea summarize`` on a malformed run directory
  exit 1 with one line;
- over random ``pop_size``, ``n_elites``, ``rs`` and ``total_eval`` the
  baselines keep the budget identity and DPSEA stays within its cap.
"""

import json
import math
import random

import numpy as np
import pytest

from dpsea import baselines, cli, engine, harness
from dpsea.benchmarks import SIGMA_MAX, NoiseModel, make_function
from dpsea.ga import GaParams
from dpsea.stochastics import RngState


def up(x):
    """The next float above ``x``: just beyond an upper bound."""
    return float(np.nextafter(x, math.inf))


def down(x):
    """The next float below ``x``: just beyond a lower bound."""
    return float(np.nextafter(x, -math.inf))


ODD = [math.nan, math.inf, True, "1", [1]]
PROBABILITY = ([0.0, 1.0, 0.5, 1], [up(1.0), down(0.0), *ODD])
SCALE = ([SIGMA_MAX, -SIGMA_MAX, 0.0, 0.5], [up(SIGMA_MAX), down(-SIGMA_MAX), *ODD])
WEIGHT = ([1.0, -1.0, 0.7, 0.0], [up(1.0), down(-1.0), *ODD])
POSITIVE = ([1, 2], [0, -1, 1.0, True, "1"])

# key -> (values at or inside its bounds, values beyond them); pop_size,
# n_elites and total_eval are drawn relative to each other in draw_config
TOP = {
    "function": (["sphere", "griewank", "rastrigin1", "rosenbrock"],
                 ["Sphere", 1, ["sphere"]]),
    "dimension": ([5], [0, -1, 5.5, True, "5", math.nan, [5]]),
    "noisy": ([True, False], [1, "true", math.nan]),
    "repeats": ([1], [0, -1, 1.0, True, "1"]),
    "seed": ([0, 1, 2**63 - 1, -1, 2**70], [1.5, True, "1", math.nan, [1]]),
    "sigma": ([[0.0], [0.5], [SIGMA_MAX], [0.0, SIGMA_MAX]],
              [[up(SIGMA_MAX)], [down(0.0)], [math.nan], [math.inf], [], 0.5, "0.5",
               [[0.5]], [True], ["0.5"]]),
    "rs": ([[1], [2], [1, 2]], [[0], [-1], [1.0], [True], [], 1, "1", ["1"]]),
    "rastrigin_constant": ([None, 0.0, 50.0, SIGMA_MAX, -SIGMA_MAX], SCALE[1]),
    "success": ([{"epsilon": {"sphere": 1e-3}}, {"epsilon": {}}, {}],
                [{"epsilon": {"cube": 1.0}}, {"eps": {}}, [1],
                 {"epsilon": {"sphere": math.nan}}]),
}
BLOCK = {
    "p_c": PROBABILITY,
    "p_m": PROBABILITY,
    "sigma_m": ([0.0, 0.01, SIGMA_MAX, 1e308, float(np.finfo(float).max)],
                [down(0.0), math.inf, math.nan, True, "1"]),
    "t_switch": ([1, engine.T_SWITCH_MAX], [engine.T_SWITCH_MAX + 1, 0, 2.0, True, "1"]),
    "regression_lambda": ([0.0, 1e-6, 1, engine.LAMBDA_MAX],
                          [up(engine.LAMBDA_MAX), down(0.0), *ODD]),
    "cf": PROBABILITY,
    "f_scale": SCALE,
    "w_start": WEIGHT,
    "w_end": WEIGHT,
    "phi_min": SCALE,
    "phi_max": SCALE,
}
BLOCK_KEYS = {
    "dpsea": ["p_c", "p_m", "sigma_m", "t_switch", "regression_lambda"],
    "cga": ["p_c", "p_m", "sigma_m"],
    "de": ["cf", "f_scale"],
    "pso": ["w_start", "w_end", "phi_min", "phi_max"],
}
DEFAULT_POP = {"dpsea": 100, "cga": 100, "de": 50, "pso": 20}
LEAST_POP = {"dpsea": 1, "cga": 1, "de": 4, "pso": 1}
# block values that are never valid, and keys no block may set
BAD_BLOCKS = [[], "x", None]
FOREIGN_KEYS = ["rs_merge", "max_total_eval", "rs", "total_eval", "ga", "nope"]


def draw_config(r):
    """``(raw, bad)``: a config-file dict whose every value is at or inside
    its documented bounds, and with probability one half one value beyond
    them, named by ``bad`` (``None`` when there is none). A valid run is 5-D
    and small: at most 1200 evaluations per cell."""
    algo = r.choice(list(DEFAULT_POP))
    raw = {key: r.choice(good) for key, (good, _) in TOP.items()}
    raw["algo"] = algo
    block = {key: r.choice(BLOCK[key][0])
             for key in r.sample(BLOCK_KEYS[algo], r.randint(0, len(BLOCK_KEYS[algo])))}
    # an ordered pair is set whole, so a default cannot break the order
    for low, high in (("w_end", "w_start"), ("phi_min", "phi_max")):
        if low in block or high in block:
            pair = sorted(block.get(key, r.choice(BLOCK[key][0])) for key in (low, high))
            block[low], block[high] = pair
    pop = DEFAULT_POP[algo]
    if r.random() < 0.7:
        pop = block["pop_size"] = r.choice([LEAST_POP[algo], 10, 30])
    if algo in ("dpsea", "cga") and (pop <= 10 or r.random() < 0.7):
        block["n_elites"] = r.choice([0, pop - 1, min(1, pop - 1)])  # default 10
    raw[algo] = block
    first = pop * max(raw["rs"])  # the first population's cost
    raw["total_eval"] = r.choice([first, 300, 600, 1200] if first <= 300 else [first, 600, 1200])

    bad = None
    if r.random() < 0.5:
        where = r.choice(["top"] * 3 + ["block"] * 3 + ["size", "budget", "algo"])
        if where == "top":
            bad = r.choice(list(TOP))
            raw[bad] = r.choice(TOP[bad][1])
        elif where == "block":
            bad = r.choice(BLOCK_KEYS[algo])
            block[bad] = r.choice(BLOCK[bad][1])
        elif where == "size":
            bad = r.choice(["pop_size", "n_elites", "foreign key"]
                           if algo in ("dpsea", "cga") else ["pop_size", "foreign key"])
            if bad == "pop_size":
                block[bad] = r.choice([LEAST_POP[algo] - 1, -1, 10.0, True, "10"])
            elif bad == "n_elites":
                block[bad] = r.choice([pop, -1, 1.5, True])
            else:
                block[r.choice(FOREIGN_KEYS)] = 1
        elif where == "budget":
            bad = "total_eval"
            raw[bad] = r.choice([first - 1, 0, -1, 600.0, True, "600", math.nan])
        else:
            bad = r.choice(["algo", "block"])
            if bad == "algo":
                raw[bad] = r.choice(["ga", 1, ["dpsea"]])
            else:
                raw[algo] = r.choice(BAD_BLOCKS)
    return raw, bad


ERRORS = {"dpsea": {"all": "raise"},
          "baseline": {"over": "raise", "invalid": "raise", "divide": "raise"}}


def check_config(raw):
    """``None`` when ``raw`` is rejected, else the records of its cells."""
    try:
        cfg, *_ = harness.load_config(raw, {})
    except harness.ConfigError:
        return None
    assert cfg.total_eval <= 1200 and cfg.dimension == 5 and cfg.repeats == 1, raw
    errors = ERRORS["dpsea" if cfg.algo == "dpsea" else "baseline"]
    with np.errstate(**errors):
        records = harness.run_experiment(cfg)
    for rec in records:
        assert math.isfinite(rec.best_true_fitness), (raw, rec)
        assert rec.total_eval <= cfg.total_eval, (raw, rec)
    return records


CONFIG_SEEDS = range(8)
CONFIGS_PER_SEED = 60


@pytest.mark.parametrize("seed", CONFIG_SEEDS)
def test_a_config_is_rejected_or_runs_cleanly(seed, monkeypatch):
    monkeypatch.delenv("DPSEA_THREADS", raising=False)
    r = random.Random(seed)
    for _ in range(CONFIGS_PER_SEED):
        raw, bad = draw_config(r)
        try:
            records = check_config(raw)
        except Exception as exc:
            raise AssertionError(f"config {raw!r} raised {exc!r}") from exc
        assert (records is None) == (bad is not None), (bad, raw)


# ------------------------------------------------------------ run directories


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """A valid one-run directory in each format."""
    dirs = {}
    for fmt in harness.FORMATS:
        out = tmp_path_factory.mktemp(fmt)
        assert cli.main(["run", "--algo", "cga", "--sigma", "0,0.5", "--rs", "1",
                         "--repeats", "1", "--seed", "1", "--total-eval", "300",
                         "--format", fmt, "--out", str(out)]) == 0
        dirs[fmt] = out
    return dirs


def break_csv(r, text):
    """The runs.csv ``text`` broken in one random way."""
    header, *rows = text.splitlines()
    cols = header.split(",")
    choice = r.randrange(6)
    if choice == 0:  # a cell of the wrong type; any text is a str
        cells = rows[0].split(",")
        i = r.choice([j for j, c in enumerate(cols) if c not in ("function", "algo")])
        cells[i] = r.choice(["abc", "", "1.5.0", "yes", "[1]"])
        return "\n".join([header, ",".join(cells), *rows[1:]]) + "\n"
    if choice == 1:  # a column gone
        i = r.randrange(len(cols))
        keep = lambda line: ",".join(c for j, c in enumerate(line.split(",")) if j != i)
        return "\n".join(keep(line) for line in [header, *rows]) + "\n"
    if choice == 2:  # a short row
        return "\n".join([header, rows[0].rsplit(",", 1)[0]]) + "\n"
    if choice == 3:  # no records
        return header + "\n"
    if choice == 4:  # not UTF-8
        return b"\xff\xfe\x00".decode("latin-1") + text
    return ""


def break_json(r, text):
    """The runs.json ``text`` broken in one random way."""
    rows = json.loads(text)
    choice = r.randrange(5)
    if choice == 0:
        key = r.choice(list(rows[0]))
        rows[0][key] = r.choice([None, [1], {"a": 1}])
        return json.dumps(rows)
    if choice == 1:
        del rows[0][r.choice(list(rows[0]))]
        return json.dumps(rows)
    if choice == 2:
        return json.dumps(r.choice([[], {}, 1, None, "runs", [1], [[1]]]))
    if choice == 3:
        return text[: r.randrange(len(text))]
    return "\xef\xbb\xbf" + text  # a UTF-8 byte order mark


def break_run_dir(r, fmt, path):
    """Make the run directory at ``path`` unreadable in one random way. Text
    is written as latin-1, so each char of a broken text is one byte."""
    runs = path / f"runs.{fmt}"
    config = path / "config.json"
    choice = r.randrange(6)
    if choice == 0:
        runs.unlink()
    elif choice == 1:
        runs.unlink()
        runs.mkdir()
    elif choice == 2:
        echo = json.loads(config.read_text(encoding="utf-8"))
        echo["format"] = r.choice(["xml", 1, ["csv"], {"csv": 1}, True])
        config.write_text(json.dumps(echo), encoding="utf-8")
    elif choice == 3:
        config.write_text(r.choice(["", "{", "[1]", "null", '"x"', "\x00"]),
                          encoding="latin-1")
    else:
        text = runs.read_text(encoding="utf-8")
        broken = break_csv(r, text) if fmt == "csv" else break_json(r, text)
        runs.write_text(broken, encoding="latin-1")


def test_a_malformed_run_directory_exits_1_with_one_line(run_dirs, tmp_path, capsys):
    r = random.Random(0)
    for i in range(60):
        fmt = r.choice(list(run_dirs))
        path = tmp_path / str(i)
        path.mkdir()
        for name in (f"runs.{fmt}", "config.json"):
            (path / name).write_bytes((run_dirs[fmt] / name).read_bytes())
        break_run_dir(r, fmt, path)
        for argv in (["success", "--in", str(path)], ["summarize", "--in", str(path)]):
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert (code, out) == (1, ""), (argv, sorted(path.iterdir()), out, err)
            assert err.startswith("error: ") and err.splitlines() == [err.strip()], (
                argv, sorted(path.iterdir()), err)


# ------------------------------------------------------------------ budgets


def test_random_sizes_keep_the_budget_identity_and_the_cap():
    fn = make_function("sphere")
    noise = NoiseModel(0.0, 0.5)
    r = random.Random(1)
    for trial in range(60):
        algo = ("cga", "de", "pso", "dpsea")[trial % 4]
        pop = r.randint(4 if algo == "de" else 1, 30)
        rs = r.randint(1, 4)
        total = r.randint(pop * rs, pop * rs * 30)
        ga = GaParams(pop_size=pop, n_elites=r.randint(0, pop - 1))
        rng = RngState(trial)
        if algo == "dpsea":
            res = engine.run(fn, noise, engine.DpseaParams(ga=ga, rs_merge=rs,
                                                           max_total_eval=total), rng)
            assert res.budget.total_eval <= total, (pop, rs, total)
            continue
        if algo == "cga":
            res = baselines.run_cga(fn, noise, baselines.CgaConfig(ga, rs, total), rng)
        elif algo == "de":
            res = baselines.run_de(fn, noise, baselines.DeConfig(pop, rs=rs, total_eval=total),
                                   rng)
        else:
            res = baselines.run_pso(fn, noise,
                                    baselines.PsoConfig(pop, rs=rs, total_eval=total), rng)
        b = res.budget
        assert b.pop_size * b.total_it * b.rs - b.total_unchanged == b.total_eval
        assert b.total_it == total // (pop * rs) and b.total_eval <= total
