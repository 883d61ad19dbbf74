"""The package entry points bench/run.py and bench/setup_child.py call, in
the forms they call them.

The benchmark changes only on its own, so a change to one of these
signatures or result fields must fail here first, not in a benchmark run.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import hinfgcc
from hinfgcc import cli, model, problem, solver, verify

from test_cli import TOY_PROBLEM


@pytest.fixture()
def toy_path(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY_PROBLEM), encoding="utf-8")
    return str(path)


def test_fixture_path_names_a_bundled_file():
    assert os.path.isfile(hinfgcc.fixture_path("example1.json"))
    assert os.path.isfile(hinfgcc.fixture_path("example2.json"))


def test_set_up_child_pipeline(toy_path):
    plant, spec, _ = cli.load_problem(toy_path)
    hinfgcc.validate_plant(plant)
    vset = hinfgcc.enumerate_vertices(plant, spec)
    ext = hinfgcc.build_extended(plant, vset)
    schur = hinfgcc.build_schur(ext)
    assert (vset.N, schur.p, schur.r) == (1, 2, 3)


def test_in_process_operations(toy_path):
    loaded = cli.load_problem(toy_path)
    assert len(loaded) == 3
    plant, spec, settings = loaded
    model.validate_plant(plant)
    vset = model.enumerate_vertices(plant, spec)
    ext = problem.build_extended(plant, vset)
    schur = problem.build_schur(ext)
    config = solver.SolverConfig(**settings)

    warm = solver.solve(schur, dataclasses.replace(config, max_iters=5))
    assert warm.iters == 5

    sol = solver.solve(schur, config)
    assert sol.status == "converged"
    assert sol.K_star.shape == (plant.m, plant.n)
    assert sol.mu_star > 0.0 and sol.gamma_star == 1.0 / math.sqrt(sol.mu_star)
    assert sol.W_star.shape == (plant.n + plant.m,) * 2

    for i in range(vset.N):
        cl = verify.closed_loop(plant, vset[i], sol.K_star, i)
        margin = verify.stability_margin(cl)
        assert margin < 0
        assert verify.hinf_sweep(cl).peak > 0.0

    feas = verify.check_feasibility(ext, sol.W_star, sol.mu_star)
    assert len(feas.per_vertex) == vset.N
    assert all(isinstance(v.theta1_max_eig, float) for v in feas.per_vertex)
    assert math.isclose(feas.w_min_eig, np.linalg.eigvalsh(sol.W_star)[0], rel_tol=1e-9)

    mu, gamma = verify.certified_attenuation(ext, sol.W_star)
    assert 0.0 < mu and gamma == 1.0 / math.sqrt(mu)
