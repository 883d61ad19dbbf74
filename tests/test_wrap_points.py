"""The functions the benchmark's tracer wraps stay wrappable.

The benchmark times the package from outside by replacing module attributes
with timing wrappers, and the package's own calls reach a wrapper only
because they look their callees up as module globals. A target that is
renamed, or a call that no longer goes through the module attribute, would
leave a per-layer metric empty. This test keeps the list of wrap points
here, independent of the benchmark's code.
"""

import numpy as np
import pytest

import hinfgcc as hg
from hinfgcc import cli, kernels, model, problem, solver, verify

# (module, attribute) for every function the benchmark's tracer wraps
WRAP_POINTS = [
    (cli, "load_problem"),
    (model, "validate_plant"),
    (model, "enumerate_vertices"),
    (problem, "build_extended"),
    (problem, "build_schur"),
    (solver, "solve"),
    (solver, "update_y"),
    (solver, "backward_mu"),
    (solver, "update_w"),
    (solver, "forward_mu"),
    (solver, "update_z"),
    (solver, "residuals"),
    (solver, "eval_g_all"),
    (kernels, "project_psd_stack"),
    (kernels, "sym_eig"),
    (kernels, "spd_solve"),
    (verify, "closed_loop"),
    (verify, "stability_margin"),
    (verify, "hinf_sweep"),
    (verify, "check_feasibility"),
    (verify, "certified_attenuation"),
    (verify, "eval_theta1"),
]

# wrap points the solver reaches on every iteration
PER_ITERATION = [
    (solver, "update_y"),
    (solver, "backward_mu"),
    (solver, "update_w"),
    (solver, "forward_mu"),
    (solver, "update_z"),
    (solver, "residuals"),
    (solver, "eval_g_all"),
    (kernels, "project_psd_stack"),
    (kernels, "sym_eig"),
    (kernels, "spd_solve"),
]


@pytest.mark.parametrize(
    "module, attr", WRAP_POINTS, ids=[f"{m.__name__}.{a}" for m, a in WRAP_POINTS]
)
def test_wrap_point_is_a_module_function(module, attr):
    assert callable(getattr(module, attr, None))


def test_solver_reaches_every_wrapper_on_every_iteration(toy, monkeypatch):
    iters = 3
    config = hg.SolverConfig(eps=1e-300, max_iters=iters)
    plain = hg.solve(toy.schur, config)
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, attr in PER_ITERATION:
        name = f"{module.__name__}.{attr}"
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))

    sol = hg.solve(toy.schur, config)
    assert sol.iters == iters
    # the wrappers change no result
    np.testing.assert_array_equal(sol.W_star, plain.W_star)

    # each iteration opens with the Y step; split the calls there
    starts = [k for k, name in enumerate(calls) if name == "hinfgcc.solver.update_y"]
    assert len(starts) == iters
    expected = {f"{m.__name__}.{a}" for m, a in PER_ITERATION}
    for begin, end in zip(starts, starts[1:] + [len(calls)]):
        assert set(calls[begin:end]) == expected
