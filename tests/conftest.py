"""Shared builders for the test suite."""

import importlib.util
import itertools
import json
import pathlib

import numpy as np
import pytest

from bcsl.channel_core import Channel3
from bcsl.cli import dispatch
from bcsl.regions import AuxJoint

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def bsc(p: float) -> np.ndarray:
    return np.array([[1 - p, p], [p, 1 - p]])


def ksym(k: int, p: float) -> np.ndarray:
    """k-ary symmetric channel with total crossover probability p."""
    return np.full((k, k), p / (k - 1)) + (1 - p - p / (k - 1)) * np.eye(k)


def product_channel(m1: np.ndarray, m2: np.ndarray, m3: np.ndarray
                    ) -> Channel3:
    """Independent per-receiver noise: p(y1,y2,y3|x) = Π mk[x][yk]."""
    t = np.einsum("xi,xj,xk->xijk", m1, m2, m3)
    return Channel3(m1.shape[0], m1.shape[1], m2.shape[1], m3.shape[1], t)


def cascade_channel(p1: float, p2: float, p3: float) -> Channel3:
    """Physically degraded binary cascade X -> Y1 -> Y2 -> Y3."""
    a, b, c = bsc(p1), bsc(p2), bsc(p3)
    t = np.zeros((2, 2, 2, 2))
    for x, y1, y2, y3 in itertools.product(range(2), repeat=4):
        t[x, y1, y2, y3] = a[x, y1] * b[y1, y2] * c[y2, y3]
    return Channel3(2, 2, 2, 2, t)


def identical_y1_y3_channel(rng: np.random.Generator, nx: int = 2,
                            ny: int = 2, ny2: int = 2) -> Channel3:
    """Random channel modified so Y3 is a symbol-for-symbol copy of Y1."""
    w1 = rng.dirichlet(np.ones(ny), size=nx)
    w2 = rng.dirichlet(np.ones(ny2), size=nx)
    t = np.zeros((nx, ny, ny2, ny))
    for x in range(nx):
        for y1 in range(ny):
            for y2 in range(ny2):
                t[x, y1, y2, y1] = w1[x, y1] * w2[x, y2]
    return Channel3(nx, ny, ny2, ny, t)


def noiseless_identical_channel(nx: int = 2) -> Channel3:
    """Y1 = Y2 = Y3 = X with no noise."""
    t = np.zeros((nx, nx, nx, nx))
    for x in range(nx):
        t[x, x, x, x] = 1.0
    return Channel3(nx, nx, nx, nx, t)


def random_channel(rng: np.random.Generator, nx: int, ny1: int, ny2: int,
                   ny3: int) -> Channel3:
    t = rng.dirichlet(np.ones(ny1 * ny2 * ny3), size=nx)
    return Channel3(nx, ny1, ny2, ny3, t.reshape(nx, ny1, ny2, ny3))


def uniform_binary_input_aux() -> AuxJoint:
    """Trivial cloud layers, U2 = X uniform binary: the workhorse auxiliary
    for codec tests."""
    p = np.zeros((1, 2, 1, 2))
    p[0, 0, 0, 0] = 0.5
    p[0, 1, 0, 1] = 0.5
    return AuxJoint(1, 2, 1, 2, p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


def perfbench_workloads():
    """The benchmark's `workloads` module: its plans and input builders."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def check_benchmark_key(workload: str, key: int,
                        tmp_path: pathlib.Path) -> None:
    """Run one key of a perfbench workload through the CLI and assert that
    its inputs equal the stored reference and every observed output agrees
    with it by the benchmark's own rule, `workloads.agrees`."""
    workloads = perfbench_workloads()
    ref = json.loads((PERFBENCH / "refs" / f"{workload}.json").read_text())
    ref = ref["keys"][str(key)]
    plan = workloads.plan(workload, key)
    indir, outdir = str(tmp_path / "in"), str(tmp_path / "out")
    (tmp_path / "out").mkdir()
    assert workloads.write_inputs(plan, indir) == ref["inputs"]
    for cmd in plan["commands"]:
        assert dispatch(workloads.expand(cmd["argv"], indir, outdir)) == 0
        got = workloads.observe(workload, cmd, outdir)
        want = ref["commands"][cmd["id"]]
        assert workloads.agrees(workload, cmd, got, want), (key, cmd["id"])
