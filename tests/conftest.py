import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from lltwalk import LatticePMF, load_walk_spec, parse_spec_text, validate_walk_spec
from lltwalk import _kernels, exact_engine

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def lazy_pert():
    """1-D lazy walk, exit law drifted by d = 0.1."""
    return load_walk_spec(CONFIGS / "lazy_pert_1d.cfg")


@pytest.fixture(scope="session")
def lazy_sym():
    """1-D lazy walk, q = p (unperturbed)."""
    return load_walk_spec(CONFIGS / "lazy_sym_1d.cfg")


@pytest.fixture(scope="session")
def unit_cov_2d():
    """2-D walk with B = I and d = (0.1, 0)."""
    return load_walk_spec(CONFIGS / "unit_cov_2d.cfg")


@pytest.fixture(scope="session")
def aniso_2d():
    """2-D walk with B != I (diagonal steps along (1, 1)) and d = (0.05, 0.05)."""
    return load_walk_spec(CONFIGS / "aniso_2d.cfg")


@pytest.fixture(scope="session")
def reach2():
    """1-D walk with steps of size 1 and 2, sigma^2 = 6/5 and d = 1/10."""
    return load_walk_spec(CONFIGS / "reach2_pert_1d.cfg")


# reach 2 along x1 and 1 along x2
UNEQUAL_REACH = """dim = 2
p 0 0 = 1/5
p 1 0 = 1/10
p -1 0 = 1/10
p 2 0 = 1/10
p -2 0 = 1/10
p 0 1 = 1/5
p 0 -1 = 1/5
q 0 0 = 1/5
q 1 0 = 3/20
q -1 0 = 1/20
q 2 0 = 1/10
q -2 0 = 1/10
q 0 1 = 1/5
q 0 -1 = 1/5
"""


@pytest.fixture(scope="session")
def unequal_reach():
    """2-D walk reaching 2 along x1 and 1 along x2, d = (0.1, 0)."""
    p, q, _, _ = parse_spec_text(UNEQUAL_REACH)
    return validate_walk_spec(p, q)


@pytest.fixture(scope="session")
def lazy_p():
    return LatticePMF.from_points(1, {0: "1/2", 1: "1/4", -1: "1/4"})


@pytest.fixture(scope="session")
def spec3d():
    """3-D lazy axis walk with a drifted exit law, d = (1/20, 0, 0)."""
    return load_walk_spec(CONFIGS / "lazy_pert_3d.cfg")


def config_path(name: str) -> str:
    return str(CONFIGS / name)


# the test process has imported scipy and numpy's submodules itself, so
# start-up and first loads are checked in a fresh interpreter that finds
# lltwalk where this suite does
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def fresh_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def direct_step(cur, offs, ws):
    """out(x) = sum_k ws[k] cur(x - offs[k]) by direct summation, terms outside the box dropped."""
    shape = cur.shape
    out = np.zeros(shape)
    for x in itertools.product(*(range(s) for s in shape)):
        for off, w in zip(offs, ws):
            y = tuple(c - o for c, o in zip(x, off))
            if all(0 <= c < s for c, s in zip(y, shape)):
                out[x] += w * cur[y]
    return out


def step_every_row(box, offs, ws, reach):
    """One dp_step over every row of the box laid out as the stepper lays it out.

    The box goes into a fresh zero layout (``exact_engine._layout``), so the
    halo holds zeros; returns the box's cells of the step's output.
    """
    padded, margin = exact_engine._layout(box.shape, reach)
    inner = tuple(map(slice, box.shape))
    size = math.prod(padded)
    buf = np.zeros(size + 2 * margin)
    buf[margin:margin + size].reshape(padded)[inner] = box
    groups = _kernels.shift_groups(offs, ws, padded)
    out = _kernels.dp_step(buf, np.empty(size), groups, np.empty(size))
    return out.reshape(padded)[inner]


def nonzero_cells(values, offset):
    """(point, value) per nonzero cell of a box, one cell at a time, in C order."""
    return [(tuple((i + offset).tolist()), values[tuple(i)].item()) for i in np.argwhere(values)]


def report_rows(rep):
    """A ConvergenceReport's columns as its JSON rows: one dict per (n, x), x as a list."""
    axes = [f"x{i+1}" for i in range(rep.nu)]
    cols = {k: np.asarray(v).tolist() for k, v in rep.columns.items()}  # Python values
    rest = {k: v for k, v in cols.items() if k not in axes}
    return [{"x": [cols[a][i] for a in axes], **{k: v[i] for k, v in rest.items()}}
            for i in range(len(cols["n"]))]
