import numpy as np
import pytest

from hcplate import memo
from hcplate import tensors as tn
from hcplate.geometry import InclusionShape, build_cell_mesh, build_macro_mesh

DEMO_RADIUS = 0.26


@pytest.fixture
def fresh_memo():
    """Empty the memo of the cell-level builders before and after the
    test: a test that patches a solver, an assembler, an ordering or a
    module constant on their path neither reads a result built without the
    patch nor leaves one built with it."""
    memo.clear()
    yield
    memo.clear()


@pytest.fixture(scope="session")
def supported_rows():
    """Every supported (delta, mu, tau, kappa) regime, enumerated from
    limits.ROWS: each row at each delta class it admits (delta = 1 for the
    finite class), and at kappa in {inf, 1, 0} in its kappa class."""
    from hcplate.limits import ROWS, RegimeConfig
    deltas = {"deltaf": 1.0, "delta0": 0.0, "deltainf": np.inf}
    return [RegimeConfig(deltas[c], row.mu, row.tau, kappa)
            for row in ROWS.values() for c in row.bloch
            for kappa in ((np.inf, 1.0, 0.0) if c == row.kappa_at
                          else (None,))]


@pytest.fixture(scope="session")
def demo_material():
    return tn.MaterialSpec(tn.isotropic(1.0, 1.0), tn.isotropic(1.0, 1.0),
                           rho0=1.0, rho1=1.0, nu=0.2)


@pytest.fixture(scope="session")
def demo_shape():
    return InclusionShape("disk", DEMO_RADIUS)


@pytest.fixture(scope="session")
def demo_macro_mesh():
    return build_macro_mesh(1.0, 1.0, 8, 8)


@pytest.fixture(scope="session")
def demo_bloch_memb(demo_material, demo_shape):
    from hcplate.bloch import bloch_spectrum
    return bloch_spectrum(demo_material, demo_shape, 16, "memb_delta", 40,
                          delta=1.0, n_z=4)


@pytest.fixture(scope="session")
def demo_bloch_full(demo_material, demo_shape):
    from hcplate.bloch import bloch_spectrum
    return bloch_spectrum(demo_material, demo_shape, 16, "full_delta", 50,
                          delta=1.0, n_z=4)


@pytest.fixture(scope="session")
def demo_tensor_delta1(demo_material, demo_shape):
    from hcplate.effective import effective_delta
    mesh = build_cell_mesh(demo_shape, n=16, dim=3, n_z=4)
    return effective_delta(demo_material, mesh, delta=1.0)


@pytest.fixture(scope="session")
def demo_zhikov(demo_bloch_memb, demo_material):
    from hcplate.zhikov import zhikov_from_bloch
    return zhikov_from_bloch(demo_bloch_memb, demo_material)


@pytest.fixture(scope="session")
def coupled_rows(demo_material, demo_shape):
    """The plate row (mu = eps) and the mu = eps_h row, delta = 1, tau = 2,
    on an 8x8 macro mesh, with a plate tensor whose cross block is 0.15 I
    (tests/schur_oracle.plain_tensor), keyed by mu."""
    from hcplate.limits import RegimeConfig, build_limit_model
    from schur_oracle import plain_tensor, with_tensor
    mesh = build_macro_mesh(1.0, 1.0, 8, 8)
    tensor = plain_tensor(coupling=0.15)
    return {mu: with_tensor(build_limit_model(
        RegimeConfig(1.0, mu, 2), demo_material, demo_shape, mesh, cell_n=8,
        n_z=4, n_modes=8), tensor) for mu in ("eps", "eps_h")}
