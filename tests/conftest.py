import pytest

import headkv.rollout
from headkv.model import ModelConfig, init_model
from headkv.roles import role_map_from_lists
from headkv.tensor_ops import RopeParams

TOY = ModelConfig(L=4, H=6, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=0)
SCENIC = ModelConfig(L=4, H=6, d=16, s=16, f=3, grid_h=4, grid_w=4, seed=0,
                     scene_period=9, scene_jitter=0.02)
ROPE = RopeParams.default_for(16)


@pytest.fixture(scope="session")
def toy_config():
    return TOY


@pytest.fixture(scope="session")
def toy_weights():
    return init_model(TOY)


@pytest.fixture(scope="session")
def scenic_config():
    return SCENIC


@pytest.fixture(scope="session")
def scenic_weights():
    return init_model(SCENIC)


@pytest.fixture(scope="session")
def rope():
    return ROPE


@pytest.fixture(scope="session")
def toy_role_map():
    """Fixed hand map on the toy grid: 6 anchor, 5 local, 13 memory."""
    heads = [(l, h) for l in range(TOY.L) for h in range(TOY.H)]
    return role_map_from_lists(TOY.L, TOY.H, anchor=heads[:6], local=heads[6:11],
                               alpha_anchor=0.25, tau_local=0.20)



@pytest.fixture(autouse=True)
def _engine_seams_restored():
    """A test that fails inside a `run_with_retention` loop leaves that
    generator suspended with its seams still wrapped, until it is collected;
    putting them back after every test keeps the failure from spreading."""
    seams = {name: getattr(headkv.rollout, name) for name in ("assemble", "packed_attention")}
    yield
    for name, fn in seams.items():
        setattr(headkv.rollout, name, fn)
