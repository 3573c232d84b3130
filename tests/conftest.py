import numpy as np
import pytest

import specwave as sw
from specwave import mc
from specwave.integrator import run_chunk, step


@pytest.fixture
def model8():
    return sw.build_model(1.0, 8)


@pytest.fixture
def grid32():
    return sw.GridWorkspace(32)


def truncated(state, n_keep):
    """state with every coefficient above mode n_keep zeroed."""
    pos, vel = state.pos.copy(), state.vel.copy()
    pos[n_keep:] = vel[n_keep:] = 0.0
    return sw.PairState(pos, vel)


def small_anderson_config(n_ref=32, levels=(4, 8, 16), n_steps=64, m_noise=64):
    model = sw.build_model(1.0, n_ref)
    pos = np.zeros(n_ref)
    pos[0] = 1.0
    return sw.SimConfig(model=model, levels=levels, t_final=1.0, n_steps=n_steps,
                        m_noise=m_noise, spec=sw.preset("anderson"),
                        initial=sw.PairState(pos, np.zeros(n_ref)),
                        grid_points=n_ref + m_noise)


def zero_config(n_ref=8, levels=(2, 4, 6), initial_pos=None, initial_vel=None):
    model = sw.build_model(1.0, n_ref)
    pos = np.zeros(n_ref) if initial_pos is None else np.asarray(initial_pos, float)
    vel = np.zeros(n_ref) if initial_vel is None else np.asarray(initial_vel, float)
    return sw.SimConfig(model=model, levels=levels, t_final=1.0, n_steps=32,
                        m_noise=8, spec=sw.preset("zero"),
                        initial=sw.PairState(pos, vel))


def step_loop(config, master_seed, path_index, coarsen=1, observe=None):
    """Terminal states of one path at every level and the reference, by ``step``.

    The single-path arithmetic that ``run_chunk`` batches: the path's
    Normal(0, dt) increments, drawn step by step from its own stream and
    summed over ``coarsen`` consecutive steps, drive each level from the
    projected initial state.  ``observe(level, k, state)``, if given, sees
    each level's state at every step k = 0..K.
    """
    rng = np.random.default_rng(sw.path_seed(master_seed, path_index))
    noise = rng.standard_normal((config.n_steps, config.m_noise)) * np.sqrt(config.dt)
    noise = noise.reshape(-1, coarsen, config.m_noise).sum(axis=1)
    dt = config.t_final / noise.shape[0]
    out = {}
    for level in (*config.levels, config.n_ref):
        state = sw.PairState(config.initial.pos[:level], config.initial.vel[:level])
        for k, dw in enumerate(noise):
            if observe is not None:
                observe(level, k, state)
            state = step(state, dt, dw, config.spec, config.grid, config.model)
        if observe is not None:
            observe(level, len(noise), state)
        out[level] = state
    return out


def estimate_functional(phi, config, level, n_paths, master_seed):
    """Sample mean and standard error of phi at one level, uncoupled.

    Runs the paths in ``run_study``'s blocks and reduces them as it does.
    """
    values = np.empty(n_paths)

    def work(chunk):
        values[chunk.start:chunk.stop] = run_chunk(config, (level,), chunk, master_seed,
                                                   phi=phi)["phi"][:, 0]

    mc._map_chunks(work, mc._chunks(n_paths), None)
    mean, se = mc._mean_stderr(values)
    return float(mean), float(se)


def phi_at(phi, state, model):
    """The functional at one state: ``evaluate_batch`` on a single row."""
    return float(phi.evaluate_batch(state.pos[None, :], state.vel[None, :], model)[0])


def expected_row(states, config, phi):
    """One path's ``run_chunk`` row from its ``step_loop`` states.

    Returns phi at the reference and every level, and the squared pair-space
    gaps of the levels to the reference, in ``run_chunk``'s column order.
    """
    ref = states[config.n_ref]
    phis = [phi_at(phi, states[level], config.model)
            for level in (config.n_ref, *config.levels)]
    gaps = []
    for level in config.levels:
        dp = ref.pos.copy()
        dp[:level] -= states[level].pos
        dv = ref.vel.copy()
        dv[:level] -= states[level].vel
        gaps.append(sw.norm_bold_hr(sw.PairState(dp, dv), 0.0, config.model) ** 2)
    return np.array(phis), np.array(gaps)
