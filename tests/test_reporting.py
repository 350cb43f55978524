"""Episode artifact writers: the exact CSV text of a tiny hand-built run."""

import numpy as np

from stlfunnel.controller import TriggerEvent
from stlfunnel.reporting import read_trajectory, write_events, write_trajectory
from stlfunnel.sim import Trajectory

TRAJECTORY_CSV = (
    "t,x0,x1,rho_active,gamma,mode\n"
    "0,0.333333333333,-2.5,0.5,1.25,1\n"
    "0.1,0.5,1e-07,0.75,1,1\n"
    "0.2,-0,12345678.9,1,0.5,2\n"
)


def _tiny_trajectory() -> Trajectory:
    # Three samples of a 2-state run ending in the terminal mode 2.
    return Trajectory(
        dt=0.1,
        t=np.array([0.0, 0.1, 0.2]),
        X=np.array([[1.0 / 3.0, -2.5], [0.5, 1e-7], [-0.0, 12345678.9]]),
        rho_active=np.array([0.5, 0.75, 1.0]),
        gamma=np.array([1.25, 1.0, 0.5]),
        mode=np.array([1, 1, 2]),
    )


def test_trajectory_csv_golden_format(tmp_path):
    # The held input is not a column; events.csv records it.
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, _tiny_trajectory())
    assert path.read_text() == TRAJECTORY_CSV
    times, X = read_trajectory(path)
    assert times.tolist() == [0.0, 0.1, 0.2]
    assert X[0, 0] == float("%.12g" % (1.0 / 3.0))


def test_events_csv_golden_format(tmp_path):
    # The held input of every row lives here: an Initial event with no
    # overshoot, then events whose radius, state and input take the
    # exponent and signed-zero forms of %.12g.
    events = [
        TriggerEvent(index=0, t=0.0, x=np.array([1.0 / 3.0, -2.5]), u=np.array([2.0, -1e20]),
                     delta=0.25, cause="Initial", delta_by="box"),
        TriggerEvent(index=1, t=0.1, x=np.array([0.5, 1e-7]), u=np.array([0.25, 3.0]),
                     delta=1e-7, cause="StateDeviation", delta_by="lipschitz", overshoot=1.04),
        TriggerEvent(index=2, t=3 * 0.1, x=np.array([-0.0, 12345678.9]), u=np.array([1e-7, -0.0]),
                     delta=0.5, cause="MaxInterval", delta_by="box", overshoot=2.4600000000000004),
    ]
    path = tmp_path / "events.csv"
    write_events(path, events, 2)
    assert path.read_text() == (
        "i,t_i,cause,delta_i,delta_by,overshoot,x0,x1,u0,u1\n"
        "0,0,Initial,0.25,box,,0.333333333333,-2.5,2,-1e+20\n"
        "1,0.1,StateDeviation,1e-07,lipschitz,1.04,0.5,1e-07,0.25,3\n"
        "2,0.3,MaxInterval,0.5,box,2.46,-0,12345678.9,1e-07,-0\n"
    )


def test_read_trajectory_ignores_input_columns(tmp_path):
    # A file written with the held-input columns, as before they were
    # dropped, loads to the same times and states.
    old = tmp_path / "old.csv"
    old.write_text(
        "t,x0,x1,u0,u1,rho_active,gamma,mode\n"
        "0,0.333333333333,-2.5,2,-1e+20,0.5,1.25,1\n"
        "0.1,0.5,1e-07,0.25,3,0.75,1,1\n"
        "0.2,-0,12345678.9,nan,nan,1,0.5,2\n"
    )
    new = tmp_path / "new.csv"
    new.write_text(TRAJECTORY_CSV)
    (t_old, X_old), (t_new, X_new) = read_trajectory(old), read_trajectory(new)
    assert t_old.tobytes() == t_new.tobytes() and X_old.tobytes() == X_new.tobytes()
    assert X_new.shape == (3, 2)
