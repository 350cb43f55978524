"""Episode artifact writers: the exact CSV text of a tiny hand-built run."""

import numpy as np

from stlfunnel.reporting import read_trajectory, write_trajectory
from stlfunnel.sim import Trajectory


def _tiny_trajectory() -> Trajectory:
    # Three samples of a 2-state run whose last sample is a failure row
    # (NaN input), ending in the terminal mode 2.
    return Trajectory(
        dt=0.1,
        t=np.array([0.0, 0.1, 0.2]),
        X=np.array([[1.0 / 3.0, -2.5], [0.5, 1e-7], [-0.0, 12345678.9]]),
        U=np.array([[2.0, -1e20], [0.25, 3.0], [np.nan, np.nan]]),
        rho_active=np.array([0.5, 0.75, 1.0]),
        gamma=np.array([1.25, 1.0, 0.5]),
        mode=np.array([1, 1, 2]),
    )


def test_trajectory_csv_golden_format(tmp_path):
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, _tiny_trajectory())
    assert path.read_text() == (
        "t,x0,x1,u0,u1,rho_active,gamma,mode\n"
        "0,0.333333333333,-2.5,2,-1e+20,0.5,1.25,1\n"
        "0.1,0.5,1e-07,0.25,3,0.75,1,1\n"
        "0.2,-0,12345678.9,nan,nan,1,0.5,2\n"
    )
    times, X = read_trajectory(path)
    assert times.tolist() == [0.0, 0.1, 0.2]
    assert X[0, 0] == float("%.12g" % (1.0 / 3.0))
