"""Run a Python program in a session of its own, so that nothing it starts outlives a test."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _process_group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def run_in_session(argv, timeout):
    """Exit code and stderr of ``python argv``, and whether it left a process running.

    Any process it leaves behind stays in its process group and is killed, on a
    timeout too (which raises ``subprocess.TimeoutExpired``).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    finally:
        left = _process_group_alive(proc.pid)
        if left:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, err.decode(), left
