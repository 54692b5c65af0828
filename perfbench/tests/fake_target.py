"""Library-call targets that misbehave on purpose, for the accounting tests."""

import subprocess
import sys
import time


def exit_with(code, seed):
    sys.exit(code)


def hang(pid_file, seed):
    # a grandchild as well, so the test sees the whole group stopped
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    with open(pid_file, "w") as fh:
        fh.write(str(child.pid))
    time.sleep(60)
