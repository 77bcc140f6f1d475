"""Run ``termxform`` and Python programs in a fresh interpreter.

A crash (exit 139) in a child fails one test instead of the run, and a fresh
interpreter has Python's default recursion limit and none of the imports of
the test process.  Every child runs this checkout's ``src`` and has no
``PYTHONPROFILEIMPORTTIME``, which would fill its standard error.
"""

import os
import subprocess
import sys

import termxform

SRC = os.path.dirname(os.path.dirname(os.path.abspath(termxform.__file__)))

# The child's own peak RSS in MB.  On Linux, ru_maxrss keeps the high-water
# mark across execve, so a child's reading includes the size of the pytest
# process it was forked from (a trivial child of a 150 MB parent reads 163 MB,
# against a VmHWM of 13.5 MB); VmHWM is the child's own.  Where /proc is
# absent, ru_maxrss is the fallback.
PEAK_MB = """
def peak_mb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
"""

# termxform.cli run as ``-m`` runs it, writing its peak as the last line of
# standard error when the interpreter exits.
_CLI_WITH_PEAK = PEAK_MB + """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("peak_mb %d\\n" % peak_mb()))
runpy.run_module("termxform.cli", run_name="__main__", alter_sys=True)
"""


def run_python(*args, timeout=300):
    """``python ARGS``, its output captured as text."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONPROFILEIMPORTTIME", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


def run_script(name, *args, timeout=300):
    """``python scripts/NAME ARGS`` (see :func:`run_python`)."""
    return run_python(os.path.join(os.path.dirname(SRC), "scripts", name), *args, timeout=timeout)


def termxform(tmp_path, command, *args, rules=None, depth=None, timeout=300, peak=False):
    """``termxform COMMAND --rules R ARGS``: R is a file of *rules*, or ``prelude-only`` when *rules* is None.

    With *depth*, ``--in`` names a document of ``<a>`` nested *depth* deep
    around the text ``x``.  With *peak*, ``done.peak_mb`` is the child's
    peak RSS in MB (None if it did not exit normally), and its line is taken
    off ``done.stderr``.
    """
    if rules is not None:
        path = tmp_path / "rules.tx"
        path.write_text(rules, encoding="utf-8")
        rules = str(path)
    args = [command, "--rules", rules or "prelude-only", *args]
    if depth is not None:
        document = tmp_path / "deep.xml"
        document.write_text("<a>" * depth + "x" + "</a>" * depth, encoding="utf-8")
        args += ["--in", str(document)]
    if not peak:
        return run_python("-m", "termxform.cli", *args, timeout=timeout)
    done = run_python("-c", _CLI_WITH_PEAK, *args, timeout=timeout)
    stderr, marker, peak_mb = done.stderr.rpartition("peak_mb ")
    done.stderr, done.peak_mb = (stderr, int(peak_mb)) if marker else (done.stderr, None)
    return done


def query(tmp_path, goal, *options, **kwargs):
    """``termxform query OPTIONS GOAL`` (see :func:`termxform`)."""
    return termxform(tmp_path, "query", *options, goal, **kwargs)


def in_process(child, timeout=300):
    """The lines *child*, a Python program that may call ``peak_mb()``, prints to standard output."""
    done = run_python("-c", PEAK_MB + child, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()
