"""Digest the command line's bytes over a fixed set of invocations.

    python3 tests/cli_bytes.py CHECKOUT > digests.txt

runs `sgqi.cli.main` from CHECKOUT/src in process over CONFIGS (the
README's and `tests/test_cli.py`'s MIXED_INI, that config again at the odd
orders r = 3 and r = 1, whose shifts are half-integers, a bare command
line and two config files that do not parse), times the six commands,
times SETTINGS: valid variants and every bad setting the config checks
serve.  Each invocation runs in a fresh temporary directory and prints
one tab-separated line: command, config, settings, exit code and the
first 16 hex digits of the sha256 of stdout and of stderr.  Diffing the
output of two checkouts shows every invocation whose exit code or bytes
changed.  pytest does not collect this file; `tests/test_cli.py` runs the
command line through its run_main.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

MIXED_INI = """\
[problem]
family = mixed
d = 2
r = 2
p = 2
theta = 1
q = 2
a = 1,2

[sweep]
budgets = 4,10,26,53
"""

CONFIGS = {
    "readme": MIXED_INI.replace("r = 2", "r = 4").replace(
        "budgets = 4,10,26,53", "budgets = 100,300,1000,3000"),
    "mixed": MIXED_INI,
    "mixed-r3": MIXED_INI.replace("r = 2", "r = 3"),
    "mixed-r1": MIXED_INI.replace("r = 2", "r = 1").replace("a = 1,2",
                                                           "a = 0.6,0.9"),
    "bare": None,
    "no-section-header": "family = mixed\n",
    "not-utf-8": b"[problem]\nfamily = \xe9nergie\n",
}

COMMANDS = ("gridinfo", "recover", "integrate", "compare", "export-rule",
            "dump-grid")

HYBRID = ("problem.family=hybrid", "problem.alpha=1.5", "problem.beta=-0.5")
ENERGY = ("problem.family=energy", "problem.alpha=2", "problem.gamma=1",
          "problem.theta=2")

# each entry is one invocation's --set overrides; an item that starts
# with "-" is a flag and passed as it stands
SETTINGS = [
    (),
    ("--format=jsonl",),
    ("sweep.xi=2",),
    ("sweep.xi=2,4",),
    ("sweep.corpus=sinprod",),
    ("sweep.corpus=kink, poly",),
    ("sweep.method=halton", "sweep.points=256"),
    ("sweep.method=mc", "sweep.points=256", "sweep.seed=3"),
    ("sweep.method=lattice", "sweep.resolution=9"),
    ("sweep.resolution=9,17", "sweep.offset=yes"),
    ("sweep.lq=1",),
    ("sweep.lq=inf", "sweep.points=auto"),
    ("problem.epsilon=auto", "problem.tau=3"),
    ("problem.epsilon=", "sweep.xi=3"),
    ("problem.tau=inf",),
    ("sweep.budgets=,100, 26",),
    ("sweep.budgets=100,110,300,1000,3000",),
    ("sweep.budgets=300,100,1000,3000",),
    HYBRID,
    HYBRID[:2] + ("sweep.xi=2,4,6",),
    HYBRID + ("problem.gamma=",),
    HYBRID[:2] + ("problem.beta=0.5", "problem.theta=2"),
    ENERGY,
    ENERGY + ("sweep.xi=2",),
    ENERGY[:3] + ("problem.theta=1",),
    ("problem.family=fullgrid", "problem.lam=1", "sweep.xi=2"),
    ("problem.family=smolyak", "sweep.xi=3"),
    ("output.dat_dir=dats", "sweep.corpus=sinprod"),
    ("--output=out.csv",),
    # bad settings
    ("problem.d=2.5",),
    ("problem.p=abc",),
    ("problem.a=1, x",),
    ("problem.a=1",),
    ("problem.epsilon=x",),
    ("problem.theta=2", "problem.epsilon=50"),
    HYBRID + ("problem.gamma=x",),
    HYBRID + ("problem.gamma=auto",),
    HYBRID[:2] + ("problem.beta=",),
    ("problem.family=hybrid",),
    ENERGY[:2],
    ("problem.tau=x",),
    ("problem.tau=-1",),
    ("problem.tau=nan",),
    ("problem.family=energy", "problem.alpha=0.6", "problem.beta=1e-12",
     "problem.gamma=0.6", "problem.theta=2"),
    ("problem.family=sobolev",),
    ("problem.family=",),
    ("problem.family=fullgrid", "problem.lam=x", "sweep.xi=2"),
    ("problem.family=fullgrid", "problem.lam=0", "sweep.xi=2"),
    ("problem.family=smolyak", "problem.d=0", "sweep.xi=2"),
    ("problem.family=fullgrid", "sweep.xi=2,3"),
    ("sweep.lq=0",),
    ("sweep.lq=nan",),
    ("sweep.lq=auto",),
    ("sweep.points=0", "sweep.method=halton"),
    ("sweep.points=x",),
    ("sweep.seed=-1", "sweep.method=mc"),
    ("sweep.seed=x",),
    ("sweep.xi=nan",),
    ("sweep.xi=inf",),
    ("sweep.xi=-1",),
    ("sweep.xi=2, nan",),
    ("sweep.xi=x",),
    ("sweep.xi=",),
    ("sweep.xi= , ",),
    ("sweep.budgets=0",),
    ("sweep.budgets=100,-1",),
    ("sweep.budgets=abc",),
    ("sweep.budgets= , ",),
    ("sweep.budgets=1",),
    ("sweep.resolution=1",),
    ("sweep.resolution=0,5",),
    ("sweep.resolution=3,3,3",),
    ("sweep.resolution=x",),
    ("sweep.resolution=",),
    ("sweep.offset=maybe",),
    ("sweep.method=bogus",),
    ("sweep.method=",),
    ("sweep.corpus=nosuch",),
    ("sweep.corpus=",),
    ("sweep.corpus= , ",),
    ("output.format=xml",),
    ("output.format=xml", "sweep.xi=2"),
    ("output.dat_dir=afile",),
    ("--output=nodir/out.csv",),
    ("bogus.key=1",),
    ("problem.family",),
]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_main(main, argv, cwd=None):
    """(exit code, stdout, stderr) of main(argv) run in process in the
    directory cwd (default: the current one), which is restored after.
    An exception that would print a traceback at the command line gives
    its type name as the code and its message on stderr."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    try:
        os.chdir(cwd or home)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejects the command line
                code = e.code
            except Exception as e:
                code = type(e).__name__
                print(e, file=sys.stderr)
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def main(checkout):
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    from sgqi import cli

    print(f"running {cli.__file__}", file=sys.stderr)
    for name, ini in CONFIGS.items():
        for command in COMMANDS:
            for setting in SETTINGS:
                argv = [command]
                for item in setting:
                    argv += [item] if item.startswith("-") else ["--set", item]
                with tempfile.TemporaryDirectory() as tmp:
                    with open(os.path.join(tmp, "afile"), "w"):
                        pass
                    if ini is not None:
                        with open(os.path.join(tmp, "config.ini"), "wb") as fh:
                            fh.write(ini if isinstance(ini, bytes)
                                     else ini.encode())
                        argv += ["-c", "config.ini"]
                    code, out, err = run_main(cli.main, argv, tmp)
                print("\t".join([command, name, " ".join(setting), str(code),
                                 _digest(out), _digest(err)]), flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
