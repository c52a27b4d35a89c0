"""Build and load the compiled kernel (``_kernel.c``): the eADMM iteration,
its warm-start shift and the pendulum plant's RK4 step.

The C source is compiled once per machine, by the compiler Python was built
with (``sysconfig``'s ``CC``), into the package's ``__pycache__``. The file
name carries a hash of the source, the compile command and the Python and
numpy versions, so a later process finds the build and loads it without
compiling, and a changed source or toolchain gets a new build. The build is
written under a temporary name and moved into place, so processes that
build at the same time never load a partial file. Where ``__pycache__``
cannot be written, each process builds into a temporary directory of its
own. Nothing is built at import: the first solve or stage call builds, and a
build that fails raises :class:`KernelBuildFailure` from that call.
"""

import functools
import hashlib
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

from .errors import KernelBuildFailure

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE = SOURCE.parent / "__pycache__"
# The kernel must evaluate every element exactly as numpy and Python do, so
# nothing may contract a multiply and an add into one rounding or reorder a
# sum, and the plant's libm calls stay the calls Python makes: gcc would fold
# pow(v, 2.0) into v * v and merge cos and sin of one angle into sincos.
FLAGS = (
    "-O3", "-ffp-contract=off", "-fno-builtin-pow", "-fno-builtin-sin", "-fno-builtin-cos",
    "-fPIC", "-shared",
)
# Link flags: the plant calls libm.
LIBS = ("-lm",)
# Lines of the compiler's standard error quoted by a failed build.
STDERR_LINES = 20


def compile_command():
    """The compiler command line, without the output file."""
    includes = (sysconfig.get_paths()["include"], np.get_include())
    return [
        *shlex.split(sysconfig.get_config_var("CC")),
        *FLAGS,
        *(f"-I{path}" for path in includes),
        str(SOURCE),
        *LIBS,
    ]


def _compile(command, target):
    argv = [*command, "-o", str(target)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
    except OSError as exc:
        raise KernelBuildFailure(f"building the kernel failed: {shlex.join(argv)}: {exc}") from None
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_LINES:])
        raise KernelBuildFailure(
            f"building the kernel failed: {shlex.join(argv)} exited with {done.returncode}\n{tail}"
        )


def _import(path):
    spec = spec_from_file_location("mpct_eadmm._kernel", path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def load():
    """The kernel extension module, compiled first if no build of it is cached."""
    command = compile_command()
    key = hashlib.sha256(SOURCE.read_bytes())
    for part in (*command, sys.version, np.__version__):
        key.update(b"\0" + part.encode())
    name = f"_kernel.{key.hexdigest()[:16]}{sysconfig.get_config_var('EXT_SUFFIX')}"
    target = CACHE / name
    if target.exists():
        return _import(target)
    try:
        CACHE.mkdir(exist_ok=True)
        fd, partial = tempfile.mkstemp(suffix=".tmp", prefix=f"{name}.", dir=CACHE)
    except OSError:
        with tempfile.TemporaryDirectory() as private:
            target = Path(private) / name
            _compile(command, target)
            return _import(target)
    os.close(fd)
    try:
        _compile(command, partial)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return _import(target)
