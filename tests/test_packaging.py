"""The package runs on the standard library alone."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_cli_loads_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import json, sys; before = set(sys.modules); import tablehelm.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(result.stdout)
    assert "tablehelm.cli" in loaded
    outside = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"tablehelm"}
    ]
    assert outside == []


# Standard-library modules that only some commands use, each imported by the
# code that uses it: the HTTP client, the response cache and the thread pool.
DEFERRED = ("http.client", "ssl", "sqlite3", "urllib.request", "concurrent.futures")


def modules_after(code: str, *args: str) -> list[str]:
    """The modules a fresh interpreter holds after running `code`. `-S`
    leaves out what site-packages' `.pth` files import on start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout)


def test_importing_the_cli_loads_no_http_stack_sqlite_or_thread_pool():
    loaded = modules_after("import tablehelm.cli")
    assert "tablehelm.cli" in loaded
    assert [name for name in DEFERRED if name in loaded] == []


@pytest.mark.parametrize(
    "code, module",
    [
        ("HttpClient('http://127.0.0.1:9/v1/chat', 'm')", "http.client"),
        ("ResponseCache(sys.argv[1]).get('m', 'p', SamplingConfig())", "sqlite3"),
        ("list(map_ordered(abs, [1, -2], 2))", "concurrent.futures"),
    ],
    ids=["http-client", "response-cache", "thread-pool"],
)
def test_each_deferred_module_loads_with_its_first_use(tmp_path, code, module):
    setup = (
        "import tablehelm.cli\n"
        "from tablehelm.evidence_lab import map_ordered\n"
        "from tablehelm.feedback import HttpClient, ResponseCache, SamplingConfig\n"
        f"assert {module!r} not in sys.modules\n"
    )
    assert module in modules_after(setup + code, str(tmp_path))


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert project["dependencies"] == []
