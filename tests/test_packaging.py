"""The package runs on the standard library alone, and each command
imports only the layers it runs."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "data" / "toy.jsonl"


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


def fresh(code: str, *args: str) -> object:
    """What `code` prints last, as JSON, in a fresh interpreter given `args`.
    `-S` leaves out what site-packages' `.pth` files import on start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", f"import json, sys\n{code}", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def modules_after(code: str, *args: str) -> list[str]:
    """The modules a fresh interpreter holds after running `code`."""
    return fresh(f"{code}\nprint(json.dumps(sorted(sys.modules)))", *args)


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


# The package modules that `import tablehelm.cli` loads: no layer.
CLI_MODULES = {"tablehelm", "tablehelm.cli", "tablehelm.config", "tablehelm.errors"}


def package_modules(loaded: list[str]) -> set[str]:
    return {name for name in loaded if name.partition(".")[0] == "tablehelm"}


def modules_after_command(*argv: str) -> list[str]:
    """The modules a fresh interpreter holds after `tablehelm <argv>` ran
    and exited 0."""
    run = (
        "import contextlib, io\n"
        "from tablehelm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "assert code == 0, code\n"
    )
    return modules_after(run, *argv)


def test_importing_the_cli_loads_no_layer():
    assert package_modules(modules_after("import tablehelm.cli")) == CLI_MODULES


def test_help_loads_no_layer():
    assert package_modules(modules_after_command("--help")) == CLI_MODULES


def test_ingest_loads_only_table_core(tmp_path):
    loaded = modules_after_command("ingest", str(TOY), str(tmp_path / "out.jsonl"))
    assert package_modules(loaded) == CLI_MODULES | {"tablehelm.table_core"}


def test_evaluate_loads_no_label_search_client_or_prompt_layer(tmp_path):
    predictions = tmp_path / "predictions.jsonl"
    with open(TOY, encoding="utf-8") as toy, open(predictions, "w", encoding="utf-8") as out:
        for line in toy:
            record = json.loads(line)
            out.write(json.dumps({"id": record["id"], "prediction": record["reference"]}) + "\n")
    loaded = modules_after_command("evaluate", str(predictions), str(TOY))
    assert "tablehelm.metrics" in loaded
    layers = ("feedback", "evidence_lab", "prompting", "transforms")
    assert [name for name in layers if f"tablehelm.{name}" in loaded] == []
    assert [name for name in ("hashlib", "logging") if name in loaded] == []


def test_importing_metrics_loads_only_the_stemmer_and_errors():
    assert package_modules(modules_after("import tablehelm.metrics")) == {
        "tablehelm",
        "tablehelm.metrics",
        "tablehelm._porter",
        "tablehelm.errors",
    }


# ------------------------------------------------------ the lazy package root


def test_every_public_name_is_the_object_its_home_module_defines():
    import tablehelm
    from tablehelm import config, feedback

    for name in tablehelm.__all__:
        if name == "__version__":
            continue
        value = getattr(tablehelm, name)
        assert value.__module__.startswith("tablehelm.")
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert feedback.SamplingConfig is config.SamplingConfig


def test_dir_of_a_fresh_package_lists_every_public_name():
    code = "import tablehelm\nprint(json.dumps([dir(tablehelm), tablehelm.__all__]))"
    listed, public = fresh(code)
    assert set(public) <= set(listed)
    assert "__version__" in public


@pytest.mark.parametrize("module_name", ["tablehelm", "tablehelm.cli"])
def test_an_unknown_name_raises_attribute_error(module_name, monkeypatch):
    module = importlib.import_module(module_name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")
    with pytest.raises(AttributeError):
        monkeypatch.setattr(module, "no_such_name", None)


# Wraps two names of `tablehelm.cli` before any command has run, as a tracer
# does, runs `search-labels` and `pipeline`, then restores the originals and
# runs both again. Prints what each wrapper saw in each round.
PATCH_BEFORE_FIRST_USE = """
import contextlib, io
import tablehelm.cli as cli

data, out = sys.argv[1], sys.argv[2]
names = ("greedy_search", "cached_generate")
originals = {name: getattr(cli, name) for name in names}
seen = {name: [] for name in names}

def counting(name):
    original = originals[name]
    def wrapper(*args, **kwargs):
        seen[name].append(args[0].id if name == "greedy_search" else args[2])
        return original(*args, **kwargs)
    return wrapper

def chain(tag):
    for command in ("search-labels", "pipeline"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, data, f"{out}/{tag}-{command}.jsonl"]) == 0
    return {name: list(calls) for name, calls in seen.items()}

for name in names:
    setattr(cli, name, counting(name))
patched = chain("patched")
for name, original in originals.items():
    setattr(cli, name, original)
restored = chain("restored")
print(json.dumps([patched, restored]))
"""


def test_names_patched_before_the_first_command_are_called(tmp_path):
    patched, restored = fresh(PATCH_BEFORE_FIRST_USE, str(TOY), str(tmp_path))
    with open(TOY, encoding="utf-8") as toy:
        ids = [json.loads(line)["id"] for line in toy]
    assert sorted(patched["greedy_search"]) == ids
    # `pipeline` makes one highlighter and one summarizer call per sample.
    assert len(patched["cached_generate"]) == 2 * len(ids)
    assert restored == patched
    for command in ("search-labels", "pipeline"):
        before = (tmp_path / f"patched-{command}.jsonl").read_bytes()
        assert (tmp_path / f"restored-{command}.jsonl").read_bytes() == before


def test_a_name_set_before_it_is_read_is_kept(tmp_path):
    code = (
        "import contextlib, io\n"
        "import tablehelm.cli as cli\n"
        "from tablehelm.evidence_lab import greedy_search\n"
        "seen = []\n"
        "def wrapper(sample, *args, **kwargs):\n"
        "    seen.append(sample.id)\n"
        "    return greedy_search(sample, *args, **kwargs)\n"
        "cli.greedy_search = wrapper\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['search-labels', sys.argv[1], sys.argv[2]]) == 0\n"
        "print(json.dumps(sorted(seen)))\n"
    )
    seen = fresh(code, str(TOY), str(tmp_path / "labels.jsonl"))
    with open(TOY, encoding="utf-8") as toy:
        assert seen == [json.loads(line)["id"] for line in toy]


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert project["dependencies"] == []
