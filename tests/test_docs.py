"""The README's library example runs as written, and the package exports
exactly the entry points it declares."""
import os
import re

import songoku

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_use_block_runs(capsys):
    with open(README) as fh:
        section = fh.read().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    classes, digest = capsys.readouterr().out.splitlines()
    assert classes.startswith("((")
    assert re.fullmatch(r"[0-9a-f]{64}", digest)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from songoku import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(songoku.__all__)
    assert set(songoku.__all__) == {
        "CombinatorConfig", "RunRecord", "SchedulerConfig", "SketchConfig",
        "make_graph_builder", "parse_config", "run", "run_experiment",
    }
    for name in songoku.__all__:
        assert namespace[name] is getattr(songoku, name)
