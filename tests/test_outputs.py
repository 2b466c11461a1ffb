import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_manifest.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("output_manifest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_command(lines):
    """{command: "status digest"} of manifest lines."""
    return {command: f"{status} {digest}"
            for status, digest, command in (line.split(" ", 2) for line in lines)}


def test_every_command_keeps_its_recorded_output():
    script = _load_script()
    recorded = _by_command(script.MANIFEST.read_text().splitlines())
    now = _by_command(script.manifest())
    assert len(now) == 157
    changed = sorted(command for command in recorded.keys() | now.keys() if recorded.get(command) != now.get(command))
    assert not changed, "output or exit status changed for:\n" + "\n".join(changed)
