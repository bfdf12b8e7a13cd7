"""Documentation claims that must match the code they cite."""

from __future__ import annotations

import re
from pathlib import Path

from repro.exec.plan import PLAN_SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_plan_schema_matches_code():
    cited = set(re.findall(r"repro-exec-plan/v\d+(?:\.\d+)*", README.read_text()))
    assert cited == {PLAN_SCHEMA}
